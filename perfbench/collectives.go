package main

import (
	"fmt"
	"strings"
	"sync"

	"ncc/internal/comm"
	"ncc/internal/ncc"
)

// paperCollN and paperCollReps are the clique size of the collective probe
// on paper (the size of its n=1024 units) and how many times it calls each
// collective; dense runs it at its own n, where a call costs eight times as
// much, with fewer calls. The metrics are medians over the calls.
const (
	paperCollN    = 1024
	paperCollReps = 8
	denseCollReps = 3
	collSize      = 8 // nodes per group, as in a mid-run MST component
)

// collectives runs the benchmark's own node program on an n-clique, calling
// the three collectives MST is built from — Aggregate, Multicast over
// SetupTrees, and AggregateAndBroadcast — and reports each call's wall time
// (as node 0 sees it) and rounds. Nodes form groups of collSize led by their
// lowest id; every result is checked against its definition.
func collectives(seed int64, n, reps int, tr *tracer, rep *report) {
	root := tr.begin("comm", 0)
	names := []string{"aggregate", "multicast", "aggbcast"}
	times := map[string][]float64{}
	rounds := map[string][]float64{}
	var mu sync.Mutex
	var bad []string
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	salts := make([]uint64, reps)
	globalMin := make([]uint64, reps)
	for k := range salts {
		salts[k] = uint64(derive(seed, 3, uint64(k)))
		globalMin[k] = salts[k]
		for u := 1; u < n; u++ {
			globalMin[k] = min(globalMin[k], uint64(u)^salts[k])
		}
	}
	// timed runs one collective call and records it from node 0's view.
	timed := func(ctx *ncc.Context, name string, call func()) {
		start, r0 := tr.now(), ctx.Round()
		call()
		if ctx.ID() == 0 {
			end := tr.now()
			tr.add("comm."+name, root, start, end)
			times[name] = append(times[name], float64(end-start)/1e3)
			rounds[name] = append(rounds[name], float64(ctx.Round()-r0))
		}
	}
	cfg := ncc.Config{N: n, Seed: derive(seed, 4), Strict: true}
	_, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		me := ctx.ID()
		leader := me - me%collSize
		for _, salt := range salts {
			var res []comm.GroupVal[uint64]
			timed(ctx, "aggregate", func() {
				res = comm.Aggregate(s, []comm.Agg[uint64]{{Group: uint64(leader), Target: leader, Val: uint64(me) ^ salt}}, comm.Min, 1)
			})
			if me == leader {
				want := uint64(leader) ^ salt
				for v := leader + 1; v < leader+collSize; v++ {
					want = min(want, uint64(v)^salt)
				}
				if len(res) != 1 || res[0].Group != uint64(leader) || res[0].Val != want {
					fail("aggregate at %d: got %v, want min %d", me, res, want)
				}
			}
		}
		var items []comm.TreeItem
		if me != leader {
			items = append(items, comm.TreeItem{Group: uint64(leader), Origin: me})
		}
		trees := s.SetupTrees(items)
		for _, salt := range salts {
			var got []comm.GroupVal[uint64]
			timed(ctx, "multicast", func() {
				got = comm.Multicast(s, trees, me == leader, uint64(me), uint64(me)^salt, comm.U64Wire{}, 1)
			})
			if me != leader && (len(got) != 1 || got[0].Group != uint64(leader) || got[0].Val != uint64(leader)^salt) {
				fail("multicast at %d: got %v from leader %d", me, got, leader)
			}
		}
		for k, salt := range salts {
			var v uint64
			var ok bool
			timed(ctx, "aggbcast", func() {
				v, ok = comm.AggregateAndBroadcast(s, uint64(me)^salt, true, comm.Min)
			})
			if !ok || v != globalMin[k] {
				fail("aggregate-and-broadcast at %d: got %d, want %d", me, v, globalMin[k])
			}
		}
	})
	tr.end(root)
	if err == nil && len(bad) > 0 {
		err = fmt.Errorf("collective checks: %s", strings.Join(bad, "; "))
	}
	rep.op(err)
	if err != nil {
		return
	}
	for _, n := range names {
		rep.layer("comm."+n+"_us", median(times[n]), "us")
		rep.layer("comm."+n+"_rounds", median(rounds[n]), "rounds")
	}
}
