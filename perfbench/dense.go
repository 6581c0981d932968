package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ncc/internal/ncc"
)

// The dense workload: every node of an n=8192 clique sends its full capacity
// of two-word messages to seeded random non-self targets every round, for a
// fixed number of traffic rounds. It is the opposite regime to paper —
// delivery dominates and every node is active every round. Round 0 is quiet:
// each program only announces that it started, so set-up (spawning the
// clique) is not mixed with the first round's sends.
const (
	denseN      = 8192
	denseRounds = 30
)

// denseProgram is the node program of one pass. started and delivered are
// shared counters; allStarted is stamped by the last node to start.
type denseProgram struct {
	seed       int64
	rounds     int
	started    atomic.Int64
	delivered  atomic.Int64
	allStarted atomic.Int64 // UnixNano
}

func (d *denseProgram) run(ctx *ncc.Context) {
	if d.started.Add(1) == denseN {
		d.allStarted.Store(time.Now().UnixNano())
	}
	ctx.EndRound()
	me := ctx.ID()
	x := splitmix(uint64(d.seed) ^ uint64(me)*0x9e3779b97f4a7c15)
	var got int64
	for r := 0; r < d.rounds; r++ {
		for k := ctx.Cap(); k > 0; k-- {
			x = splitmix(x)
			to := int((x >> 32) * (denseN - 1) >> 32) // uniform in [0, n-1)
			if to >= me {
				to++
			}
			ctx.SendWords2(to, ncc.Words2{uint64(me), x})
		}
		got += int64(len(ctx.EndRound()))
	}
	d.delivered.Add(got)
}

func runDense(o options, rep *report) error {
	cfg := ncc.Config{N: denseN, Seed: derive(o.seed, 5), Strict: true}
	capacity := int64(cfg.Cap())
	wantMsgs := denseN * capacity * denseRounds
	wantRounds := denseRounds + 1 // the quiet start-up round
	var want counts
	var wantDelivered int64
	var setups []float64
	var untraced []usage
	var tracedWalls, spawns, posts []float64
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	// Warm up the runtime (goroutine stacks, heap size) with a short run of
	// the same program before anything is timed.
	if _, err := ncc.Run(cfg, (&denseProgram{seed: derive(o.seed, 6), rounds: 2}).run); err != nil {
		return err
	}
	// setUp times engine start-ups alone: from the ncc.Run call until every
	// node program of a pass's clique has started, the quiet round then ends
	// the run.
	setUp := func() error {
		for range setupReps {
			d := &denseProgram{}
			start := time.Now()
			if _, err := ncc.Run(cfg, d.run); err != nil {
				return err
			}
			setups = append(setups, float64(d.allStarted.Load()-start.UnixNano())/1e9)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	pass := func(t *tracer) {
		d := &denseProgram{seed: derive(o.seed, 6), rounds: denseRounds}
		c := cfg
		p := t.begin("dense.pass", 0)
		s := startPass()
		run := t.begin("ncc.Run", p)
		var eng *engineRun
		if t != nil {
			eng = t.probe(denseN, run)
			c.Probe = eng.Probe
		}
		st, err := ncc.Run(c, d.run)
		t.end(run)
		u := since(s)
		t.end(p)
		if t != nil {
			start, end := t.spans[run-1].Start, t.spans[run-1].End
			t.add("ncc.spawn", run, start, d.allStarted.Load()-t.epoch.UnixNano())
			eng.finish()
			if eng.count > 0 {
				spawns = append(spawns, float64(eng.firstAt()-start)/1e9)
				posts = append(posts, float64(end-eng.lastAt())/1e9)
			}
			tracedWalls = append(tracedWalls, u.wall)
		} else {
			untraced = append(untraced, u)
		}
		if err == nil {
			got := d.delivered.Load()
			if want == (counts{}) {
				want, wantDelivered = countsOf(st), got
			}
			err = errors.Join(
				checkf(st.Rounds == wantRounds, "%d rounds, want %d", st.Rounds, wantRounds),
				checkf(st.Messages == wantMsgs, "%d messages, want n·cap·traffic rounds = %d", st.Messages, wantMsgs),
				checkf(got+st.DroppedRecvOverflow == st.Messages,
					"delivered %d + dropped %d != messages %d", got, st.DroppedRecvOverflow, st.Messages),
				checkf(int64(st.MaxRecvDelivered) <= capacity, "a node received %d > cap %d", st.MaxRecvDelivered, capacity),
				checkf(countsOf(st) == want && got == wantDelivered,
					"counts %+v/%d differ from the first pass's %+v/%d", countsOf(st), got, want, wantDelivered))
		}
		if err != nil {
			err = fmt.Errorf("dense pass: %w", err)
		}
		rep.op(err)
	}

	if !o.traced {
		err := passesFor(o.seconds, 4, func(int) error {
			if err := setUp(); err != nil {
				return err
			}
			pass(nil)
			return nil
		})
		if err != nil {
			return err
		}
		reportPasses(rep, untraced, []counts{want}, setups)
		return nil
	}
	passesFor(o.seconds, 1, func(int) error { pass(nil); pass(tr); return nil })
	collectives(o.seed, denseN, denseCollReps, tr, rep)
	rep.layer("exec.spawn_s", median(spawns), "s")
	rep.layer("exec.post_s", median(posts), "s")
	rep.layer("obs.trace_overhead", median(tracedWalls)/median(walls(untraced))-1, "ratio")
	rep.layer("host.wall_run_s", median(walls(untraced)), "s")
	runtimeShares(untraced, rep)
	tr.nccLayer(rep)
	return writeTrace(tr, o)
}
