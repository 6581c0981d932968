package kmachine

import (
	"testing"

	"ncc/internal/comm"
	"ncc/internal/core"
	"ncc/internal/faultmodel"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/verify"
)

func TestSimulatePreservesAlgorithmOutput(t *testing.T) {
	g := graph.KForest(32, 2, 3)
	wg := graph.RandomWeights(g, 100, 4)
	perNode := make([][][2]int, g.N())
	cfg := ncc.Config{N: g.N(), Seed: 7, Strict: true}
	res, st, err := Simulate(4, 8, cfg, func(ctx *ncc.Context) {
		perNode[ctx.ID()] = core.MST(comm.NewSession(ctx), wg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MST(wg, core.CollectMSTEdges(perNode)); err != nil {
		t.Fatalf("MST corrupted by simulation accounting: %v", err)
	}
	if res.NCCRounds != st.Rounds {
		t.Errorf("NCCRounds %d != stats rounds %d", res.NCCRounds, st.Rounds)
	}
	if res.KRounds < int64(res.NCCRounds) {
		t.Errorf("k-rounds %d below NCC rounds %d (each NCC round costs at least one)", res.KRounds, res.NCCRounds)
	}
	if res.CrossMessages+res.IntraMessages != st.Messages {
		t.Errorf("message accounting mismatch: %d + %d != %d", res.CrossMessages, res.IntraMessages, st.Messages)
	}
}

func TestMoreMachinesLessWork(t *testing.T) {
	// Corollary 2: k-rounds fall roughly like 1/k^2 (until the 1-per-round
	// floor dominates). Check monotonicity over a k sweep.
	g := graph.Grid(6, 6)
	program := func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		o := core.Orient(s, g, core.OrientParams{})
		trees, lhat := core.BroadcastTrees(s, g, o)
		core.BFS(s, g, trees, lhat, 0)
	}
	var prev int64
	for _, k := range []int{2, 4, 8} {
		cfg := ncc.Config{N: g.N(), Seed: 5, Strict: true}
		res, _, err := Simulate(k, 4, cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && res.KRounds > prev {
			t.Errorf("k=%d: KRounds %d worse than with fewer machines (%d)", k, res.KRounds, prev)
		}
		prev = res.KRounds
	}
}

func TestSingleMachineIsFree(t *testing.T) {
	// With k=1 everything is intra-machine: cost collapses to the barrier.
	cfg := ncc.Config{N: 16, Seed: 1, Strict: true}
	res, st, err := Simulate(1, 4, cfg, func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		s.AnyTrue(ctx.ID() == 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossMessages != 0 {
		t.Errorf("cross messages %d on a single machine", res.CrossMessages)
	}
	if res.KRounds != int64(st.Rounds) {
		t.Errorf("KRounds %d, want %d", res.KRounds, st.Rounds)
	}
}

// TestSimulateKeepsCallerProbe: accounting chains onto a probe the caller
// already attached instead of replacing it.
func TestSimulateKeepsCallerProbe(t *testing.T) {
	var tl ncc.Timeline
	cfg := ncc.Config{N: 16, Seed: 1, Strict: true, Probe: tl.Sample}
	res, st, err := Simulate(4, 4, cfg, func(ctx *ncc.Context) {
		comm.NewSession(ctx).AnyTrue(ctx.ID() == 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Samples) != st.Rounds || tl.TotalMessages() != st.Messages {
		t.Errorf("caller probe saw %d rounds / %d msgs, run had %d / %d",
			len(tl.Samples), tl.TotalMessages(), st.Rounds, st.Messages)
	}
	if res.CrossMessages+res.IntraMessages != st.Messages {
		t.Errorf("message accounting mismatch: %d + %d != %d", res.CrossMessages, res.IntraMessages, st.Messages)
	}
}

func TestBadParams(t *testing.T) {
	if _, _, err := Simulate(0, 4, ncc.Config{N: 4}, func(*ncc.Context) {}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Simulate(2, 0, ncc.Config{N: 4}, func(*ncc.Context) {}); err == nil {
		t.Error("bandwidth=0 accepted")
	}
}

func TestPartitionBalance(t *testing.T) {
	cfg := ncc.Config{N: 1000, Seed: 3}
	res, _, err := Simulate(10, 4, cfg, func(ctx *ncc.Context) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMachineNodes < 100/2 || res.MaxMachineNodes > 2*100 {
		t.Errorf("random partition badly unbalanced: max machine holds %d of 1000", res.MaxMachineNodes)
	}
}

// TestPinnedResults pins exact Results across engine changes: the accounting
// must see the same messages at the same point of the round (after the send
// cap and fault drops, before receive truncation) for every figure to match.
// The faulted case drops messages through a FaultPlan, so it also pins that
// fault drops are excluded from the machine links.
func TestPinnedResults(t *testing.T) {
	grid := graph.Grid(6, 6)
	bfs := func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		o := core.Orient(s, grid, core.OrientParams{})
		trees, lhat := core.BroadcastTrees(s, grid, o)
		core.BFS(s, grid, trees, lhat, 0)
	}
	plan, err := faultmodel.Build([]faultmodel.Spec{
		{Model: "iid-drop", Params: param.Values{"p": 0.01}},
		{Model: "link-cut", Params: param.Values{"fromround": 40}, From: []int{35}},
	}, faultmodel.Env{G: grid, N: grid.N(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		k    int
		cfg  ncc.Config
		want Result
	}{
		{"bfs k=2", 2, ncc.Config{N: grid.N(), Seed: 5, Strict: true},
			Result{K: 2, BandwidthWords: 4, NCCRounds: 1199, KRounds: 2213, CrossMessages: 6399, IntraMessages: 5194, MaxMachineNodes: 18, MaxLinkWords: 170}},
		{"bfs k=8", 8, ncc.Config{N: grid.N(), Seed: 5, Strict: true},
			Result{K: 8, BandwidthWords: 4, NCCRounds: 1199, KRounds: 1400, CrossMessages: 10321, IntraMessages: 1272, MaxMachineNodes: 8, MaxLinkWords: 40}},
		{"bfs faulted k=4", 4, ncc.Config{N: grid.N(), Seed: 5, MaxRounds: 20000, FaultPlan: plan},
			Result{K: 4, BandwidthWords: 4, NCCRounds: 8406, KRounds: 8426, CrossMessages: 476, IntraMessages: 172, MaxMachineNodes: 13, MaxLinkWords: 10}},
	}
	for _, c := range cases {
		res, _, err := Simulate(c.k, 4, c.cfg, bfs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res != c.want {
			t.Errorf("%s: got %#v\nwant %#v", c.name, res, c.want)
		}
	}
}
