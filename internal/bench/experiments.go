package bench

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ncc/internal/algo"
	"ncc/internal/baseline"
	"ncc/internal/comm"
	"ncc/internal/core"
	"ncc/internal/graph"
	"ncc/internal/kmachine"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/seq"
	"ncc/internal/verify"
)

func logn(n int) float64 { return math.Log2(float64(max(n, 2))) }

// cfg builds the standard strict run configuration. Its probe meters the
// payload words the run moves (see WordsMoved).
func cfg(n int, seed int64) ncc.Config {
	return ncc.Config{N: n, Seed: seed, Strict: true, Workers: Workers, Probe: meterWords}
}

// wordsMoved totals the payload words accepted by every experiment run.
var wordsMoved atomic.Int64

func meterWords(s ncc.RoundSample, _ []ncc.ShardTiming) { wordsMoved.Add(int64(s.Words)) }

// WordsMoved returns the cumulative payload words accepted for transmission
// by every experiment run in this process; subtract two snapshots to meter
// one experiment's throughput.
func WordsMoved() int64 { return wordsMoved.Load() }

// mustGraph resolves a graph family through the registry; the experiments'
// specs are compile-time constants, so a rejection is a programming error.
func mustGraph(family string, seed int64, params param.Values) *graph.Graph {
	g, err := graph.Build(graph.Spec{Family: family, Params: params, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return g
}

// measure resolves an algorithm through the registry, runs it, and requires
// the built-in verifier to pass.
func measure(name string, c ncc.Config, g *graph.Graph, p param.Values) (*algo.Result, error) {
	res, err := algo.MustGet(name).Execute(c, g, p)
	if err != nil {
		return nil, err
	}
	if !res.Verified {
		return nil, fmt.Errorf("%s verification: %s", name, res.VerifyErr)
	}
	return res, nil
}

// MeasureMST runs the distributed MST on a random graph with m edges and
// verifies it against Kruskal. Returns the run stats.
func MeasureMST(n, m int, seed int64) (ncc.Stats, error) {
	g := mustGraph("gnm", seed, param.Values{"n": float64(n), "m": float64(m)})
	res, err := measure("mst", cfg(n, seed), g, param.Values{"maxw": float64(n) * float64(n)})
	if err != nil {
		return ncc.Stats{}, err
	}
	return res.Stats, nil
}

func init() {
	register(Experiment{
		Name: "mst",
		Desc: "Table 1 row 1 / Theorem 3.2: MST in O(log^4 n) rounds; centralized-gather baseline",
		Run: func(r *Reporter, quick bool) error {
			sizes := []int{32, 64, 128, 256}
			if quick {
				sizes = []int{32, 64}
			}
			t := NewTable("T1-MST: rounds vs n on G(n, m=3n), weights <= n^2",
				"n", "rounds", "log^4(n)", "rounds/log^4", "msgs", "centralized", "maxRecv/logn")
			for _, n := range sizes {
				st, err := MeasureMST(n, 3*n, 42)
				if err != nil {
					return err
				}
				cst, err := measureCentralizedMST(n, 3*n, 42)
				if err != nil {
					return err
				}
				l4 := math.Pow(logn(n), 4)
				t.Add(n, st.Rounds, fmt.Sprintf("%.0f", l4), float64(st.Rounds)/l4,
					st.Messages, cst.Rounds, float64(st.MaxRecvOffered)/logn(n))
			}
			r.Table(t)
			r.Notef("shape check: rounds/log^4 stays bounded (polylog MST); centralized grows with m.")
			return nil
		},
	})
}

func measureCentralizedMST(n, m int, seed int64) (ncc.Stats, error) {
	g := mustGraph("gnm", seed, param.Values{"n": float64(n), "m": float64(m)})
	wg := graph.RandomWeights(g, int64(n)*int64(n), seed+1)
	var mu sync.Mutex
	var forest [][2]int
	st, err := ncc.Run(cfg(n, seed), func(ctx *ncc.Context) {
		f := baseline.CentralizedMST(comm.NewSession(ctx), wg)
		if ctx.ID() == 0 {
			mu.Lock()
			forest = f
			mu.Unlock()
		}
	})
	if err != nil {
		return st, err
	}
	if err := verify.MST(wg, forest); err != nil {
		return st, fmt.Errorf("centralized mst: %w", err)
	}
	return st, nil
}

// MeasureBFS runs the broadcast-tree BFS on g from src and verifies it.
func MeasureBFS(g *graph.Graph, src int, seed int64) (ncc.Stats, error) {
	res, err := measure("bfs", cfg(g.N(), seed), g, param.Values{"src": float64(src)})
	if err != nil {
		return ncc.Stats{}, err
	}
	return res.Stats, nil
}

func init() {
	register(Experiment{
		Name: "bfs",
		Desc: "Table 1 row 2 / Theorem 5.2: BFS in O((a+D+log n) log n) rounds",
		Run: func(r *Reporter, quick bool) error {
			type tc struct {
				name string
				g    *graph.Graph
			}
			side := 16
			n := 256
			if quick {
				side, n = 8, 64
			}
			cases := []tc{
				{fmt.Sprintf("grid %dx%d", side, side),
					mustGraph("grid", 0, param.Values{"rows": float64(side), "cols": float64(side)})},
				{fmt.Sprintf("tree n=%d", n),
					mustGraph("binarytree", 0, param.Values{"n": float64(n)})},
				{fmt.Sprintf("gnp n=%d", n),
					mustGraph("gnp", 7, param.Values{"n": float64(n), "p": 4 * logn(n) / float64(n)})},
				{fmt.Sprintf("path n=%d", n/2),
					mustGraph("path", 0, param.Values{"n": float64(n / 2)})},
			}
			t := NewTable("T1-BFS: rounds vs (a+D+log n) log n",
				"graph", "n", "D", "deg(a)", "rounds", "bound", "ratio")
			for _, c := range cases {
				d := graph.Diameter(c.g)
				dg, _ := graph.Degeneracy(c.g)
				st, err := MeasureBFS(c.g, 0, 11)
				if err != nil {
					return err
				}
				bound := (float64(dg) + float64(d) + logn(c.g.N())) * logn(c.g.N())
				t.Add(c.name, c.g.N(), d, dg, st.Rounds, fmt.Sprintf("%.0f", bound), float64(st.Rounds)/bound)
			}
			r.Table(t)
			r.Notef("shape check: ratio stays within a constant band across shapes (D-dominated on path/grid).")
			return nil
		},
	})
}

// arboricitySweep runs the named algorithm over k-forest graphs of rising
// arboricity and tabulates rounds against the (a + log n) log^boundPow n
// bound.
func arboricitySweep(r *Reporter, title, name string, n int, ks []int, gseed, seed int64, boundPow float64) error {
	t := NewTable(title, "arboricity<=k", "n", "m", "rounds", "bound", "ratio")
	for _, k := range ks {
		g := mustGraph("kforest", gseed+int64(k), param.Values{"n": float64(n), "k": float64(k)})
		res, err := measure(name, cfg(n, seed), g, nil)
		if err != nil {
			return err
		}
		bound := (float64(k) + logn(n)) * math.Pow(logn(n), boundPow)
		t.Add(k, n, g.M(), res.Stats.Rounds, fmt.Sprintf("%.0f", bound), float64(res.Stats.Rounds)/bound)
	}
	r.Table(t)
	return nil
}

func init() {
	register(Experiment{
		Name: "mis",
		Desc: "Table 1 row 3 / Theorem 5.3: MIS in O((a+log n) log n) rounds",
		Run: func(r *Reporter, quick bool) error {
			n, ks := 128, []int{1, 2, 4, 8}
			if quick {
				n, ks = 64, []int{1, 4}
			}
			return arboricitySweep(r, "T1-MIS: rounds vs (a+log n) log n", "mis", n, ks, 100, 3, 1)
		},
	})
	register(Experiment{
		Name: "matching",
		Desc: "Table 1 row 4 / Theorem 5.4: maximal matching in O((a+log n) log n) rounds",
		Run: func(r *Reporter, quick bool) error {
			n, ks := 128, []int{1, 2, 4, 8}
			if quick {
				n, ks = 64, []int{1, 4}
			}
			return arboricitySweep(r, "T1-MM: rounds vs (a+log n) log n", "matching", n, ks, 200, 5, 1)
		},
	})
	register(Experiment{
		Name: "coloring",
		Desc: "Table 1 row 5 / Theorem 5.5: O(a)-coloring in O((a+log n) log^{3/2} n) rounds",
		Run: func(r *Reporter, quick bool) error {
			n, ks := 128, []int{1, 2, 4, 8}
			if quick {
				n, ks = 64, []int{1, 4}
			}
			t := NewTable("T1-COL: rounds and palette vs arboricity",
				"arboricity<=k", "rounds", "bound", "ratio", "palette", "colorsUsed", "greedy(deg+1)")
			for _, k := range ks {
				g := mustGraph("kforest", 300+int64(k), param.Values{"n": float64(n), "k": float64(k)})
				res, err := measure("coloring", cfg(n, 7), g, nil)
				if err != nil {
					return err
				}
				_, greedy := seq.GreedyColoring(g)
				bound := (float64(k) + logn(n)) * math.Pow(logn(n), 1.5)
				t.Add(k, res.Stats.Rounds, fmt.Sprintf("%.0f", bound), float64(res.Stats.Rounds)/bound,
					int(res.Metrics["palette"]), int(res.Metrics["colorsUsed"]), greedy)
			}
			r.Table(t)
			r.Notef("shape check: palette = 2(1+eps)*ahat = O(a); rounds/bound bounded.")
			return nil
		},
	})
	register(Experiment{
		Name: "orientation",
		Desc: "Theorem 4.12: O(a)-orientation in O((a+log n) log n) rounds, outdegree O(a)",
		Run: func(r *Reporter, quick bool) error {
			n, ks := 128, []int{1, 2, 4, 8, 16, 32}
			if quick {
				n, ks = 64, []int{1, 4}
			}
			t := NewTable("E-ORI: orientation quality and cost",
				"arboricity<=k", "rounds", "bound", "ratio", "maxOutdeg", "outdeg/k", "rescues")
			for _, k := range ks {
				g := mustGraph("kforest", 400+int64(k), param.Values{"n": float64(n), "k": float64(k)})
				res, err := measure("orientation", cfg(n, 9), g, nil)
				if err != nil {
					return err
				}
				od := int(res.Metrics["maxOutdegree"])
				bound := (float64(k) + logn(n)) * logn(n)
				t.Add(k, res.Stats.Rounds, fmt.Sprintf("%.0f", bound), float64(res.Stats.Rounds)/bound,
					od, float64(od)/float64(k), int(res.Metrics["rescues"]))
			}
			r.Table(t)
			r.Notef("shape check: outdeg/k bounded by a small constant (paper: <= 4); rescues == 0.")
			return nil
		},
	})
}

func init() {
	register(Experiment{
		Name: "primitives",
		Desc: "Theorems 2.2-2.6: Aggregate-and-Broadcast, Aggregation, tree setup, multicast",
		Run: func(r *Reporter, quick bool) error {
			sizes := []int{64, 256, 1024}
			if quick {
				sizes = []int{64, 256}
			}
			t1 := NewTable("E-AAB: Aggregate-and-Broadcast rounds vs n (setup excluded)",
				"n", "rounds", "log n", "rounds/log n")
			for _, n := range sizes {
				var setup, total int
				st, err := ncc.Run(cfg(n, 1), func(ctx *ncc.Context) {
					s := comm.NewSession(ctx)
					if ctx.ID() == 0 {
						setup = ctx.Round()
					}
					comm.AggregateAndBroadcast(s, uint64(1), true, comm.Sum)
				})
				if err != nil {
					return err
				}
				total = st.Rounds
				rds := total - setup
				t1.Add(n, rds, fmt.Sprintf("%.0f", logn(n)), float64(rds)/logn(n))
			}
			r.Table(t1)

			n := 128
			t2 := NewTable("E-AGG: Aggregation rounds vs global load L (n=128, one group per node)",
				"membersPerGroup", "L", "rounds", "L/n + log n", "ratio")
			for _, members := range []int{1, 4, 16} {
				st, err := measureAggregation(n, members)
				if err != nil {
					return err
				}
				L := n * members
				bound := float64(L)/float64(n) + logn(n)
				t2.Add(members, L, st.Rounds, fmt.Sprintf("%.0f", bound), float64(st.Rounds)/bound)
			}
			r.Table(t2)

			t3 := NewTable("E-TREE/E-MC: tree setup congestion and multicast rounds (n=128)",
				"membersPerGroup", "congestion", "O(L/n+log n)", "multicastRounds")
			for _, members := range []int{1, 4, 16} {
				cong, mcRounds, err := measureTreesMulticast(n, members)
				if err != nil {
					return err
				}
				bound := float64(members) + logn(n)
				t3.Add(members, cong, fmt.Sprintf("%.0f", bound), mcRounds)
			}
			r.Table(t3)
			r.Notef("shape check: all ratios O(1); congestion tracks L/n + log n.")
			return nil
		},
	})
}

// measureAggregation times one Aggregation with `members` memberships per
// node (group g owned by node g, membership assignments round-robin).
func measureAggregation(n, members int) (ncc.Stats, error) {
	return runSession(n, 13, func(s *comm.Session) {
		me := s.Ctx.ID()
		var items []comm.Agg[uint64]
		for j := 0; j < members; j++ {
			g := (me + j*37 + 1) % n
			items = append(items, comm.Agg[uint64]{Group: uint64(g), Target: g, Val: 1})
		}
		got := comm.Aggregate(s, items, comm.Sum, members)
		if len(got) == 0 {
			panic("aggregation produced no result")
		}
	})
}

func measureTreesMulticast(n, members int) (congestion int, mcRounds int, err error) {
	var mu sync.Mutex
	before := 0
	_, err = runSession(n, 17, func(s *comm.Session) {
		me := s.Ctx.ID()
		var items []comm.TreeItem
		for j := 0; j < members; j++ {
			items = append(items, comm.TreeItem{Group: uint64((me + j*13 + 1) % n), Origin: me})
		}
		trees := s.SetupTrees(items)
		c, _ := s.MaxAll(uint64(trees.Congestion()), true)
		if me == 0 {
			mu.Lock()
			congestion = int(c)
			before = s.Ctx.Round()
			mu.Unlock()
		}
		got := comm.Multicast(s, trees, true, uint64(me), uint64(me), comm.U64Wire{}, members)
		if len(got) != members {
			panic(fmt.Sprintf("node got %d multicasts, want %d", len(got), members))
		}
		if me == 0 {
			mu.Lock()
			mcRounds = s.Ctx.Round() - before
			mu.Unlock()
		}
	})
	return congestion, mcRounds, err
}

func runSession(n int, seed int64, fn func(*comm.Session)) (ncc.Stats, error) {
	return ncc.Run(cfg(n, seed), func(ctx *ncc.Context) {
		fn(comm.NewSession(ctx))
	})
}

func init() {
	register(Experiment{
		Name: "capacity",
		Desc: "Section 1 bounds: gossip Theta(n/log n); broadcast butterfly vs direct; capacity sweep",
		Run: func(r *Reporter, quick bool) error {
			sizes := []int{256, 1024, 2048}
			if quick {
				sizes = []int{256, 512}
			}
			t := NewTable("E-CAP: broadcast and gossip rounds (CapFactor=1)",
				"n", "gossip", "n/cap", "direct bcast", "butterfly bcast(+setup)")
			for _, n := range sizes {
				c := cfg(n, 3)
				c.CapFactor = 1
				stG, err := ncc.Run(c, func(ctx *ncc.Context) {
					baseline.Gossip(ctx, uint64(ctx.ID()))
				})
				if err != nil {
					return err
				}
				stD, err := ncc.Run(c, func(ctx *ncc.Context) {
					baseline.DirectBroadcast(ctx, 0, 5)
				})
				if err != nil {
					return err
				}
				stB, err := ncc.Run(c, func(ctx *ncc.Context) {
					baseline.ButterflyBroadcast(comm.NewSession(ctx), 0, 5)
				})
				if err != nil {
					return err
				}
				t.Add(n, stG.Rounds, (n+c.Cap()-1)/c.Cap(), stD.Rounds, stB.Rounds)
			}
			r.Table(t)

			n := 128
			if quick {
				n = 64
			}
			t2 := NewTable("E-CAP: BFS on a star vs capacity (naive flooding vs broadcast trees)",
				"capFactor", "naive rounds", "tree-based rounds")
			star := mustGraph("star", 0, param.Values{"n": float64(n)})
			for _, cf := range []int{1, 4, 16} {
				c := cfg(n, 5)
				c.CapFactor = cf
				stN, err := ncc.Run(c, func(ctx *ncc.Context) {
					baseline.NaiveBFS(comm.NewSession(ctx), star, 0)
				})
				if err != nil {
					return err
				}
				res, err := measure("bfs", c, star, nil)
				if err != nil {
					return err
				}
				t2.Add(cf, stN.Rounds, res.Stats.Rounds)
			}
			r.Table(t2)
			r.Notef("shape check: gossip ~ n/cap; butterfly flat in n; naive BFS improves with capacity, tree BFS already flat.")
			return nil
		},
	})
	register(Experiment{
		Name: "kmachine",
		Desc: "Appendix A / Corollary 2: k-machine simulation cost ~ n*T/k^2",
		Run: func(r *Reporter, quick bool) error {
			side := 8
			if quick {
				side = 6
			}
			g := mustGraph("grid", 0, param.Values{"rows": float64(side), "cols": float64(side)})
			n := g.N()
			ks := []int{2, 4, 8, 16}
			if quick {
				ks = []int{2, 4}
			}
			t := NewTable("E-KM: k-machine rounds for the NCC BFS trace",
				"k", "nccRounds", "kRounds", "n*T/k^2 + T", "ratio", "cross msgs")
			program := func(ctx *ncc.Context) {
				s := comm.NewSession(ctx)
				o := core.Orient(s, g, core.OrientParams{})
				trees, lhat := core.BroadcastTrees(s, g, o)
				core.BFS(s, g, trees, lhat, 0)
			}
			for _, k := range ks {
				res, _, err := kmachine.Simulate(k, 4, cfg(n, 5), program)
				if err != nil {
					return err
				}
				pred := float64(n)*float64(res.NCCRounds)/float64(k*k) + float64(res.NCCRounds)
				t.Add(k, res.NCCRounds, res.KRounds, fmt.Sprintf("%.0f", pred), float64(res.KRounds)/pred, res.CrossMessages)
			}
			r.Table(t)
			r.Notef("shape check: kRounds shrinks toward the T floor as k grows (~1/k^2 until saturated).")
			return nil
		},
	})
	register(Experiment{
		Name: "load",
		Desc: "Lemma 4.11 etc.: per-round receive load stays O(log n); zero drops",
		Run: func(r *Reporter, quick bool) error {
			n := 128
			if quick {
				n = 64
			}
			g := mustGraph("kforest", 21, param.Values{"n": float64(n), "k": 3})
			t := NewTable("E-LOAD: max per-round offered receive load", "algorithm", "maxRecvOffered", "cap", "offered/log n", "dropped")
			for i, name := range []string{"orientation", "mis", "mst"} {
				res, err := measure(name, cfg(n, int64(i+1)), g, nil)
				if err != nil {
					return err
				}
				t.Add(name, res.Stats.MaxRecvOffered, ncc.Config{N: n}.Cap(),
					float64(res.Stats.MaxRecvOffered)/logn(n), res.Stats.Dropped())
			}
			r.Table(t)
			r.Notef("shape check: offered/log n stays below the CapFactor (8); dropped == 0.")
			return nil
		},
	})
	register(Experiment{
		Name: "ablation",
		Desc: "design ablations: orientation-based vs naive tree setup; sketch MST vs gather; tree BFS vs flooding",
		Run: func(r *Reporter, quick bool) error {
			sizes := []int{256, 1024, 4096}
			if quick {
				sizes = []int{64, 256}
			}
			t := NewTable("A1: broadcast-tree setup on a star (rounds, incl. session+orientation)",
				"n", "naive (l=Delta)", "oriented (l=O(a))")
			for _, n := range sizes {
				star := mustGraph("star", 0, param.Values{"n": float64(n)})
				stN, err := runSession(n, 31, func(s *comm.Session) {
					baseline.NaiveTreeSetup(s, star)
				})
				if err != nil {
					return err
				}
				stO, err := runSession(n, 31, func(s *comm.Session) {
					o := core.Orient(s, star, core.OrientParams{})
					core.BroadcastTrees(s, star, o)
				})
				if err != nil {
					return err
				}
				t.Add(n, stN.Rounds, stO.Rounds)
			}
			r.Table(t)

			n := 128
			if quick {
				n = 64
			}
			t2 := NewTable("A2: sketch MST vs centralized gather (rounds)",
				"m", "distributed", "centralized")
			for _, mult := range []int{1, 4, 16} {
				m := mult * n
				st, err := MeasureMST(n, m, 51)
				if err != nil {
					return err
				}
				cst, err := measureCentralizedMST(n, m, 51)
				if err != nil {
					return err
				}
				t2.Add(m, st.Rounds, cst.Rounds)
			}
			r.Table(t2)

			t3 := NewTable("A3: BFS flooding vs broadcast trees (rounds)",
				"graph", "naive", "trees")
			for _, c := range []struct {
				name string
				g    *graph.Graph
			}{
				{"star", mustGraph("star", 0, param.Values{"n": float64(n)})},
				{"grid", mustGraph("grid", 0, param.Values{"rows": 8, "cols": float64(n / 8)})},
			} {
				stN, err := runSession(c.g.N(), 61, func(s *comm.Session) {
					baseline.NaiveBFS(s, c.g, 0)
				})
				if err != nil {
					return err
				}
				st, err := MeasureBFS(c.g, 0, 61)
				if err != nil {
					return err
				}
				t3.Add(c.name, stN.Rounds, st.Rounds)
			}
			r.Table(t3)
			r.Notef("shape check: the naive columns grow with Delta resp. m (linear slopes), the")
			r.Notef("primitive columns stay polylog-flat. At laptop-scale n the primitives' fixed")
			r.Notef("polylog costs still dominate in absolute terms; the crossovers extrapolate to")
			r.Notef("n in the 10^4-10^6 range.")
			return nil
		},
	})
}
