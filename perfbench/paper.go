package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ncc/internal/algo"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/param"
	"ncc/internal/scenario"
)

// paperUnits are the six paper algorithms (Thm 3.2, 5.2–5.5) at the sizes one
// pass runs them, all on gnm graphs with m = 3n: MST at n=64 (tens of
// thousands of rounds per instance) and the rest at n=1024 (hundreds to a few
// thousand rounds). MST's round count at n=64 spreads by a quarter of its
// median (interquartile range) from one seed to the next, as the number of
// Boruvka phases is random, so a run takes it on 24 derived seeds, split
// between even and odd passes; their total moves about a fifth as much from
// one workload seed to the next. The other units run in every pass.
var paperUnits = []struct {
	algo      string
	n         int
	instances int
}{
	{"mst", 64, 24},
	{"bfs", 1024, 1},
	{"mis", 1024, 1},
	{"matching", 1024, 1},
	{"coloring", 1024, 1},
	{"orientation", 1024, 1},
}

// setupReps is how often a run repeats its set-up at a time. paper and dense
// set up at the start and again before every untraced pass, and setup_s is
// the median of all of them, so one slow spell of the host does not move it.
const setupReps = 15

// paperScenarios derives the run's scenarios from the workload seed. half[i]
// is the parity of the passes that run scenario i, or -1 for every pass.
func paperScenarios(seed int64) (scs []scenario.Scenario, half []int, err error) {
	for ui, u := range paperUnits {
		for k := range u.instances {
			i := uint64(ui<<16 | k)
			sc := scenario.Scenario{
				Name: fmt.Sprintf("paper-%s-%d", u.algo, k),
				Algo: u.algo,
				Graph: graph.Spec{
					Family: "gnm",
					Params: param.Values{"n": float64(u.n), "m": float64(3 * u.n)},
					Seed:   derive(seed, 1, i),
				},
				Model: scenario.Model{Seed: derive(seed, 2, i)},
			}
			if err := sc.Validate(); err != nil {
				return nil, nil, err
			}
			scs = append(scs, sc)
			if u.instances > 1 {
				half = append(half, k%2)
			} else {
				half = append(half, -1)
			}
		}
	}
	return scs, half, nil
}

// counts are a run's simulated totals, which must repeat exactly.
type counts struct{ rounds, messages, words int64 }

func countsOf(st ncc.Stats) counts { return counts{int64(st.Rounds), st.Messages, st.Words} }

func (c *counts) add(o counts) {
	c.rounds += o.rounds
	c.messages += o.messages
	c.words += o.words
}

// checkRecord is the per-unit output check shared by every pass: the run
// succeeded, verified, and repeated the counts of the first pass exactly.
func checkRecord(unit string, err error, verified bool, verifyErr string, got counts, want *counts) error {
	if err != nil {
		return fmt.Errorf("%s: %v", unit, err)
	}
	if !verified {
		return fmt.Errorf("%s: not verified: %s", unit, verifyErr)
	}
	if *want == (counts{}) {
		*want = got
	}
	return checkf(got == *want, "%s: counts %+v differ from the first pass's %+v", unit, got, *want)
}

func runPaper(o options, rep *report) error {
	scs, half, err := paperScenarios(o.seed)
	if err != nil {
		return err
	}
	inPass := func(i, pass int) bool { return half[i] < 0 || half[i] == pass%2 }
	var setups []float64
	setUp := func() error {
		for range setupReps {
			start := time.Now()
			for _, sc := range scs {
				if _, err := graph.Build(sc.Graph); err != nil {
					return err
				}
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}

	// Warm up the runtime (goroutine stacks, heap size) on the cheapest
	// n=1024 unit before anything is timed. Every pass must repeat its counts.
	want := make([]counts, len(scs))
	last := scs[len(scs)-1]
	rec, err := scenario.RunOneWith(last, scenario.RunOpts{})
	if err == nil && rec.Error != "" {
		err = errors.New(rec.Error)
	}
	rep.op(checkRecord(last.Name+" warm-up", err, rec.Verified, rec.VerifyErr, countsOf(rec.Stats), &want[len(scs)-1]))
	var untraced []usage
	var totals []counts
	// untracedPass runs the pass's units through scenario.RunOneWith, the
	// path nccrun and the service take.
	untracedPass := func(pass int) error {
		if err := setUp(); err != nil {
			return err
		}
		var total counts
		s := startPass()
		for i, sc := range scs {
			if !inPass(i, pass) {
				continue
			}
			rec, err := scenario.RunOneWith(sc, scenario.RunOpts{})
			if err == nil && rec.Error != "" {
				err = errors.New(rec.Error)
			}
			c := countsOf(rec.Stats)
			rep.op(checkRecord(sc.Name, err, rec.Verified, rec.VerifyErr, c, &want[i]))
			total.add(c)
		}
		untraced = append(untraced, since(s))
		totals = append(totals, total)
		return nil
	}

	if !o.traced {
		// Passes come in pairs, so every MST instance runs equally often.
		err := passesFor(o.seconds, 1, func(int) error {
			return errors.Join(untracedPass(0), untracedPass(1))
		})
		if err != nil {
			return err
		}
		reportPasses(rep, untraced, totals, setups)
		return nil
	}

	// Traced run: alternate untraced and traced passes, so the tracing
	// overhead compares passes measured under the same host conditions.
	tr := newTracer()
	var tracedWalls, builds, spawns, posts []float64
	execs := map[string][]float64{} // per algorithm, summed over its instances in a pass
	rounds := map[string]int{}
	err = passesFor(o.seconds, 1, func(int) error {
		if err := untracedPass(0); err != nil {
			return err
		}
		startPass()
		p := tr.begin("paper.pass", 0)
		var build, spawn, post float64
		exec := map[string]float64{}
		for i, sc := range scs {
			if !inPass(i, 0) {
				continue
			}
			unit := tr.begin("unit."+sc.Algo, p)
			b := tr.begin("graph.Build", unit)
			g, err := graph.Build(sc.Graph)
			build += tr.end(b)
			if err != nil {
				return err
			}
			d, _ := algo.Get(sc.Algo)
			ex := tr.begin("algo.Execute", unit)
			eng := tr.probe(g.N(), ex)
			cfg := ncc.Config{N: g.N(), Seed: sc.Model.Seed, Strict: true, Probe: eng.Probe}
			res, err := d.Execute(cfg, g, sc.Params)
			exec[sc.Algo] += tr.end(ex)
			tr.end(unit)
			eng.finish()
			if err != nil {
				rep.op(fmt.Errorf("%s traced: %v", sc.Name, err))
				continue
			}
			rep.op(checkRecord(sc.Name+" traced", nil, res.Verified, res.VerifyErr, countsOf(res.Stats), &want[i]))
			rounds[sc.Algo] += res.Stats.Rounds
			if eng.count > 0 {
				exStart, exEnd := tr.spans[ex-1].Start, tr.spans[ex-1].End
				spawn += float64(eng.firstAt()-exStart) / 1e9
				post += float64(exEnd-eng.lastAt()) / 1e9
			}
		}
		for a, t := range exec {
			execs[a] = append(execs[a], t)
		}
		tracedWalls = append(tracedWalls, tr.end(p))
		builds = append(builds, build)
		spawns = append(spawns, spawn)
		posts = append(posts, post)
		return nil
	})
	if err != nil {
		return err
	}

	collectives(o.seed, paperCollN, paperCollReps, tr, rep)
	// The per-algorithm and graph figures have no counterpart on dense, so
	// they are details (stderr and the trace file), not reported metrics.
	for a, t := range execs {
		detail("core."+a+".run_s", median(t), "s")
		detail("core."+a+".rounds", float64(rounds[a]/len(t)), "rounds")
	}
	detail("graph.build_s", median(builds), "s")
	rep.layer("exec.spawn_s", median(spawns), "s")
	rep.layer("exec.post_s", median(posts), "s")
	rep.layer("obs.trace_overhead", median(tracedWalls)/median(walls(untraced))-1, "ratio")
	rep.layer("host.wall_run_s", median(walls(untraced)), "s")
	runtimeShares(untraced, rep)
	tr.nccLayer(rep)
	return writeTrace(tr, o)
}

// reportPasses turns a run's untraced passes, and the simulated totals of
// each, into the end-to-end metrics; the totals are reported as their mean.
func reportPasses(rep *report, passes []usage, totals []counts, setups []float64) {
	var total counts
	for _, c := range totals {
		total.add(c)
	}
	perPass := func(x int64) float64 { return float64(x) / float64(len(totals)) }
	var runs, cpus, allocs []float64
	for _, u := range passes {
		runs = append(runs, u.unstolen(u.wall))
		cpus = append(cpus, u.cpu)
		allocs = append(allocs, float64(u.allocBytes)/(1<<20))
	}
	rep.endToEnd("run_s", median(runs), "s")
	rep.endToEnd("cpu_s", median(cpus), "s")
	rep.endToEnd("setup_s", median(setups), "s")
	rep.endToEnd("rounds", perPass(total.rounds), "rounds")
	rep.endToEnd("messages", perPass(total.messages), "msgs")
	rep.endToEnd("words", perPass(total.words), "words")
	rep.endToEnd("alloc_mb", median(allocs), "MiB")
	rep.endToEnd("peak_rss_mb", peakRSSMB(), "MiB")
}

func walls(us []usage) []float64 {
	var out []float64
	for _, u := range us {
		out = append(out, u.wall)
	}
	return out
}

func writeTrace(tr *tracer, o options) error {
	path, err := tr.write(".bench_build/traces", fmt.Sprintf("trace-%s-seed%d.ndjson", o.workload, o.seed), hostFingerprint())
	if err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans, %d probe samples)\n", path, len(tr.spans), len(tr.rounds))
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("self_s %s %.6f\n", name, self[name])
	}
	return nil
}
