// Command nccbench regenerates the paper's evaluation: every Table 1 row and
// every theorem-level bound as a measured table (see README.md's experiment
// index). With -json, every experiment header, table and note is emitted as
// one self-describing JSON line, producing a diffable benchmark-trajectory
// artifact (CI uploads the quick sweep on every push).
//
// Usage:
//
//	nccbench -list
//	nccbench -exp mst
//	nccbench -exp all [-quick] [-workers 4] [-json]
//	nccbench -exp gossip -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ncc/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the selected
// experiments, and returns a process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment name (see -list) or 'all'")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast run")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonOut := fs.Bool("json", false, "emit experiment output as JSON lines")
	workers := fs.Int("workers", 0, "round-engine delivery workers (0 = GOMAXPROCS); does not change results")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file` after the experiments finish")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	bench.Workers = *workers

	// Profiling hooks, so hot-path regressions are diagnosable from the CLI
	// without editing code: go tool pprof <binary> cpu.out
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // record the settled heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.Name, e.Desc)
		}
		return 0
	}
	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *exp)
			return 2
		}
		selected = []bench.Experiment{e}
	}
	r := bench.NewReporter(stdout, *jsonOut)
	for _, e := range selected {
		r.Begin(e)
		// Meter each experiment: wall time, heap allocations and payload
		// words moved through the engine, so the trajectory artifact
		// records allocation and throughput trends, not just ns/op.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		words0 := bench.WordsMoved()
		start := time.Now()
		var err error
		// Label the experiment's CPU samples so a -cpuprofile over -exp all
		// segments per experiment: go tool pprof -tagfocus exp=mst cpu.out
		pprof.Do(context.Background(), pprof.Labels("exp", e.Name), func(context.Context) {
			err = e.Run(r, *quick)
		})
		elapsed := time.Since(start)
		words1 := bench.WordsMoved()
		runtime.ReadMemStats(&m1)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", e.Name, err)
			return 1
		}
		mbPerS := 0.0
		if s := elapsed.Seconds(); s > 0 {
			mbPerS = float64(words1-words0) * 8 / 1e6 / s
		}
		r.Perf(float64(elapsed.Nanoseconds()), float64(m1.Mallocs-m0.Mallocs), mbPerS)
	}
	return 0
}
