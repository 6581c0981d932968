// Command perfbench is the repository's benchmark: one process that drives
// the system through its public Go entry points and prints one JSON result
// line.
//
//	go run . --workload paper|dense|serve --seed N --seconds S --trace 0|1
//
// (run.sh builds it from the checkout and passes the flags through). With
// --trace 0 it reports the end-to-end metrics from untraced passes; with
// --trace 1 it adds traced passes and reports the per-layer metrics instead,
// writing the spans and probe samples to .bench_build/traces/. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and output checks. Only the set chosen by
// --trace is printed.
type report struct {
	traced    bool
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
}

func (r *report) endToEnd(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string)    { r.layers[name] = metric{v, unit} }

// detail prints a figure that is not a reported metric to stderr.
func detail(name string, v float64, unit string) {
	fmt.Fprintf(os.Stderr, "detail %-27s %14.6g %s\n", name, v, unit)
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// checkf returns an error when ok is false.
func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

var workloads = map[string]func(o options, rep *report) error{
	"paper": runPaper,
	"dense": runDense,
	"serve": runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, dense or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.Parse()
	o.traced = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|dense|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep := &report{traced: o.traced, e2e: map[string]metric{}, layers: map[string]metric{}}
	host := hostFingerprint()
	fmt.Printf("host %s\n", mustJSON(host))
	t0 := readProcStat()
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	steal := stealShare(t0, readProcStat())
	rep.layer("host.steal_share", steal, "ratio")
	fmt.Printf("host.steal_share %.4f gomaxprocs %d\n", steal, runtime.GOMAXPROCS(0))
	if err := rep.checkManifest("BENCHMARK.json", o.workload); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// printed is the metric set the result line carries.
func (r *report) printed() map[string]metric {
	if r.traced {
		return r.layers
	}
	return r.e2e
}

// checkManifest fails unless the result line would carry exactly the
// metrics, with their units, that the manifest lists for a workload it
// names: its end_to_end metrics untraced, its per_layer metrics traced. A
// workload the manifest does not name is not checked.
func (r *report) checkManifest(path, workload string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var m struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if !slices.ContainsFunc(m.Workloads, func(e entry) bool { return e.Name == workload }) {
		return nil
	}
	want := m.EndToEnd
	if r.traced {
		want = m.PerLayer
	}
	got := r.printed()
	var bad []string
	for _, e := range want {
		if g, ok := got[e.Name]; !ok {
			bad = append(bad, e.Name+" missing")
		} else if g.Unit != e.Unit {
			bad = append(bad, fmt.Sprintf("%s in %s, listed in %s", e.Name, g.Unit, e.Unit))
		}
	}
	if len(got) != len(want) {
		bad = append(bad, fmt.Sprintf("%d metrics, %s lists %d", len(got), path, len(want)))
	}
	if len(bad) > 0 {
		return fmt.Errorf("result does not match %s: %s", path, strings.Join(bad, "; "))
	}
	return nil
}

func (r *report) print(w *os.File) error {
	ms := r.printed()
	names := make([]string, 0, len(ms))
	for n, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms}
	_, err := fmt.Fprintln(w, mustJSON(out))
	return err
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// derive maps the workload seed and a purpose to a positive 31-bit seed
// (splitmix64 over the inputs), so every input of a workload follows from
// --seed alone.
func derive(seed int64, parts ...uint64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix(x ^ splitmix(p+0x632be59bd9b4e019))
	}
	return int64(x>>33) | 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// passesFor runs pass until seconds have elapsed, at least minPasses times.
func passesFor(seconds float64, minPasses int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start).Seconds() >= seconds {
			return nil
		}
		if err := pass(i); err != nil {
			return err
		}
	}
}
