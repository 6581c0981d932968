package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{9, 0, false},
		{99, 0, false}, // p90 would have only 9 samples beyond it
		{100, 90, true},
		{999, 90, true}, // p99 would have only 9 samples beyond it
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty inputs must read 0")
	}
}

func TestHistPercentile(t *testing.T) {
	inf := math.Inf(1)
	h := &metrics.Float64Histogram{
		Buckets: []float64{0, 1, 2, 4, inf},
		Counts:  []uint64{5, 3, 1, 1},
	}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, // rank 1 lies in [0,1)
		{50, 1}, // rank 5, still the first bucket
		{60, 2}, // rank 6 lies in [1,2)
		{80, 2},
		{90, 4},  // rank 9 lies in [2,4)
		{100, 4}, // rank 10 lies in [4,+Inf): the finite lower edge
	} {
		if got := histPercentile(h, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if histPercentile(&metrics.Float64Histogram{Buckets: h.Buckets, Counts: make([]uint64, 4)}, 50) != 0 {
		t.Error("empty histogram must read 0")
	}

	before := &metrics.Float64Histogram{Buckets: h.Buckets, Counts: []uint64{4, 3, 0, 0}}
	d := histDelta(before, h)
	if want := []uint64{1, 0, 1, 1}; !equalCounts(d.Counts, want) {
		t.Errorf("delta counts = %v, want %v", d.Counts, want)
	}
	if got := histPercentile(d, 50); got != 4 {
		t.Errorf("p50 of delta = %v, want 4 (rank 2 lies in [2,4))", got)
	}
	sum := histAdd(histAdd(nil, d), d)
	if want := []uint64{2, 0, 2, 2}; !equalCounts(sum.Counts, want) {
		t.Errorf("summed counts = %v, want %v", sum.Counts, want)
	}
	if d.Counts[0] != 1 {
		t.Error("histAdd(nil, d) must not alias d")
	}
}

func equalCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParseProcStat(t *testing.T) {
	stat := []byte("cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 3 0\nintr 1 2 3\n")
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	// user+nice+system+idle+iowait+irq+softirq+steal; guest is inside user.
	if want := (cpuTicks{steal: 32, total: 1000}); got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	later, _ := parseProcStat([]byte("cpu  150 5 70 900 10 1 2 52 7 0\n"))
	if got := stealShare(got, later); math.Abs(got-20.0/190) > 1e-12 {
		t.Errorf("steal share = %v, want %v", got, 20.0/190)
	}
	if got := (usage{steal: 0.2}).unstolen(10); math.Abs(got-8) > 1e-12 {
		t.Errorf("10 s at 20%% steal = %v unstolen seconds, want 8", got)
	}
	if stealShare(later, got) != 0 {
		t.Error("a clock that did not advance must read 0")
	}
	// Kernels without guest columns still have the eight counters.
	if _, err := parseProcStat([]byte("cpu 1 2 3 4 5 6 7 8\n")); err != nil {
		t.Errorf("eight counters: %v", err)
	}
	for _, bad := range []string{"cpu 1 2 3\n", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // runs past its parent
		{ID: 5, Parent: 3, Name: "b.x", Start: 25, End: 35}, // grandchild
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %s self = %d, want %d", s.Name, s.Self, want[s.ID])
		}
	}
	by := selfByName(spans)
	if by["pass"] != 50e-9 || by["b"] != 20e-9 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestServeJobsDerivedFromSeed(t *testing.T) {
	a, err := serveJobs(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serveJobs(7, 100)
	c, _ := serveJobs(8, 100)
	templates, err := loadTemplates()
	if err != nil {
		t.Fatal(err)
	}
	for cl := range a {
		fresh, repeats := 0, 0
		mix := map[string]int{}
		for k, j := range a[cl] {
			if !bytes.Equal(j.body, b[cl][k].body) {
				t.Fatalf("client %d job %d differs between two derivations of one seed", cl, k)
			}
			if j.repeatOf < 0 {
				if c[cl][k].template != j.template {
					t.Errorf("client %d job %d: the fresh template mix depends on the seed", cl, k)
				}
				fresh++
				mix[j.template]++
				if k%4 == 3 {
					t.Errorf("client %d job %d should be a repeat", cl, k)
				}
				if bytes.Equal(j.body, c[cl][k].body) {
					t.Errorf("client %d job %d was not re-seeded", cl, k)
				}
				continue
			}
			repeats++
			src := a[cl][j.repeatOf]
			if j.repeatOf > k-2 || src.repeatOf >= 0 || !bytes.Equal(src.body, j.body) {
				t.Errorf("client %d job %d repeats job %d, which is not an earlier fresh twin", cl, k, j.repeatOf)
			}
		}
		if fresh != 50 || repeats != len(a[cl])/4 {
			t.Errorf("client %d: %d fresh, %d repeats of %d", cl, fresh, repeats, len(a[cl]))
		}
		for n := range templates {
			if mix[n] < fresh/len(serveCycle) {
				t.Errorf("client %d runs template %s only %d times", cl, n, mix[n])
			}
		}
	}
}

func TestDerive(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(0); s < 50; s++ {
		for p := uint64(0); p < 20; p++ {
			v := derive(s, 1, p)
			if v <= 0 || v != derive(s, 1, p) {
				t.Fatalf("derive(%d, 1, %d) = %d", s, p, v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 1000 {
		t.Errorf("%d distinct seeds of 1000", len(seen))
	}
}

func TestCheckManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"workloads": [{"name": "paper", "why": "x"}],
		"end_to_end": [{"name": "run_s", "unit": "s"}, {"name": "rounds", "unit": "rounds"}],
		"per_layer": [{"name": "ncc.round_us", "unit": "us"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := func(traced bool, ms map[string]metric) *report {
		r := &report{traced: traced, e2e: map[string]metric{}, layers: map[string]metric{}}
		if traced {
			r.layers = ms
		} else {
			r.e2e = ms
		}
		return r
	}
	full := map[string]metric{"run_s": {1, "s"}, "rounds": {2, "rounds"}}
	for _, c := range []struct {
		name     string
		r        *report
		workload string
		ok       bool
	}{
		{"every end-to-end metric", rep(false, full), "paper", true},
		{"every per-layer metric", rep(true, map[string]metric{"ncc.round_us": {3, "us"}}), "paper", true},
		{"missing metric", rep(false, map[string]metric{"run_s": {1, "s"}}), "paper", false},
		{"extra metric", rep(false, map[string]metric{"run_s": {1, "s"}, "rounds": {2, "rounds"}, "job_s": {1, "s"}}), "paper", false},
		{"wrong unit", rep(false, map[string]metric{"run_s": {1, "ms"}, "rounds": {2, "rounds"}}), "paper", false},
		{"end-to-end set on a traced run", rep(true, full), "paper", false},
		{"unlisted workload", rep(false, map[string]metric{"job_s": {1, "s"}}), "serve", true},
	} {
		err := c.r.checkManifest(path, c.workload)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
	if err := rep(false, nil).checkManifest(filepath.Join(t.TempDir(), "none.json"), "paper"); err != nil {
		t.Errorf("no manifest: %v", err)
	}
}
