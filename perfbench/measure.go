package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file holds the benchmark's measurement arithmetic: process CPU time,
// runtime/metrics deltas, /proc readings and the percentile rules. Every
// function that turns raw readings into a reported number is pure and
// covered by measure_test.go.

// cpuSeconds is the process's user+sys CPU time (getrusage RUSAGE_SELF).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Runtime metrics read around every measured pass.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

// snap is one reading of every clock and counter a pass is measured with.
type snap struct {
	wall     time.Time
	ticks    cpuTicks
	cpu      float64
	gcCPU    float64
	idleCPU  float64
	totalCPU float64
	gcCycles uint64
	allocs   uint64
	sched    *metrics.Float64Histogram
}

func readSnap() snap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := snap{wall: time.Now(), ticks: readProcStat(), cpu: cpuSeconds()}
	s.gcCPU = samples[0].Value.Float64()
	s.idleCPU = samples[1].Value.Float64()
	s.totalCPU = samples[2].Value.Float64()
	s.gcCycles = samples[3].Value.Uint64()
	s.allocs = samples[4].Value.Uint64()
	s.sched = samples[5].Value.Float64Histogram()
	return s
}

// startPass collects the previous pass's garbage, so every pass starts from
// the same heap, and takes the pass's opening snap.
func startPass() snap {
	runtime.GC()
	return readSnap()
}

// usage is what happened between two snaps.
type usage struct {
	wall, cpu          float64 // seconds
	steal              float64 // host steal share over the interval
	allocBytes         uint64
	gcCycles           uint64
	gcCPU, idle, rtCPU float64 // runtime/metrics CPU classes, seconds
	sched              *metrics.Float64Histogram
}

func since(a snap) usage {
	b := readSnap()
	u := usage{
		wall:       b.wall.Sub(a.wall).Seconds(),
		steal:      stealShare(a.ticks, b.ticks),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocs - a.allocs,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPU:      b.gcCPU - a.gcCPU,
		idle:       b.idleCPU - a.idleCPU,
		rtCPU:      b.totalCPU - a.totalCPU,
		sched:      histDelta(a.sched, b.sched),
	}
	fmt.Printf("pass wall %.4fs cpu %.4fs steal %.4f alloc %.1fMiB gc %d\n", u.wall, u.cpu, u.steal, float64(u.allocBytes)/(1<<20), u.gcCycles)
	return u
}

// unstolen scales a wall-clock duration measured over u to the CPU time the
// host actually gave this machine: d·(1 − steal share). On a shared host the
// hypervisor's steal varies from minute to minute and stalls every round
// barrier it hits, so raw wall times of identical runs differ by a third;
// the scaled times differ by about the same few percent as CPU times.
func (u usage) unstolen(d float64) float64 { return d * (1 - u.steal) }

// runtimeShares pools the runtime/metrics readings of several passes into the
// runtime.* per-layer metrics.
func runtimeShares(us []usage, rep *report) {
	var gc, idle, total float64
	var cycles []float64
	var hist *metrics.Float64Histogram
	for _, u := range us {
		gc += u.gcCPU
		idle += u.idle
		total += u.rtCPU
		cycles = append(cycles, float64(u.gcCycles))
		hist = histAdd(hist, u.sched)
	}
	if total > 0 {
		rep.layer("runtime.gc_cpu_share", gc/total, "ratio")
		rep.layer("runtime.idle_cpu_share", idle/total, "ratio")
	}
	rep.layer("runtime.gc_cycles", median(cycles), "count")
	rep.layer("runtime.sched_latency_p50_us", histPercentile(hist, 50)*1e6, "us")
	rep.layer("runtime.sched_latency_p99_us", histPercentile(hist, 99)*1e6, "us")
}

// histDelta returns b − a for two readings of the same cumulative histogram.
func histDelta(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	out := &metrics.Float64Histogram{Buckets: b.Buckets, Counts: slices.Clone(b.Counts)}
	if a != nil {
		for i := range out.Counts {
			out.Counts[i] -= a.Counts[i]
		}
	}
	return out
}

// histAdd sums two histograms with identical buckets (a may be nil).
func histAdd(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	if a == nil {
		return &metrics.Float64Histogram{Buckets: b.Buckets, Counts: slices.Clone(b.Counts)}
	}
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	return a
}

// histPercentile returns the p-th percentile (0 < p ≤ 100) of a
// runtime/metrics histogram by the nearest-rank rule: the upper edge of the
// bucket holding the ⌈p/100·total⌉-th sample. Counts[i] covers
// [Buckets[i], Buckets[i+1]); an infinite upper edge falls back to the
// bucket's finite lower edge. An empty histogram reads 0.
func histPercentile(h *metrics.Float64Histogram, p float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(max(nearestRank(p, int(total)), 1))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100);
// xs need not be sorted. An empty slice reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(max(nearestRank(p, len(s)), 1), len(s))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// beyond counts the samples of n that lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - min(max(nearestRank(p, n), 1), n)
}

// nearestRank is ⌈p/100·n⌉, computed so that float rounding cannot push an
// exact product (p = 99.9, n = 10000) up to the next rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile is the reporting rule for timings: the highest of the
// standard tail percentiles that still has at least ten samples beyond it,
// or ok = false when even p90 does not (fewer than 100 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	steal, total uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat: user nice system
// idle iowait irq softirq steal [guest guest_nice]. Guest time is already
// included in user and nice, so the total sums the first eight fields only.
func parseProcStat(data []byte) (cpuTicks, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("/proc/stat cpu line has %d fields, need 8 counters", len(f)-1)
		}
		var t cpuTicks
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %v", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

func readProcStat() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	t, _ := parseProcStat(data)
	return t
}

// stealShare is the share of all host CPU ticks between a and b that the
// hypervisor stole.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostFingerprint names the machine a run was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu_model":  model,
		"go":         runtime.Version(),
	}
}
