package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ncc/internal/ncc"
)

// The traced pass keeps everything in memory and writes it out once, when the
// benchmark ends: spans recorded by this benchmark's own code around each
// call into a layer (graph.Build, Execute, the collectives, HTTP requests),
// plus the engine probe's per-round samples and shard timings.

// span is one timed call into a layer. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// roundRec is one probe call: when it happened and what the engine reported.
type roundRec struct {
	Run    int               `json:"run"`
	At     int64             `json:"at_ns"`
	Sample ncc.RoundSample   `json:"sample"`
	Timing []ncc.ShardTiming `json:"timing"`
	N      int               `json:"-"`
}

// tracer records spans and probe samples; a nil *tracer records nothing, so
// untraced passes call the same code with tracing off.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	rounds []roundRec
	runs   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span under parent and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	return float64(s.End-s.Start) / 1e9
}

// add records an already-measured span.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans)
}

// engineRun captures the probe stream of one engine run.
type engineRun struct {
	t      *tracer
	run    int
	n      int
	first  int // index into t.rounds of this run's first probe call
	count  int
	parent int
}

// probe starts recording one engine run of n nodes whose spans hang under
// parent; its Probe method is the ncc.RoundProbe to attach.
func (t *tracer) probe(n, parent int) *engineRun {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return &engineRun{t: t, run: t.runs, n: n, first: len(t.rounds), parent: parent}
}

// Probe records one round. The engine calls it on its coordinator goroutine
// while every node is parked, and reuses the timing slice, so it is copied.
func (e *engineRun) Probe(s ncc.RoundSample, timing []ncc.ShardTiming) {
	at := e.t.now()
	e.t.mu.Lock()
	e.t.rounds = append(e.t.rounds, roundRec{Run: e.run, At: at, Sample: s, Timing: slices.Clone(timing), N: e.n})
	e.t.mu.Unlock()
	e.count++
}

// firstAt and lastAt are the times of the run's first and last probe calls.
func (e *engineRun) firstAt() int64 { return e.t.rounds[e.first].At }
func (e *engineRun) lastAt() int64  { return e.t.rounds[e.first+e.count-1].At }

// finish records the engine's round loop (first → last probe call) as a span.
func (e *engineRun) finish() {
	if e.count > 0 {
		e.t.add("ncc.rounds", e.parent, e.firstAt(), e.lastAt())
	}
}

// selfTimes sets every span's Self: its duration minus the part of its
// interval covered by the union of its children's intervals.
func selfTimes(spans []span) {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var tot int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			tot += b - a
			cur = b
		}
	}
	return tot
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.Self) / 1e9
	}
	return out
}

// nccLayer derives the ncc.* per-layer metrics from every recorded engine
// run. Timing figures use rounds 1.. of each run: round k's work lies between
// probe calls k−1 and k (the gap), while round 0 also holds the spawn.
func (t *tracer) nccLayer(rep *report) {
	var gaps []float64
	var gapSum, live, liveTimed, active, msgs, delivered, quiet, rounds float64
	var sendSum, recvSum, critSum, barrierSum, shardGapSum, timedMsgs float64
	for i, r := range t.rounds {
		s := r.Sample
		l := float64(r.N - s.Finished - s.Down)
		live += l
		active += float64(s.Active)
		msgs += float64(s.Messages)
		delivered += float64(s.Delivered)
		rounds++
		if s.Messages == 0 {
			quiet++
		}
		if i == 0 || t.rounds[i-1].Run != r.Run {
			continue
		}
		gap := float64(r.At - t.rounds[i-1].At)
		gaps = append(gaps, gap)
		gapSum += gap
		liveTimed += l
		timedMsgs += float64(s.Messages)
		var maxSend, maxRecv float64
		for _, st := range r.Timing {
			sendSum += float64(st.SendNanos)
			recvSum += float64(st.RecvNanos)
			barrierSum += float64(st.BarrierWaitNanos)
			maxSend = max(maxSend, float64(st.SendNanos))
			maxRecv = max(maxRecv, float64(st.RecvNanos))
		}
		critSum += maxSend + maxRecv
		shardGapSum += gap * float64(len(r.Timing))
	}
	if gapSum == 0 || msgs == 0 {
		return
	}
	rep.layer("ncc.node_round_ns", gapSum/liveTimed, "ns")
	rep.layer("ncc.round_us", median(gaps)/1e3, "us")
	rep.layer("ncc.program_wake_share", 1-critSum/gapSum, "ratio")
	rep.layer("ncc.barrier_wait_share", barrierSum/shardGapSum, "ratio")
	rep.layer("ncc.send_ns_per_msg", sendSum/timedMsgs, "ns")
	rep.layer("ncc.recv_ns_per_msg", recvSum/timedMsgs, "ns")
	rep.layer("ncc.delivery_share", (sendSum+recvSum)/shardGapSum, "ratio")
	rep.layer("ncc.active_frac", active/live, "ratio")
	rep.layer("ncc.quiet_round_frac", quiet/rounds, "ratio")
	rep.layer("ncc.msgs_per_node_round", msgs/live, "msgs")
	rep.layer("ncc.delivered_ratio", delivered/msgs, "ratio")
}

// write stores the trace as NDJSON under dir: the host line, every span with
// its self time, a per-name self-time summary, and every probe call.
func (t *tracer) write(dir, name string, host map[string]any) (string, error) {
	selfTimes(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"kind": "host", "host": host})
	for _, s := range t.spans {
		enc.Encode(map[string]any{"kind": "span", "span": s})
	}
	enc.Encode(map[string]any{"kind": "self_s", "self_s": selfByName(t.spans)})
	for _, r := range t.rounds {
		enc.Encode(map[string]any{"kind": "round", "round": r})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
