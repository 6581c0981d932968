// Package bench is the experiment harness: it regenerates every entry of the
// paper's Table 1 and every theorem-level bound as a measured table (see
// README.md's experiment index). Algorithms and input graphs are resolved
// through the registries (internal/algo, internal/graph); tables render as
// aligned text or, through a JSON reporter, as machine-readable records for
// the benchmark trajectory artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Workers is the round-engine worker count applied to every experiment's
// simulation run (0 = the engine default, GOMAXPROCS). It is set by
// cmd/nccbench's -workers flag; changing it never changes measured rounds,
// messages, or loads — the engine is deterministic per seed — only the
// wall-clock time of the sweep.
var Workers int

// Table accumulates aligned rows for printing.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	var b strings.Builder
	for i, h := range t.Headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
	for _, r := range t.Rows {
		b.Reset()
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// Reporter is where experiments send their output. In text mode it renders
// aligned tables and prose notes; in JSON mode it emits one self-describing
// JSON line per experiment header, table and note, so a quick sweep
// serializes into a diffable benchmark-trajectory artifact.
type Reporter struct {
	w    io.Writer
	json bool
	exp  string
}

// NewReporter creates a reporter writing to w, in JSON mode if jsonMode.
func NewReporter(w io.Writer, jsonMode bool) *Reporter {
	return &Reporter{w: w, json: jsonMode}
}

// jsonLine marshals v onto one line. Table rows and titles never fail to
// marshal; a failure would be a programming error, so it panics.
func (r *Reporter) jsonLine(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal report line: %v", err))
	}
	fmt.Fprintln(r.w, string(line))
}

// Begin announces the start of an experiment.
func (r *Reporter) Begin(e Experiment) {
	r.exp = e.Name
	if r.json {
		r.jsonLine(struct {
			Experiment string `json:"experiment"`
			Desc       string `json:"desc"`
		}{e.Name, e.Desc})
		return
	}
	fmt.Fprintf(r.w, "\n### experiment %s — %s\n", e.Name, e.Desc)
}

// Table reports one measured table.
func (r *Reporter) Table(t *Table) {
	if r.json {
		r.jsonLine(struct {
			Experiment string     `json:"experiment"`
			Table      string     `json:"table"`
			Headers    []string   `json:"headers"`
			Rows       [][]string `json:"rows"`
		}{r.exp, t.Title, t.Headers, t.Rows})
		return
	}
	t.Print(r.w)
}

// Perf reports one simulator-performance record for the experiment that just
// ran: wall time, heap allocations, and payload throughput (MB/s of uint64
// payload words moved through the engine, metered via WordsMoved).
// "Op" is one full experiment run, so successive BENCH_*.json snapshots can
// track allocation and throughput trends of the primitive layer, not just
// the model-level rounds/messages tables. In text mode it prints as a
// one-line footer; in JSON mode it is a self-describing line alongside the
// experiment's tables.
func (r *Reporter) Perf(nsPerOp, allocsPerOp, mbPerS float64) {
	if r.json {
		r.jsonLine(struct {
			Experiment  string  `json:"experiment"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
			MBPerS      float64 `json:"mb_per_s"`
		}{r.exp, nsPerOp, allocsPerOp, mbPerS})
		return
	}
	fmt.Fprintf(r.w, "perf: %.0f ns/op, %.0f allocs/op, %.2f MB/s\n", nsPerOp, allocsPerOp, mbPerS)
}

// Notef reports a prose line (shape checks, caveats).
func (r *Reporter) Notef(format string, args ...any) {
	if r.json {
		r.jsonLine(struct {
			Experiment string `json:"experiment"`
			Note       string `json:"note"`
		}{r.exp, fmt.Sprintf(format, args...)})
		return
	}
	fmt.Fprintf(r.w, format+"\n", args...)
}

// Experiment is a named, runnable experiment. Quick mode shrinks the sweeps
// so the full suite stays test-friendly.
type Experiment struct {
	Name string
	Desc string
	Run  func(r *Reporter, quick bool) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.Name] = e
}

// Get returns a registered experiment.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names lists registered experiments in order.
func Names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered experiment, ordered by name.
func All() []Experiment {
	var out []Experiment
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
