package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"ncc/internal/scenario"
	"ncc/internal/service"
)

// The serve workload drives nccd's HTTP API in process: service.New with its
// defaults behind httptest, loaded by a closed loop of serveClients clients.
// Each client, like nccrun -remote -trace, submits a job, tails its record
// stream to EOF, fetches its trace, then submits the next. Jobs are re-seeded
// copies of the scenario templates kept beside this file; every fourth
// submission of a client repeats one of its earlier jobs exactly, so the
// result cache's read path runs beside the execute path.

//go:embed templates/*.json
var templateFS embed.FS

const serveClients = 2

// serveJob is one submission.
type serveJob struct {
	template string
	body     []byte
	faulted  bool
	repeatOf int // index of the repeated job in the client's list, or -1
}

// jobResult is what one submission observed, timed from the submit call.
type jobResult struct {
	err                      error
	cached                   bool
	submit, first, last, eof time.Duration
	traceFetch               time.Duration
	records, trace           []byte
}

// serveCycle is the order in which a client takes fresh jobs from the
// templates. Per-job engine work should stay small next to the service's own
// work, so the cheap templates come round more often than the MST ones
// (mst-adversarial alone costs as much as the rest of a cycle); every
// template appears at least once. The second client starts half a cycle
// later, and both halves open with two cheap slots, so the clients carry
// equal work whatever the number of jobs in a run.
var serveCycle = []string{
	"orientation-pa", "coloring-torus", "mst-adversarial", "bfs-faulty",
	"mis-sweep", "bfs-crash-recover", "coloring-churn", "orientation-pa",
	"mst-faulty", "coloring-torus", "bfs-faulty", "mis-sweep",
	"bfs-crash-recover", "orientation-pa", "coloring-churn", "bfs-faulty",
	"coloring-torus", "mst-faulty", "bfs-crash-recover", "mis-sweep",
	"orientation-pa", "bfs-faulty", "coloring-torus", "bfs-crash-recover",
}

// loadTemplates returns the embedded templates by name, checking that the
// cycle covers exactly them.
func loadTemplates() (map[string][]byte, error) {
	ents, err := templateFS.ReadDir("templates")
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := templateFS.ReadFile(path.Join("templates", e.Name()))
		if err != nil {
			return nil, err
		}
		out[strings.TrimSuffix(e.Name(), ".json")] = b
	}
	inCycle := map[string]bool{}
	for _, n := range serveCycle {
		if out[n] == nil {
			return nil, fmt.Errorf("serve cycle names %s, which has no template", n)
		}
		inCycle[n] = true
	}
	if len(inCycle) != len(out) {
		return nil, fmt.Errorf("serve cycle covers %d of %d templates", len(inCycle), len(out))
	}
	return out, nil
}

// serveJobs derives every client's submission list from the workload seed.
// Client c's j-th fresh job is serveCycle[(j + 12c) mod 24], so the template
// mix does not depend on the seed; the seed only re-seeds the graph, the
// model and any sweep seeds. Every fourth submission repeats one of the
// client's fresh jobs submitted at least two places earlier — already
// finished and cached when the repeat arrives.
func serveJobs(seed int64, fresh int) ([][]serveJob, error) {
	templates, err := loadTemplates()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	lists := make([][]serveJob, serveClients)
	for c := range lists {
		rng := rand.New(rand.NewPCG(uint64(derive(seed, 7, uint64(c))), 0))
		var freshIdx []int
		for len(freshIdx) < fresh/serveClients {
			k := len(lists[c])
			if k%4 == 3 {
				var cands []int
				for _, i := range freshIdx {
					if i <= k-2 {
						cands = append(cands, i)
					}
				}
				src := cands[rng.IntN(len(cands))]
				again := lists[c][src]
				again.repeatOf = src
				lists[c] = append(lists[c], again)
				continue
			}
			j := len(freshIdx)
			name := serveCycle[(j+len(serveCycle)/2*c)%len(serveCycle)]
			sc, err := scenario.Decode(templates[name])
			if err != nil {
				return nil, fmt.Errorf("template %s: %v", name, err)
			}
			parts := []uint64{8, uint64(c), uint64(j)}
			sc.Model.Seed = derive(seed, append(parts, 0)...)
			if sc.Graph.Seed != 0 {
				sc.Graph.Seed = derive(seed, append(parts, 1)...)
			}
			if sc.Sweep != nil {
				for i := range sc.Sweep.Seeds {
					sc.Sweep.Seeds[i] = derive(seed, append(parts, 2+uint64(i))...)
				}
			}
			hash, err := sc.Hash()
			if err != nil {
				return nil, err
			}
			if seen[hash] {
				return nil, fmt.Errorf("re-seeded %s collides with an earlier job", name)
			}
			seen[hash] = true
			body, err := json.Marshal(sc)
			if err != nil {
				return nil, err
			}
			freshIdx = append(freshIdx, k)
			lists[c] = append(lists[c], serveJob{template: name, body: body, faulted: sc.Faults != nil, repeatOf: -1})
		}
	}
	return lists, nil
}

// startServer builds a service with its defaults behind httptest and waits
// for its first healthy /healthz answer.
func startServer(client *http.Client) (*service.Server, *httptest.Server, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := client.Get(ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		ts.Close()
		return nil, nil, err
	}
	return srv, ts, nil
}

// submit runs one job the way nccrun -remote -trace does.
func submit(client *http.Client, base string, j serveJob, tr *tracer, parent int) (r jobResult) {
	t0 := time.Now()
	var at int64
	if tr != nil {
		at = tr.now()
	}
	defer func() {
		if tr != nil {
			js := tr.add("serve.job."+j.template, parent, at, at+r.eof.Nanoseconds()+r.traceFetch.Nanoseconds())
			tr.add("http.submit", js, at, at+r.submit.Nanoseconds())
			tr.add("http.records", js, at+r.submit.Nanoseconds(), at+r.eof.Nanoseconds())
			tr.add("http.trace", js, at+r.eof.Nanoseconds(), at+r.eof.Nanoseconds()+r.traceFetch.Nanoseconds())
		}
	}()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		r.err = err
		return r
	}
	var info struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	r.submit = time.Since(t0)
	if resp.StatusCode != http.StatusCreated {
		r.err = fmt.Errorf("submit %s answered %s", j.template, resp.Status)
		return r
	}
	if err != nil {
		r.err = err
		return r
	}
	r.cached = info.Cached

	resp, err = client.Get(base + "/v1/jobs/" + info.ID + "/records")
	if err != nil {
		r.err = err
		return r
	}
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	for {
		ln, err := br.ReadBytes('\n')
		if len(ln) > 0 {
			r.last = time.Since(t0)
			if r.first == 0 {
				r.first = r.last
			}
			buf.Write(ln)
		}
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			break
		}
	}
	resp.Body.Close()
	r.eof = time.Since(t0)
	r.records = buf.Bytes()
	if r.err != nil {
		return r
	}

	t1 := time.Now()
	resp, err = client.Get(base + "/v1/jobs/" + info.ID + "/trace")
	if err != nil {
		r.err = err
		return r
	}
	r.trace, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.traceFetch = time.Since(t1)
	return r
}

// scrapeRoundUS reads the mean engine round duration from /metrics.
func scrapeRoundUS(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sum, count float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "nccd_round_duration_seconds_sum":
			sum, _ = strconv.ParseFloat(f[1], 64)
		case "nccd_round_duration_seconds_count":
			count, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if count == 0 {
		return 0, errors.New("/metrics reports no engine rounds")
	}
	return sum / count * 1e6, nil
}

// expectedRecords runs a submission locally, exactly as the service's
// executor does, and returns the NDJSON it must have streamed.
func expectedRecords(body []byte) ([]byte, []scenario.Record, error) {
	sc, err := scenario.Decode(body)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	var recs []scenario.Record
	for _, c := range sc.Expand() {
		rec, err := scenario.RunOneWith(c, scenario.RunOpts{Workers: 1})
		if err != nil {
			rec.Error = err.Error()
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		recs = append(recs, rec)
	}
	return buf.Bytes(), recs, nil
}

// checkFresh verifies an executed job: its stream is byte-identical to the
// local run, every record succeeded, reliable runs verified and faulted runs
// report consistent survivors.
func checkFresh(j serveJob, r jobResult) error {
	want, recs, err := expectedRecords(j.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(r.records, want) {
		return fmt.Errorf("%s: streamed records differ from the local run (%d vs %d bytes)", j.template, len(r.records), len(want))
	}
	for _, rec := range recs {
		switch {
		case rec.Error != "":
			return fmt.Errorf("%s: %s", j.template, rec.Error)
		case j.faulted && (rec.Degradation == nil || !rec.Degradation.SurvivorsOK):
			return fmt.Errorf("%s: survivors not consistent: %+v; scenario %s", j.template, rec.Degradation, j.body)
		case !j.faulted && !rec.Verified:
			return fmt.Errorf("%s: not verified: %s", j.template, rec.VerifyErr)
		}
	}
	if len(r.trace) == 0 {
		return fmt.Errorf("%s: empty trace", j.template)
	}
	return nil
}

func runServe(o options, rep *report) error {
	// At least 100 executed jobs, so job_p90_s has ten samples beyond it.
	fresh := max(100, int(5*o.seconds))
	fresh += fresh % serveClients
	lists, err := serveJobs(o.seed, fresh)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer client.CloseIdleConnections()

	var setups []float64
	var srv *service.Server
	var ts *httptest.Server
	for k := range setupReps {
		start := time.Now()
		srv, ts, err = startServer(client)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupReps-1 {
			srv.Drain(context.Background())
			ts.Close()
		}
	}
	defer ts.Close()

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	loop := tr.begin("serve.loop", 0)
	results := make([][]jobResult, serveClients)
	s := startPass()
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range lists[c] {
				results[c] = append(results[c], submit(client, ts.URL, j, tr, loop))
			}
		}()
	}
	wg.Wait()
	u := since(s)
	tr.end(loop)
	roundUS, roundErr := scrapeRoundUS(client, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Drain(ctx)
	cancel()

	// Output checks, after the measured loop. Executed jobs are re-run
	// locally, split across the clients' lists in parallel.
	errs := make([][]error, serveClients)
	for c := range lists {
		errs[c] = make([]error, len(lists[c]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, j := range lists[c] {
				r := results[c][k]
				switch {
				case r.err != nil:
					errs[c][k] = r.err
				case j.repeatOf < 0:
					errs[c][k] = checkf(!r.cached, "%s: fresh job answered from cache", j.template)
					if errs[c][k] == nil {
						errs[c][k] = checkFresh(j, r)
					}
				default:
					first := results[c][j.repeatOf]
					errs[c][k] = checkf(r.cached && bytes.Equal(r.records, first.records) && bytes.Equal(r.trace, first.trace),
						"%s: repeat (cached=%v) differs from its first execution", j.template, r.cached)
				}
			}
		}()
	}
	wg.Wait()

	var total counts
	var jobS, firstS, cachedS, submitMS, tailMS, fetchMS, faultedS, reliableS []float64
	var traceBytes, hits, completed float64
	for c := range lists {
		for k, j := range lists[c] {
			r := results[c][k]
			rep.op(errs[c][k])
			if r.err != nil {
				continue
			}
			completed++
			submitMS = append(submitMS, r.submit.Seconds()*1e3)
			fetchMS = append(fetchMS, r.traceFetch.Seconds()*1e3)
			if r.cached {
				hits++
				cachedS = append(cachedS, r.last.Seconds())
				continue
			}
			jobS = append(jobS, r.last.Seconds())
			firstS = append(firstS, r.first.Seconds())
			tailMS = append(tailMS, (r.eof-r.last).Seconds()*1e3)
			traceBytes += float64(len(r.trace))
			if j.faulted {
				faultedS = append(faultedS, r.last.Seconds())
			} else {
				reliableS = append(reliableS, r.last.Seconds())
			}
			for _, ln := range bytes.Split(bytes.TrimSpace(r.records), []byte{'\n'}) {
				var rec struct {
					Stats struct{ Rounds, Messages, Words int64 }
				}
				if json.Unmarshal(ln, &rec) == nil {
					total.add(counts{rec.Stats.Rounds, rec.Stats.Messages, rec.Stats.Words})
				}
			}
		}
	}
	p, ok := tailPercentile(len(jobS))
	rep.op(checkf(ok && p == 90, "%d executed jobs give no p90 with ten samples beyond it", len(jobS)))
	fmt.Printf("serve samples: executed %d, cached %d, faulted %d, reliable %d\n", len(jobS), len(cachedS), len(faultedS), len(reliableS))
	if completed == 0 {
		return errors.New("no job completed")
	}

	rep.endToEnd("cpu_s", u.cpu/completed, "s")
	rep.endToEnd("setup_s", median(setups), "s")
	rep.endToEnd("rounds", float64(total.rounds), "rounds")
	rep.endToEnd("messages", float64(total.messages), "msgs")
	rep.endToEnd("words", float64(total.words), "words")
	rep.endToEnd("alloc_mb", float64(u.allocBytes)/(1<<20), "MiB")
	rep.endToEnd("peak_rss_mb", peakRSSMB(), "MiB")
	rep.endToEnd("job_s", u.unstolen(median(jobS)), "s")
	rep.endToEnd("job_p90_s", u.unstolen(percentile(jobS, 90)), "s")
	rep.endToEnd("first_record_s", u.unstolen(median(firstS)), "s")
	rep.endToEnd("cached_job_s", u.unstolen(median(cachedS)), "s")
	rep.endToEnd("jobs_per_s", completed/u.unstolen(u.wall), "1/s")

	if !o.traced {
		return nil
	}
	if roundErr != nil {
		return roundErr
	}
	rep.layer("service.submit_ms", median(submitMS), "ms")
	rep.layer("service.stream_tail_ms", median(tailMS), "ms")
	rep.layer("service.cache_hit_ratio", hits/completed, "ratio")
	rep.layer("service.round_us", roundUS, "us")
	rep.layer("service.job_s.faulted", u.unstolen(median(faultedS)), "s")
	rep.layer("service.job_s.reliable", u.unstolen(median(reliableS)), "s")
	rep.layer("host.wall_job_s", median(jobS), "s")
	rep.layer("obs.trace_bytes_per_job", traceBytes/float64(len(jobS)), "bytes")
	rep.layer("obs.trace_fetch_ms", median(fetchMS), "ms")
	runtimeShares([]usage{u}, rep)
	return writeTrace(tr, o)
}
