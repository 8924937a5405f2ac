package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/workload"
)

// ingestWindow is what the ingest-exchange iterations of one window
// measured.
type ingestWindow struct {
	queries    *tally          // query samples; every request counts in attempted and failed
	done       []time.Duration // completion of every request
	answers    []float64       // answers per request (0 for non-queries)
	t2fca      []float64       // ms from the ingest POST to the first answers
	rowsPerS   []float64       // rows over the ingest POST's duration
	iterations int
}

// ingestCase is the generated input of one ingest-exchange run.
type ingestCase struct {
	body     []byte // the POST /v1/graphs/{name}/ingest request
	rows     int
	csvBytes int
	nodes    int // of the graph the same load builds in-process
	edges    int
	bodies   [][]byte
	want     [][]byte
	counts   []int
	buf      bytes.Buffer // query replies
}

// iterate lands the dataset, opens a session under the relational mapping,
// asks the query batch, closes the session and deletes the graph. Any
// failed request ends the iteration; it is counted and the next one
// starts clean.
func (ic *ingestCase) iterate(a *api, tr *tracer, t0 time.Time, w *ingestWindow) {
	tid := tr.trace()
	root := tr.begin("ingest.iteration", tid, 0)
	defer tr.end(root)
	w.iterations++
	call := func(name string, f func() error) bool {
		var err error
		tr.timed(name, tid, root, func(int) { err = f() })
		w.queries.mu.Lock()
		defer w.queries.mu.Unlock()
		w.queries.attempted++
		if err != nil {
			w.queries.failed++
			if w.queries.firstErr == nil {
				w.queries.firstErr = err
			}
			return false
		}
		w.done = append(w.done, time.Since(t0))
		w.answers = append(w.answers, 0)
		return true
	}
	start := time.Now()
	var chunk server.IngestChunk
	var dIngest time.Duration
	if !call("http.ingest", func() (err error) { chunk, dIngest, err = a.ingest("rel", ic.body); return err }) {
		return
	}
	if chunk.Graph.Nodes != ic.nodes || chunk.Graph.Edges != ic.edges {
		w.queries.mismatches++
		fmt.Printf("# landed graph has %d nodes, %d edges; in-process load %d, %d\n", chunk.Graph.Nodes, chunk.Graph.Edges, ic.nodes, ic.edges)
	}
	w.rowsPerS = append(w.rowsPerS, float64(ic.rows)/dIngest.Seconds())
	var sid string
	if call("http.session", func() (err error) { sid, err = a.openSession("rel", "rel"); return err }) {
		for i, body := range ic.bodies {
			n := len(w.queries.samples)
			queryOnce(a, &ic.buf, tr, tid, root, sid, body, ic.want[i], ic.counts[i], t0, w.queries)
			if len(w.queries.samples) == n {
				break // failed or mismatched; counted by queryOnce
			}
			s := w.queries.samples[n]
			w.done = append(w.done, s.done)
			w.answers = append(w.answers, float64(s.answers))
			if i == 0 {
				w.t2fca = append(w.t2fca, msOf(time.Since(start)))
			}
		}
		call("http.close", func() error { return a.closeSession(sid) })
	}
	call("http.delete", func() error { return a.do("DELETE", "/v1/graphs/rel", nil, nil) })
}

// loop runs whole iterations until d has passed, or n iterations when
// n > 0.
func (ic *ingestCase) loop(a *api, tr *tracer, d time.Duration, n int) (*ingestWindow, time.Duration) {
	w := &ingestWindow{queries: &tally{}}
	t0 := time.Now()
	for n > 0 && w.iterations < n || n == 0 && time.Since(t0) < d {
		ic.iterate(a, tr, t0, w)
	}
	return w, time.Since(t0)
}

func newIngestCase(cfg config) (*ingestCase, layerInput, error) {
	spec := cfg.spec.rel
	spec.Seed = cfg.seed
	d := workload.Relational(spec)
	// The CSV payloads are the files gsm genrel writes, read back.
	dir := filepath.Join(cfg.dir, "csv")
	if err := d.WriteCSV(dir); err != nil {
		return nil, layerInput{}, err
	}
	ic := &ingestCase{rows: spec.Rows()}
	tables := map[string]string{}
	for _, t := range d.Schema.Tables {
		file := t.File
		if file == "" {
			file = t.Name + ".csv"
		}
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return nil, layerInput{}, err
		}
		tables[t.Name] = string(b)
		ic.csvBytes += len(b)
	}
	var err error
	if ic.body, err = json.Marshal(server.IngestRequest{Schema: d.Schema.String(), Tables: tables}); err != nil {
		return nil, layerInput{}, err
	}
	sources := func() []ingest.Source {
		var srcs []ingest.Source
		for _, t := range d.Schema.Tables {
			srcs = append(srcs, ingest.CSVString(t.Name, tables[t.Name]))
		}
		return srcs
	}

	// The reference: the same payloads loaded and queried in-process.
	g, rep, err := ingest.Load(context.Background(), d.Schema, ingest.Options{}, sources()...)
	if err != nil {
		return nil, layerInput{}, fmt.Errorf("in-process ingest: %w", err)
	}
	ic.nodes, ic.edges = rep.Nodes, rep.Edges
	m, err := repro.ParseMapping(ingestMappingText)
	if err != nil {
		return nil, layerInput{}, err
	}
	cm, err := repro.Compile(m)
	if err != nil {
		return nil, layerInput{}, err
	}
	ref, err := repro.NewSession(cm, g)
	if err != nil {
		return nil, layerInput{}, err
	}
	if ic.want, ic.counts, err = expectedAnswers(ref, ingestQueries); err != nil {
		return nil, layerInput{}, fmt.Errorf("expected answers: %w", err)
	}
	for _, q := range ingestQueries {
		ic.bodies = append(ic.bodies, queryBody(q))
	}
	return ic, layerInput{cm: cm, source: g, queries: ingestQueries, want: ic.want,
		schema: d.Schema, tables: sources, rows: ic.rows}, nil
}

func runIngest(cfg config) (*result, error) {
	ic, li, err := newIngestCase(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}

	// Set-up, repeated: boot gsmd and register the relational mapping.
	var setupS []float64
	var c *child
	var a *api
	stop := func() {
		if c != nil {
			a.close()
			c.stop()
			c = nil
		}
	}
	defer stop()
	for r := 0; r < cfg.spec.reps; r++ {
		stop()
		t0 := time.Now()
		if c, err = startGsmd(cfg.gsmd, cfg.dir); err != nil {
			return nil, err
		}
		a = newAPI(c.addr, 1)
		if err := a.registerMapping("rel", ingestMappingText); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// Warm-up: one verified iteration outside the timed window.
	if w, _ := ic.loop(a, nil, 0, 1); w.queries.failed+w.queries.mismatches > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, %d mismatched (%v)", w.queries.failed, w.queries.mismatches, w.queries.firstErr)
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	var untraced *ingestWindow
	var st0, st1 statsDelta
	var gc0, gc1 runtime.MemStats
	var wal0 int64
	if cfg.trace {
		untraced, _ = ic.loop(a, nil, window/2, 0)
		window -= window / 2
		tr = newTracer()
		if st0, err = readStats(a); err != nil {
			return nil, err
		}
		if wal0, err = c.stateBytes(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&gc0)
	}
	w, elapsed := ic.loop(a, tr, window, 0)
	rss, err := c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	q := w.queries
	res.Attempted, res.Failed = q.attempted, q.failed
	if q.mismatches > 0 {
		res.Correct = false
		fmt.Printf("# %d responses differed from the in-process reference\n", q.mismatches)
	}
	if q.firstErr != nil {
		fmt.Printf("# first failure: %v\n", q.firstErr)
	}
	if len(w.t2fca) == 0 {
		return nil, fmt.Errorf("no iteration completed in the timed window (%v)", q.firstErr)
	}

	if !cfg.trace {
		ones := make([]float64, len(w.done))
		for i := range ones {
			ones[i] = 1
		}
		lat, _, _, _ := columns(q.samples)
		res.set("setup_s", "s", median(setupS))
		res.set("requests_per_s", "1/s", sliceRate(w.done, ones, elapsed, rateSlices))
		res.set("answers_per_s", "1/s", sliceRate(w.done, w.answers, elapsed, rateSlices))
		res.set("latency_p50_ms", "ms", percentile(lat, 50))
		printUngated(res, lat, w.t2fca, w.rowsPerS)
		res.set("rss_peak_mb", "MB", rss)
		return res, nil
	}

	runtime.ReadMemStats(&gc1)
	if st1, err = readStats(a); err != nil {
		return nil, err
	}
	wal1, err := c.stateBytes()
	if err != nil {
		return nil, err
	}
	stop()
	setServerMetrics(res, q, untraced.queries, st0, st1)
	res.set("server.wal_bytes_per_ingest_byte", "ratio", float64(wal1-wal0)/float64(ic.csvBytes*w.iterations))
	res.set("runtime.gc_cycles", "count", float64(gc1.NumGC-gc0.NumGC))
	res.set("runtime.gc_pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	lt, err := replayLayers(tr, li, res)
	if done, err := replayFailed(res, err); done {
		return res, err
	}
	setDecomposition(res, q, lt)
	return res, finishTrace(cfg, tr, res)
}
