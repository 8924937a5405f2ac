package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/datagraph"
	"repro/internal/ingest"
)

// sample is one completed query request.
type sample struct {
	lat     time.Duration // send until the body is read
	done    time.Duration // completion, from the window's start
	backend float64       // the server's elapsed_ms
	size    int           // response bytes
	answers int
}

// tally collects one window's samples from every client.
type tally struct {
	mu         sync.Mutex
	samples    []sample
	attempted  int
	failed     int
	mismatches int
	firstErr   error
}

func (t *tally) add(s sample, err error, mismatch bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	case mismatch:
		t.mismatches++
	default:
		t.samples = append(t.samples, s)
	}
}

// queryOnce sends one query, verifies its answers and records it.
// The span hangs under parent in trace tid; tid 0 starts a fresh trace.
func queryOnce(a *api, buf *bytes.Buffer, tr *tracer, tid, parent int, session string, body, want []byte, wantCount int, t0 time.Time, out *tally) {
	if tid == 0 {
		tid = tr.trace()
	}
	root := tr.begin("http.query", tid, parent)
	rt := tr.begin("client.roundtrip", tid, root)
	raw, lat, err := a.query(buf, session, body)
	tr.end(rt)
	s := sample{lat: lat, done: time.Since(t0), size: len(raw)}
	mismatch := false
	if err == nil {
		tr.timed("client.verify", tid, root, func(int) {
			var m queryMeta
			m, ok, verr := verifyReply(raw, want)
			err, mismatch = verr, !ok || m.Count != wantCount
			s.backend, s.answers = m.ElapsedMS, m.Count
		})
	}
	tr.end(root)
	out.add(s, err, mismatch && err == nil)
}

// closedLoop runs one client per session, each sending its next query
// only after the previous reply, until the deadline (or for passes whole
// passes over the stream when passes > 0). Client c replays the stream in
// order[c].
func closedLoop(a *api, tr *tracer, sessions []string, order [][]int, bodies, want [][]byte, counts []int, d time.Duration, passes int) (*tally, time.Duration) {
	out := &tally{}
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := range sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := len(bodies)
			var buf bytes.Buffer
			for i := 0; ; i++ {
				if passes > 0 && i >= passes*n || passes == 0 && !time.Now().Before(deadline) {
					return
				}
				q := order[c][i%n]
				queryOnce(a, &buf, tr, 0, 0, sessions[c], bodies[q], want[q], counts[q], t0, out)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

func runServe(cfg config) (*result, error) {
	sp := cfg.spec
	nc := clients()
	in := newServingInputs(sp, cfg.seed, nc)
	cm, err := repro.Compile(in.sc.Mapping)
	if err != nil {
		return nil, err
	}
	ref, err := repro.NewSession(cm, in.sc.Graph)
	if err != nil {
		return nil, err
	}
	want, counts, err := expectedAnswers(ref, in.queries)
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	bodies := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		bodies[i] = queryBody(q)
	}
	records := in.sc.Graph.NumNodes() + in.sc.Graph.NumEdges()
	landed := len(in.sc.MappingText) + len(in.sc.GraphText)
	res := &result{Correct: true}

	// Set-up, repeated: boot, register, open the sessions and ask the
	// first query, which materializes the universal solution. The last
	// set-up's gsmd serves the timed window.
	var setupS, t2fca, landRate []float64
	var c *child
	var a *api
	var sessions []string
	stop := func() {
		if c != nil {
			a.close()
			c.stop()
			c = nil
		}
	}
	defer stop()
	for r := 0; r < sp.reps; r++ {
		stop()
		t0 := time.Now()
		if c, err = startGsmd(cfg.gsmd, cfg.dir); err != nil {
			return nil, err
		}
		a = newAPI(c.addr, nc)
		if err := a.registerMapping("m", in.sc.MappingText); err != nil {
			return nil, err
		}
		tLand := time.Now()
		if err := a.registerGraph("g", in.sc.GraphText); err != nil {
			return nil, err
		}
		dLand := time.Since(tLand)
		sessions = sessions[:0]
		for i := 0; i < nc; i++ {
			id, err := a.openSession("m", "g")
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, id)
		}
		raw, _, err := a.query(new(bytes.Buffer), sessions[0], bodies[0])
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		t2fca = append(t2fca, msOf(time.Since(tLand)))
		landRate = append(landRate, float64(records)/dLand.Seconds())
		if _, ok, err := verifyReply(raw, want[0]); err != nil || !ok {
			return nil, fmt.Errorf("set-up query %q: answers differ from the embedded session (%v)", in.queries[0], err)
		}
	}
	walBytes, err := c.stateBytes()
	if err != nil {
		return nil, err
	}

	// Warm-up, outside the timed window: one verified pass per client,
	// then load until the fresh process has sized its heap.
	for _, passes := range []int{1, 0} {
		if w, _ := closedLoop(a, nil, sessions, in.order, bodies, want, counts, warmup, passes); w.failed+w.mismatches > 0 {
			return nil, fmt.Errorf("warm-up: %d failed, %d mismatched (%v)", w.failed, w.mismatches, w.firstErr)
		}
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	var untraced *tally
	var st0 statsDelta
	var gc0 runtime.MemStats
	if cfg.trace {
		// Half the window untraced, half traced: the difference is the
		// tracing overhead.
		untraced, _ = closedLoop(a, nil, sessions, in.order, bodies, want, counts, window/2, 0)
		window -= window / 2
		tr = newTracer()
		if st0, err = readStats(a); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&gc0)
	}
	timed, elapsed := closedLoop(a, tr, sessions, in.order, bodies, want, counts, window, 0)
	res.Attempted, res.Failed = timed.attempted, timed.failed
	if timed.mismatches > 0 {
		res.Correct = false
		fmt.Printf("# %d responses differed from the embedded session's answers\n", timed.mismatches)
	}
	if timed.firstErr != nil {
		fmt.Printf("# first failure: %v\n", timed.firstErr)
	}
	if len(timed.samples) == 0 {
		return nil, fmt.Errorf("no request succeeded in the timed window (%v)", timed.firstErr)
	}
	if !cfg.trace {
		if n := len(timed.samples); n < 1000 {
			fmt.Printf("# only %d requests: p99 has fewer than ten samples beyond it\n", n)
		}
		rss, err := c.peakRSSMB()
		if err != nil {
			return nil, err
		}
		lat, done, ones, answers := columns(timed.samples)
		res.set("setup_s", "s", median(setupS))
		res.set("requests_per_s", "1/s", sliceRate(done, ones, elapsed, rateSlices))
		res.set("answers_per_s", "1/s", sliceRate(done, answers, elapsed, rateSlices))
		res.set("latency_p50_ms", "ms", percentile(lat, 50))
		printUngated(res, lat, t2fca, landRate)
		res.set("rss_peak_mb", "MB", rss)
		return res, nil
	}

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	st1, err := readStats(a)
	if err != nil {
		return nil, err
	}
	stop()
	setServerMetrics(res, timed, untraced, st0, st1)
	res.set("server.wal_bytes_per_ingest_byte", "ratio", float64(walBytes)/float64(landed))
	res.set("runtime.gc_cycles", "count", float64(gc1.NumGC-gc0.NumGC))
	res.set("runtime.gc_pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	schema, rows, tables := servingTables(in.sc.Graph)
	lt, err := replayLayers(tr, layerInput{
		cm: cm, source: in.sc.Graph, queries: in.queries, want: want,
		schema: schema, tables: tables, rows: rows,
	}, res)
	if done, err := replayFailed(res, err); done {
		return res, err
	}
	setDecomposition(res, timed, lt)
	return res, finishTrace(cfg, tr, res)
}

// warmup is how long the served gsmd takes load before its timed window,
// after one pass over the stream. A fresh process runs a few percent slow
// while its heap grows.
const warmup = 2 * time.Second

// rateSlices is how many parts a window's throughput is the median of.
const rateSlices = 5

// columns splits samples into the per-request series the metrics need.
func columns(ss []sample) (lat, done []time.Duration, ones, answers []float64) {
	for _, s := range ss {
		lat = append(lat, s.lat)
		done = append(done, s.done)
		ones = append(ones, 1)
		answers = append(answers, float64(s.answers))
	}
	return lat, done, ones, answers
}

// servingTables renders a serving source graph as relational tables, one
// node table and one edge table per label, so the ingest layer can be
// timed on the same data volume the serve workloads land.
func servingTables(g *datagraph.Graph) (*ingest.Schema, int, func() []ingest.Source) {
	text := "table node\ncol node id text pk\ncol node value text null\n"
	labels := g.Labels()
	for _, l := range labels {
		text += fmt.Sprintf("table %[1]s\ncol %[1]s src text\ncol %[1]s dst text\nfk %[1]s src node.id\nfk %[1]s dst node.id\n", l)
	}
	schema, err := ingest.ParseSchema(text)
	if err != nil {
		panic(fmt.Sprintf("serving table schema: %v", err)) // built from the graph's own labels
	}
	rows := map[string][][]string{}
	for _, n := range g.Nodes() {
		v := ""
		if !n.Value.IsNull() {
			v = n.Value.Raw()
		}
		rows["node"] = append(rows["node"], []string{string(n.ID), v})
	}
	for _, e := range g.Edges() {
		rows[e.Label] = append(rows[e.Label], []string{string(e.From), string(e.To)})
	}
	tables := func() []ingest.Source {
		srcs := []ingest.Source{ingest.Rows("node", rows["node"])}
		for _, l := range labels {
			srcs = append(srcs, ingest.Rows(l, rows[l]))
		}
		return srcs
	}
	return schema, g.NumNodes() + g.NumEdges(), tables
}
