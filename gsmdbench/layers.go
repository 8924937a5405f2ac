package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/server"
)

// layerInput is what the in-process replay runs: the same mapping, source
// and query texts gsmd received, and a relational load for the ingest
// layer.
type layerInput struct {
	cm      *core.CompiledMapping
	source  *datagraph.Graph
	queries []string
	want    [][]byte
	schema  *ingest.Schema
	tables  func() []ingest.Source
	rows    int
}

// layerTimes are the replay's per-query means, which the decomposition
// check sets against the end-to-end spans.
type layerTimes struct {
	certainNull, eval, filter, wire, marshal float64 // ms per query
}

// errMismatch marks a layer whose answers disagreed with the reference.
type errMismatch struct{ msg string }

func (e errMismatch) Error() string { return e.msg }

// minReplay is how long the per-query replay runs at least; whole passes
// over the stream repeat until it has passed.
const minReplay = time.Second

// replayLayers replays the inputs through each layer's public functions in
// pipeline order, inside spans, and sets the per-layer metrics on res.
func replayLayers(tr *tracer, in layerInput, res *result) (layerTimes, error) {
	ctx := context.Background()
	var lt layerTimes

	// Freeze and chase: a fresh materialization each time, so the chase
	// runs cold, then a from-scratch snapshot of the solution it built.
	var uniMS, uniMB, freezeMS []float64
	for i := 0; i < 3; i++ {
		tid := tr.trace()
		var u *datagraph.Graph
		var err error
		a0 := readAllocs()
		d := tr.timed("core.universal", tid, 0, func(int) { u, err = core.NewMaterialization(in.cm, in.source).Universal() })
		a1 := readAllocs()
		if err != nil {
			return lt, fmt.Errorf("universal solution: %w", err)
		}
		uniMS = append(uniMS, msOf(d))
		uniMB = append(uniMB, float64(a1.bytes-a0.bytes)/(1<<20))
		freezeMS = append(freezeMS, msOf(tr.timed("datagraph.freeze_full", tid, 0, func(int) { u.FreezeFull() })))
	}
	res.set("core.universal_ms", "ms", median(uniMS))
	res.set("core.universal_alloc_mb", "MB", median(uniMB))
	res.set("datagraph.freeze_full_ms", "ms", median(freezeMS))

	// Memory accounting: the session's own estimate against the heap it
	// actually grew by, both after a full collection.
	h0 := heapAfterGC()
	sess, err := repro.NewSession(in.cm, in.source)
	if err != nil {
		return lt, err
	}
	u, err := sess.UniversalSolution(ctx)
	if err != nil {
		return lt, err
	}
	if grown := heapAfterGC() - h0; grown > 0 {
		res.set("datagraph.size_accuracy", "ratio", float64(sess.MemoryBytes())/float64(grown))
	} else {
		return lt, fmt.Errorf("heap did not grow while materializing (%d bytes)", grown)
	}

	// Queries, in pipeline order: parse, lower, evaluate through the
	// engine and once through the kernel alone, filter nulls, encode; then
	// the whole facade call for comparison.
	var n, parse, eval, rng, filter, wireT, marshal, certain float64
	var allocBytes, allocCount uint64
	for start := time.Now(); n == 0 || time.Since(start) < minReplay; {
		for i, text := range in.queries {
			tid := tr.trace()
			root := tr.begin("replay.query", tid, 0)
			var pq *repro.PreparedQuery
			parse += usOf(tr.timed("ree.parse", tid, root, func(int) {
				var q *repro.REEQuery
				if q, err = repro.ParseREE(text); err == nil {
					pq = repro.PrepareQuery(q)
				}
			}))
			if err != nil {
				return lt, fmt.Errorf("query %q: %w", text, err)
			}
			tr.timed("ree.lower", tid, root, func(int) { err = pq.Bind(ctx, sess) })
			if err != nil {
				return lt, err
			}
			var pairs *datagraph.PairSet
			a0 := readAllocs()
			// ChunkSize 32 and all CPUs are repro.NewSession's defaults,
			// which gsmd's sessions keep.
			eval += msOf(tr.timed("engine.eval", tid, root, func(int) {
				pairs, err = engine.EvalGraph(ctx, u, pq, datagraph.SQLNulls, engine.Options{ChunkSize: 32})
			}))
			a1 := readAllocs()
			if err != nil {
				return lt, err
			}
			allocBytes += a1.bytes - a0.bytes
			allocCount += a1.count - a0.count
			whole := datagraph.NewPairSetSized(u.NumNodes())
			rng += msOf(tr.timed("ree.eval_range", tid, root, func(int) {
				pq.EvalRange(u, 0, u.NumNodes(), datagraph.SQLNulls, whole.Add)
			}))
			if !pairs.Equal(whole) {
				return lt, errMismatch{fmt.Sprintf("query %q: engine.EvalGraph returned %d pairs, one EvalRange %d", text, pairs.Len(), whole.Len())}
			}
			var ans *repro.Answers
			filter += usOf(tr.timed("core.filter_null", tid, root, func(int) { ans = core.FilterNullAnswers(u, pairs) }))
			// gsmd converts the answers inside its elapsed_ms and
			// marshals them after it.
			var wire []server.Answer
			var enc []byte
			wireT += msOf(tr.timed("server.answers_wire", tid, root, func(int) { wire = server.AnswersWire(ans) }))
			marshal += msOf(tr.timed("server.marshal", tid, root, func(int) { enc, err = json.Marshal(wire) }))
			if err != nil {
				return lt, err
			}
			if !bytes.Equal(enc, in.want[i]) {
				return lt, errMismatch{fmt.Sprintf("query %q: replayed encoding differs from the expected answers", text)}
			}
			certain += msOf(tr.timed("repro.certain_null", tid, root, func(int) { _, err = sess.CertainNull(ctx, pq) }))
			if err != nil {
				return lt, err
			}
			tr.end(root)
			n++
		}
	}
	lt = layerTimes{certainNull: certain / n, eval: eval / n, filter: filter / n / 1000, wire: wireT / n, marshal: marshal / n}
	res.set("ree.parse_us", "us", parse/n)
	res.set("engine.eval_ms", "ms", eval/n)
	res.set("engine.alloc_mb_per_query", "MB", float64(allocBytes)/n/(1<<20))
	res.set("engine.allocs_per_query", "count", float64(allocCount)/n)
	res.set("ree.eval_range_ms", "ms", rng/n)
	res.set("engine.kernel_share", "ratio", rng/eval)
	res.set("core.filter_null_us", "us", filter/n)
	res.set("server.encode_ms", "ms", (wireT+marshal)/n)
	res.set("repro.certain_null_ms", "ms", certain/n)
	full, delta := in.source.SnapshotBuilds()
	uFull, uDelta := u.SnapshotBuilds()
	res.set("datagraph.builds_full", "count", float64(full+uFull))
	res.set("datagraph.builds_delta", "count", float64(delta+uDelta))

	// Bulk load: the relational pipeline's parse, map and commit.
	var loadMS, loadMB []float64
	var rep *ingest.Report
	for i := 0; i < 3; i++ {
		a0 := readAllocs()
		d := tr.timed("ingest.load", tr.trace(), 0, func(int) {
			_, rep, err = ingest.Load(ctx, in.schema, ingest.Options{}, in.tables()...)
		})
		a1 := readAllocs()
		if err != nil {
			return lt, fmt.Errorf("ingest: %w", err)
		}
		loadMS = append(loadMS, msOf(d))
		loadMB = append(loadMB, float64(a1.bytes-a0.bytes)/(1<<20))
	}
	res.set("ingest.load_ms", "ms", median(loadMS))
	res.set("ingest.rows_per_s", "1/s", float64(in.rows)/(median(loadMS)/1000))
	res.set("ingest.alloc_mb", "MB", median(loadMB))
	res.set("ingest.full_builds", "count", float64(rep.FullBuilds))
	res.set("ingest.delta_builds", "count", float64(rep.DeltaBuilds))
	return lt, nil
}

type allocStat struct{ bytes, count uint64 }

func readAllocs() allocStat {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocStat{m.TotalAlloc, m.Mallocs}
}

func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
