// Package engine is the concurrent evaluation engine for certain-answer
// computation. It executes the paper's tractable algorithms (the Theorem 4
// SQL-null procedure, the Theorem 5 least-informative procedure, and the
// Proposition 5 choice search) over the graph's frozen snapshot, sharding
// two independent dimensions of work across a pool of GOMAXPROCS
// goroutines:
//
//   - queries: each query in a batch is evaluated independently;
//   - source-node frontiers: a query with a snapshot kernel over a start
//     range (core.RangeEvaluator — REE, REM and navigational RPQs all have
//     one) has its start frontier split into chunks, one chunk per work
//     item. The kernels prune start nodes that cannot begin a match
//     themselves, which makes selective queries on large graphs nearly
//     free.
//
// Output is deterministic: every work item writes its pairs into its own
// slot, and the slots are read back in start-node order, so the same
// inputs always produce the same answers regardless of scheduling.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
)

// Options configure the worker pool.
type Options struct {
	// Workers is the number of goroutines; ≤ 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of start nodes per frontier work item; ≤ 0
	// picks a default balancing scheduling overhead against skew.
	ChunkSize int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) chunk() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return 32
}

// Eval computes the certain answers 2ⁿ_M(Q, Gs) (the Theorem 4 algorithm)
// for every query concurrently and returns one answer set per query, index-
// aligned with the input. The universal solution is built once and shared
// read-only by all workers.
func Eval(ctx context.Context, m *core.Mapping, gs *datagraph.Graph, queries ...core.Query) ([]*core.Answers, error) {
	return EvalOpts(ctx, m, gs, Options{}, queries...)
}

// EvalOpts is Eval with explicit worker-pool options.
func EvalOpts(ctx context.Context, m *core.Mapping, gs *datagraph.Graph, opts Options, queries ...core.Query) ([]*core.Answers, error) {
	u, err := core.UniversalSolution(m, gs)
	if err != nil {
		return nil, err
	}
	return EvalSolution(ctx, u, opts, queries...)
}

// EvalSolution runs the Theorem 4 batch over an already materialized
// universal solution: evaluate every query concurrently under SQL-null
// semantics and filter null-node endpoints. Sessions use it so a stream of
// batches against one (M, Gs) shares one memoized solution instead of
// rebuilding it per call.
func EvalSolution(ctx context.Context, u *datagraph.Graph, opts Options, queries ...core.Query) ([]*core.Answers, error) {
	runs, err := evalRuns(ctx, u, queries, datagraph.SQLNulls, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Answers, len(queries))
	for i, r := range runs {
		out[i] = core.NullAnswers(u, r)
	}
	return out, nil
}

// CertainNull is the engine-backed counterpart of core.CertainNull: one
// query, parallel frontier evaluation over the universal solution.
func CertainNull(ctx context.Context, m *core.Mapping, gs *datagraph.Graph, q core.Query, opts Options) (*core.Answers, error) {
	eval, evalErr := captureEvalFunc(ctx, opts)
	ans, err := core.CertainNullEval(m, gs, q, eval)
	if err != nil {
		return nil, err
	}
	if *evalErr != nil {
		return nil, *evalErr
	}
	return ans, nil
}

// CertainLeastInformative is the engine-backed counterpart of
// core.CertainLeastInformative (the Theorem 5 algorithm).
func CertainLeastInformative(ctx context.Context, m *core.Mapping, gs *datagraph.Graph, q core.Query, opts Options) (*core.Answers, error) {
	eval, evalErr := captureEvalFunc(ctx, opts)
	ans, err := core.CertainLeastInformativeEval(m, gs, q, eval)
	if err != nil {
		return nil, err
	}
	if *evalErr != nil {
		return nil, *evalErr
	}
	return ans, nil
}

// CertainDataPathArbitrary runs the Proposition 5 procedure with the
// adversary's word-choice combinations sharded across the worker pool.
func CertainDataPathArbitrary(m *core.Mapping, gs *datagraph.Graph, q *ree.Query,
	from, to datagraph.NodeID, opts Options) (bool, error) {
	return core.CertainDataPathArbitrary(m, gs, q, from, to,
		core.Prop5Options{Workers: opts.workers()})
}

// EvalGraph evaluates one query over one graph with the start-node frontier
// sharded across the worker pool. It is the parallel counterpart of
// q.Eval(g, mode) and falls back to it when the query has no range kernel.
func EvalGraph(ctx context.Context, g *datagraph.Graph, q core.Query, mode datagraph.CompareMode, opts Options) (*datagraph.PairSet, error) {
	runs, err := EvalRuns(ctx, g, q, mode, opts)
	if err != nil {
		return nil, err
	}
	return datagraph.PairSetOf(g.NumNodes(), runs...), nil
}

// EvalRuns is EvalGraph without the set: it returns the pair runs of q
// over g, duplicate-free and in start-node order, ready for
// core.NullAnswers or core.DomAnswers.
func EvalRuns(ctx context.Context, g *datagraph.Graph, q core.Query, mode datagraph.CompareMode, opts Options) ([][]datagraph.Pair, error) {
	runs, err := evalRuns(ctx, g, []core.Query{q}, mode, opts)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// captureEvalFunc adapts the engine to the core.EvalFunc hook. The hook's
// signature has no error return, so evaluation errors (context
// cancellation) are parked in the returned error slot; callers must check
// it after the core algorithm returns and discard the (truncated) answers
// when it is set. Once an error is parked the hook short-circuits: later
// calls return an empty set immediately instead of re-entering EvalGraph,
// so a cancelled core algorithm winds down without doing further
// evaluation work, and the first error is preserved rather than
// overwritten by the cascade that follows it.
func captureEvalFunc(ctx context.Context, opts Options) (core.EvalFunc, *error) {
	evalErr := new(error)
	return func(g *datagraph.Graph, q core.Query, mode datagraph.CompareMode) *datagraph.PairSet {
		if *evalErr != nil {
			return datagraph.NewPairSet()
		}
		res, err := EvalGraph(ctx, g, q, mode, opts)
		if err != nil {
			*evalErr = err
			return datagraph.NewPairSet()
		}
		return res
	}, evalErr
}

// job is one unit of work: evaluate query qi on start nodes [lo, hi) of the
// shared graph, or — when whole is set — run the query's monolithic Eval
// (for queries without a range kernel).
type job struct {
	qi     int
	lo, hi int
	whole  bool
}

// evalRuns runs the shared worker pool over every (query, frontier-chunk)
// work item and returns, per query, the pair runs its items emitted, in
// start-node order.
//
// The graph is frozen exactly once, up front, so every worker evaluates
// against one shared immutable snapshot. Freezing is incremental
// (datagraph delta snapshots), so in update-heavy workloads — query
// batches separated by AddEdge/SetValue bursts — each batch pays only for
// the delta since the previous batch, not an O(V+E) rebuild.
//
// Each work item writes its pairs into its own slot of one runs slice, so
// workers share no set and take no lock. A range kernel emits each (u, v)
// once per start node, start nodes ascending, and the chunks of one query
// are disjoint, so a query's runs are duplicate-free and sorted by start
// node; a whole-query item contributes its result's sorted pairs.
func evalRuns(ctx context.Context, g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode, opts Options) ([][][]datagraph.Pair, error) {
	n := g.NumNodes()
	g.Freeze()
	chunk := opts.chunk()
	var jobs []job
	first := make([]int, len(queries)+1) // query qi owns jobs[first[qi]:first[qi+1]]
	for qi, q := range queries {
		first[qi] = len(jobs)
		if _, ranged := q.(core.RangeEvaluator); ranged {
			for lo := 0; lo < n; lo += chunk {
				jobs = append(jobs, job{qi: qi, lo: lo, hi: min(lo+chunk, n)})
			}
		} else {
			jobs = append(jobs, job{qi: qi, whole: true})
		}
	}
	first[len(queries)] = len(jobs)

	runs := make([][]datagraph.Pair, len(jobs))
	workers := min(opts.workers(), len(jobs))
	if workers <= 1 {
		// Sequential fast path: no goroutine overhead.
		var w worker
		for i := range jobs {
			if ctx.Err() != nil {
				break
			}
			runs[i] = w.run(g, queries, mode, jobs[i])
		}
	} else {
		runPool(ctx, g, queries, mode, jobs, runs, workers)
	}
	// A cancellation observed at any point — including during the last
	// work item — discards the partial results.
	if err := ctx.Err(); err != nil {
		return nil, core.Canceled(err)
	}
	out := make([][][]datagraph.Pair, len(queries))
	for qi := range queries {
		out[qi] = runs[first[qi]:first[qi+1]]
	}
	return out, nil
}

// runPool runs the work items on a pool of workers goroutines until they
// are exhausted or ctx is cancelled, storing item i's pairs in runs[i].
func runPool(ctx context.Context, g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode,
	jobs []job, runs [][]datagraph.Pair, workers int) {

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			var w worker
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runs[i] = w.run(g, queries, mode, jobs[i])
			}
		}()
	}
	wg.Wait()
}

// worker appends every range item's pairs to one growing buffer and hands
// out capacity-capped windows of it, so a worker allocates O(log answers)
// times per call rather than once per chunk. Windows stay valid when the
// buffer grows: earlier ones keep the old backing array.
type worker struct {
	buf  []datagraph.Pair
	emit func(u, v int)
}

// run executes one work item and returns its pairs.
func (w *worker) run(g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode, j job) []datagraph.Pair {
	q := queries[j.qi]
	if j.whole {
		return q.Eval(g, mode).Sorted()
	}
	if w.emit == nil {
		w.emit = func(u, v int) { w.buf = append(w.buf, datagraph.Pair{From: u, To: v}) }
	}
	start := len(w.buf)
	// Snapshot kernel: interned labels, pooled scratch, start pruning.
	q.(core.RangeEvaluator).EvalRange(g, j.lo, j.hi, mode, w.emit)
	if len(w.buf) == start {
		return nil
	}
	return w.buf[start:len(w.buf):len(w.buf)]
}
