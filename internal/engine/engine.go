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
// Output is deterministic: answers are set-valued and the merge is
// order-insensitive, so the same inputs always produce the same Answers
// regardless of scheduling.
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
	sets, err := evalAll(ctx, u, queries, datagraph.SQLNulls, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Answers, len(queries))
	for i, res := range sets {
		out[i] = core.FilterNullAnswers(u, res)
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
	sets, err := evalAll(ctx, g, []core.Query{q}, mode, opts)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
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

// evalAll runs the shared worker pool over every (query, frontier-chunk)
// work item and returns one PairSet per query.
//
// The graph is frozen exactly once, up front, so every worker evaluates
// against one shared immutable snapshot. Freezing is incremental
// (datagraph delta snapshots), so in update-heavy workloads — query
// batches separated by AddEdge/SetValue bursts — each batch pays only for
// the delta since the previous batch, not an O(V+E) rebuild. Result sets are dense bitmap
// PairSets (when the graph fits the dense budget); frontier work items for
// the same query touch disjoint start nodes and therefore disjoint bitmap
// rows, so workers write answers straight into the shared result set
// without locks — only whole-query work items and sparse fallbacks merge
// under a mutex.
func evalAll(ctx context.Context, g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode, opts Options) ([]*datagraph.PairSet, error) {
	n := g.NumNodes()
	g.Freeze()
	chunk := opts.chunk()
	var jobs []job
	for qi, q := range queries {
		if _, ranged := q.(core.RangeEvaluator); ranged {
			for lo := 0; lo < n; lo += chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				jobs = append(jobs, job{qi: qi, lo: lo, hi: hi})
			}
		} else {
			jobs = append(jobs, job{qi: qi, whole: true})
		}
	}

	results := make([]*datagraph.PairSet, len(queries))
	for i := range results {
		results[i] = datagraph.NewPairSetSized(n)
	}

	workers := opts.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		// Sequential fast path: no goroutine or lock overhead.
		for _, j := range jobs {
			if ctx.Err() != nil {
				break
			}
			runJob(g, queries, mode, j, results[j.qi])
		}
	} else {
		runPool(ctx, g, queries, mode, jobs, results, workers)
	}
	// A cancellation observed at any point — including during the last
	// work item — discards the partial results.
	if err := ctx.Err(); err != nil {
		return nil, core.Canceled(err)
	}
	return results, nil
}

// runPool runs the work items on a pool of workers goroutines until they
// are exhausted or ctx is cancelled.
func runPool(ctx context.Context, g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode,
	jobs []job, results []*datagraph.PairSet, workers int) {

	locks := make([]sync.Mutex, len(queries))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := datagraph.NewPairSet()
			lastQ := -1
			flush := func() {
				if lastQ >= 0 && local.Len() > 0 {
					locks[lastQ].Lock()
					local.Each(func(p datagraph.Pair) { results[lastQ].AddPair(p) })
					locks[lastQ].Unlock()
				}
				local = datagraph.NewPairSet()
			}
			for ctx.Err() == nil {
				idx := int(next.Add(1)) - 1
				if idx >= len(jobs) {
					break
				}
				j := jobs[idx]
				if !j.whole && results[j.qi].Dense() {
					// Disjoint bitmap rows: write directly, lock-free.
					runJob(g, queries, mode, j, results[j.qi])
					continue
				}
				if j.qi != lastQ {
					flush()
					lastQ = j.qi
				}
				runJob(g, queries, mode, j, local)
			}
			flush()
		}()
	}
	wg.Wait()
}

// runJob executes one work item, adding pairs into sink.
func runJob(g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode, j job, sink *datagraph.PairSet) {
	q := queries[j.qi]
	if j.whole {
		q.Eval(g, mode).Each(func(p datagraph.Pair) { sink.AddPair(p) })
		return
	}
	// Snapshot kernel: interned labels, pooled scratch reused across this
	// worker's chunks, start pruning on interned start labels.
	q.(core.RangeEvaluator).EvalRange(g, j.lo, j.hi, mode, sink.Add)
}
