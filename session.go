package repro

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
)

// This file is the session-centric serving API: compile a mapping once,
// open a session against one source graph, and run an arbitrary stream of
// certain-answer calls that share the expensive artifacts — the universal
// solution, the least informative solution, dom(M, Gs), their interned
// snapshots and the per-snapshot lowered query programs — instead of
// rebuilding them per call. The shape mirrors database/sql: Compile is
// prepared-statement compilation for mappings, Session is the connection,
// PrepareQuery is the prepared query handle.
//
//	cm, err := repro.Compile(m)
//	s, err := repro.NewSession(cm, gs, repro.WithWorkers(8))
//	ans, err := s.CertainNull(ctx, q)          // builds the solution
//	ans2, err := s.CertainNull(ctx, q2)        // reuses it
//	for a, err := range s.CertainNullSeq(ctx, q3) { ... } // streams
//
// All session methods take a context first, are safe for concurrent use,
// and return errors wrapping the package's typed sentinels (ErrInfinite,
// ErrNoSolution, ErrBudgetExceeded, ErrCanceled, ErrBadOptions,
// ErrSourceMutated) for errors.Is/errors.As dispatch.

// CompiledMapping is a mapping compiled once for reuse across sessions: rule
// automata finalized, target words and classification precomputed. Immutable
// and safe for concurrent use.
type CompiledMapping = core.CompiledMapping

// Answer is one certain-answer tuple: a pair of source nodes (id, value).
type Answer = core.Answer

// Typed sentinel errors; every error returned by sessions (and the legacy
// free functions) wraps one of these.
var (
	// ErrInfinite: no finite universal solution exists (mapping not relational).
	ErrInfinite = core.ErrInfinite
	// ErrNoSolution: the mapping admits no solution for this source graph.
	ErrNoSolution = core.ErrNoSolution
	// ErrBudgetExceeded: a bounded exponential search hit its budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrCanceled: the context was canceled or timed out mid-evaluation.
	ErrCanceled = core.ErrCanceled
	// ErrBadOptions: an invalid option value, reported at construction.
	ErrBadOptions = core.ErrBadOptions
	// ErrSourceMutated: the source graph changed under a live session.
	ErrSourceMutated = core.ErrSourceMutated
)

// Compile precompiles a mapping for reuse: per-rule automata metadata,
// target words and classification are computed once, so sessions and
// repeated calls never re-derive them.
func Compile(m *Mapping) (*CompiledMapping, error) { return core.Compile(m) }

// MustCompile is Compile that panics on error.
func MustCompile(m *Mapping) *CompiledMapping { return core.MustCompile(m) }

// sessionConfig is the resolved option set of one session.
type sessionConfig struct {
	workers       int
	chunkSize     int
	maxNulls      int
	maxExpansions int
	maxChoices    int
	mode          CompareMode
	timeout       time.Duration
}

// Option configures a Session (functional options, validated at
// construction: invalid values surface as ErrBadOptions from NewSession).
type Option func(*sessionConfig) error

// WithWorkers sets the engine worker-pool size for parallel evaluation and
// the Proposition 5 choice sharding. Zero (the default) means GOMAXPROCS;
// negative is invalid.
func WithWorkers(n int) Option {
	return func(c *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: workers %d is negative", ErrBadOptions, n)
		}
		c.workers = n
		return nil
	}
}

// WithChunkSize sets the number of start nodes per frontier work item (and
// per streamed batch). Must be positive.
func WithChunkSize(n int) Option {
	return func(c *sessionConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: chunk size %d is not positive", ErrBadOptions, n)
		}
		c.chunkSize = n
		return nil
	}
}

// WithMaxNulls bounds the exponential exact search (CertainExact,
// CertainExactPair, CertainDataPathArbitrary). Must be positive.
func WithMaxNulls(n int) Option {
	return func(c *sessionConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: max nulls %d is not positive", ErrBadOptions, n)
		}
		c.maxNulls = n
		return nil
	}
}

// WithMaxExpansions bounds the Proposition 4 path enumeration. Must be
// positive.
func WithMaxExpansions(n int) Option {
	return func(c *sessionConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: max expansions %d is not positive", ErrBadOptions, n)
		}
		c.maxExpansions = n
		return nil
	}
}

// WithMaxChoices bounds the Proposition 5 word-choice enumeration. Must be
// positive.
func WithMaxChoices(n int) Option {
	return func(c *sessionConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: max choices %d is not positive", ErrBadOptions, n)
		}
		c.maxChoices = n
		return nil
	}
}

// WithCompareMode sets the comparison mode used by EvalSource (direct query
// evaluation over the source graph). The certain-answer algorithms fix their
// own modes as the paper requires and ignore this.
func WithCompareMode(mode CompareMode) Option {
	return func(c *sessionConfig) error {
		if mode != MarkedNulls && mode != SQLNulls {
			return fmt.Errorf("%w: unknown compare mode %v", ErrBadOptions, mode)
		}
		c.mode = mode
		return nil
	}
}

// WithTimeout bounds every session call: the call's context is wrapped with
// this deadline, and overruns surface as ErrCanceled wraps. Must be
// positive.
func WithTimeout(d time.Duration) Option {
	return func(c *sessionConfig) error {
		if d <= 0 {
			return fmt.Errorf("%w: timeout %v is not positive", ErrBadOptions, d)
		}
		c.timeout = d
		return nil
	}
}

// Session is a long-lived handle over one (compiled mapping, source graph)
// pair. It freezes the source graph once at construction and lazily
// memoizes — behind sync.Once gates — the universal solution, the least
// informative solution, dom(M, Gs) and the per-rule source query results,
// so an arbitrary concurrent stream of certain-answer calls shares them.
// Safe for concurrent use by any number of goroutines.
//
// The source graph must not be mutated while the session is live; sessions
// detect mutation via the graph's version counters and fail calls with
// ErrSourceMutated.
type Session struct {
	cm  *CompiledMapping
	gs  *Graph
	cfg sessionConfig
	mat *core.Materialization

	topoV, valV uint64
}

// NewSession opens a session for a compiled mapping over a source graph.
// Options are validated here (ErrBadOptions); the source graph is frozen
// once so every later evaluation shares its interned snapshot.
func NewSession(cm *CompiledMapping, gs *Graph, opts ...Option) (*Session, error) {
	if cm == nil {
		return nil, fmt.Errorf("%w: nil compiled mapping", ErrBadOptions)
	}
	if gs == nil {
		return nil, fmt.Errorf("%w: nil source graph", ErrBadOptions)
	}
	cfg := sessionConfig{chunkSize: 32, mode: MarkedNulls}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	gs.Freeze()
	topoV, valV := gs.Versions()
	return &Session{
		cm:    cm,
		gs:    gs,
		cfg:   cfg,
		mat:   core.NewMaterialization(cm, gs),
		topoV: topoV,
		valV:  valV,
	}, nil
}

// Mapping returns the session's compiled mapping.
func (s *Session) Mapping() *CompiledMapping { return s.cm }

// Derive returns a session over the same (compiled mapping, source graph)
// pair that shares this session's memoized artifacts — the universal
// solution, the least informative solution, dom(M, Gs) and the per-rule
// source results — but applies the given options on top of this session's
// configuration. Deriving is cheap (no materialization happens), so servers
// can keep one base session per (mapping, graph) pair and hand every tenant
// or request its own budgets, workers and timeout without paying for the
// solutions again. Invalid options surface as ErrBadOptions; the derived
// session is safe for concurrent use and independent of later Derive calls.
func (s *Session) Derive(opts ...Option) (*Session, error) {
	cfg := s.cfg
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	d := *s
	d.cfg = cfg
	return &d, nil
}

// Source returns the session's source graph. Callers must not mutate it
// while the session is live.
func (s *Session) Source() *Graph { return s.gs }

// begin guards a session call: it rejects a mutated source graph and wraps
// the context with the configured timeout.
func (s *Session) begin(ctx context.Context) (context.Context, context.CancelFunc, error) {
	topoV, valV := s.gs.Versions()
	if topoV != s.topoV || valV != s.valV {
		return nil, nil, fmt.Errorf("repro: %w", ErrSourceMutated)
	}
	if s.cfg.timeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, s.cfg.timeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

func (s *Session) engineOpts() engine.Options {
	return engine.Options{Workers: s.cfg.workers, ChunkSize: s.cfg.chunkSize}
}

func (s *Session) exactOpts() ExactOptions {
	return ExactOptions{MaxNulls: s.cfg.maxNulls}
}

// UniversalSolution returns the memoized SQL-null universal solution
// (Section 7). The first call builds and freezes it; later calls — from any
// goroutine — share it. Callers must not mutate the returned graph.
func (s *Session) UniversalSolution(ctx context.Context) (*Graph, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return s.mat.UniversalCtx(ctx)
}

// LeastInformativeSolution returns the memoized fresh-value least
// informative solution (Section 8). Callers must not mutate it.
func (s *Session) LeastInformativeSolution(ctx context.Context) (*Graph, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return s.mat.LeastInformativeCtx(ctx)
}

// CertainNull computes 2ⁿ_M(Q, Gs) (Theorem 4) over the memoized universal
// solution, with the start frontier sharded across the worker pool.
func (s *Session) CertainNull(ctx context.Context, q Query) (*Answers, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	u, err := s.mat.UniversalCtx(ctx)
	if err != nil {
		return nil, err
	}
	res, err := engine.EvalGraph(ctx, u, q, SQLNulls, s.engineOpts())
	if err != nil {
		return nil, err
	}
	return core.FilterNullAnswers(u, res), nil
}

// CertainLeastInformative computes 2_M(Q, Gs) for equality-only queries
// (Theorem 5) over the memoized least informative solution.
func (s *Session) CertainLeastInformative(ctx context.Context, q Query) (*Answers, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	li, err := s.mat.LeastInformativeCtx(ctx)
	if err != nil {
		return nil, err
	}
	res, err := engine.EvalGraph(ctx, li, q, MarkedNulls, s.engineOpts())
	if err != nil {
		return nil, err
	}
	return core.FilterDomAnswers(li, s.mat.DomIDs(), res), nil
}

// CertainExact computes 2_M(Q, Gs) exactly by the bounded exponential
// specialization search (Theorem 2's coNP bound), sharing the memoized
// universal solution. Budget overruns are ErrBudgetExceeded; the session's
// WithMaxNulls sets the bound.
func (s *Session) CertainExact(ctx context.Context, q Query) (*Answers, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return s.mat.CertainExact(ctx, q, s.exactOpts())
}

// CertainExactPair decides whether the single pair (from, to) is a certain
// answer, with the CertainExact semantics and early counterexample exit.
func (s *Session) CertainExactPair(ctx context.Context, q Query, from, to NodeID) (bool, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return false, err
	}
	defer cancel()
	return s.mat.CertainExactPair(ctx, q, from, to, s.exactOpts())
}

// CertainOneInequality decides one pair for paths-with-tests with at most
// one inequality in polynomial time (Proposition 4), sharing the memoized
// universal solution.
func (s *Session) CertainOneInequality(ctx context.Context, q *REEQuery, from, to NodeID) (bool, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return false, err
	}
	defer cancel()
	return s.mat.CertainOneInequality(ctx, q, from, to,
		core.OneNeqOptions{MaxExpansions: s.cfg.maxExpansions})
}

// CertainDataPathArbitrary decides one pair for a path-with-tests query
// under an arbitrary (possibly non-relational) GSM — the Proposition 5
// procedure — with the adversary's word choices sharded across the worker
// pool and bounded by WithMaxChoices/WithMaxNulls.
func (s *Session) CertainDataPathArbitrary(ctx context.Context, q *REEQuery, from, to NodeID) (bool, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return false, err
	}
	defer cancel()
	workers := s.cfg.workers
	if workers == 0 {
		// WithWorkers documents 0 as GOMAXPROCS; Prop5Options treats ≤ 1 as
		// sequential, so resolve here.
		workers = runtime.GOMAXPROCS(0)
	}
	return s.mat.CertainDataPathArbitrary(ctx, q, from, to, core.Prop5Options{
		MaxChoices: s.cfg.maxChoices,
		MaxNulls:   s.cfg.maxNulls,
		Workers:    workers,
	})
}

// Eval computes the Theorem 4 certain answers for every query concurrently
// — queries and frontiers sharded across the worker pool — over the
// memoized universal solution, returning one answer set per query,
// index-aligned.
func (s *Session) Eval(ctx context.Context, queries ...Query) ([]*Answers, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	u, err := s.mat.UniversalCtx(ctx)
	if err != nil {
		return nil, err
	}
	return engine.EvalSolution(ctx, u, s.engineOpts(), queries...)
}

// EvalSource evaluates one query directly over the frozen source graph
// (no mapping semantics) under the session's compare mode (WithCompareMode,
// default marked nulls), with the start frontier sharded across the worker
// pool.
func (s *Session) EvalSource(ctx context.Context, q Query) (*PairSet, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return engine.EvalGraph(ctx, s.gs, q, s.cfg.mode, s.engineOpts())
}

// CertainNullSeq streams the Theorem 4 certain answers as an iterator:
// the memoized universal solution is evaluated chunk by chunk, answers are
// yielded as each chunk completes, and breaking out of the range stops the
// remaining evaluation — the serving shape for callers that paginate or
// stop at the first hit. The second iterator value carries the error, if
// any, as the final yield.
func (s *Session) CertainNullSeq(ctx context.Context, q Query) iter.Seq2[Answer, error] {
	return func(yield func(Answer, error) bool) {
		ctx, cancel, err := s.begin(ctx)
		if err != nil {
			yield(Answer{}, err)
			return
		}
		defer cancel()
		u, err := s.mat.UniversalCtx(ctx)
		if err != nil {
			yield(Answer{}, err)
			return
		}
		keep := func(p datagraph.Pair) (Answer, bool) {
			from, to := u.Node(p.From), u.Node(p.To)
			if from.IsNullNode() || to.IsNullNode() {
				return Answer{}, false
			}
			return Answer{From: from, To: to}, true
		}
		s.streamGraph(ctx, u, q, SQLNulls, keep, yield)
	}
}

// CertainLeastInformativeSeq streams the Theorem 5 certain answers, chunk
// by chunk over the memoized least informative solution.
func (s *Session) CertainLeastInformativeSeq(ctx context.Context, q Query) iter.Seq2[Answer, error] {
	return func(yield func(Answer, error) bool) {
		ctx, cancel, err := s.begin(ctx)
		if err != nil {
			yield(Answer{}, err)
			return
		}
		defer cancel()
		li, err := s.mat.LeastInformativeCtx(ctx)
		if err != nil {
			yield(Answer{}, err)
			return
		}
		dom := s.mat.DomIDs()
		keep := func(p datagraph.Pair) (Answer, bool) {
			from, to := li.Node(p.From), li.Node(p.To)
			if _, ok := dom[from.ID]; !ok {
				return Answer{}, false
			}
			if _, ok := dom[to.ID]; !ok {
				return Answer{}, false
			}
			return Answer{From: from, To: to}, true
		}
		s.streamGraph(ctx, li, q, MarkedNulls, keep, yield)
	}
}

// streamGraph evaluates q over g one start-node chunk at a time, yielding
// the kept answers of each chunk in deterministic order. Queries that
// cannot evaluate per start node fall back to one materialized evaluation.
func (s *Session) streamGraph(ctx context.Context, g *Graph, q Query, mode CompareMode,
	keep func(datagraph.Pair) (Answer, bool), yield func(Answer, error) bool) {

	re, ranged := q.(core.RangeEvaluator)
	if !ranged {
		if err := ctx.Err(); err != nil {
			yield(Answer{}, core.Canceled(err))
			return
		}
		for _, p := range q.Eval(g, mode).Sorted() {
			if a, ok := keep(p); ok {
				if !yield(a, nil) {
					return
				}
			}
		}
		return
	}
	g.Freeze()
	n := g.NumNodes()
	var buf []datagraph.Pair
	for lo := 0; lo < n; lo += s.cfg.chunkSize {
		if err := ctx.Err(); err != nil {
			yield(Answer{}, core.Canceled(err))
			return
		}
		hi := lo + s.cfg.chunkSize
		if hi > n {
			hi = n
		}
		buf = buf[:0]
		re.EvalRange(g, lo, hi, mode, func(u, v int) {
			buf = append(buf, datagraph.Pair{From: u, To: v})
		})
		for _, p := range buf {
			if a, ok := keep(p); ok {
				if !yield(a, nil) {
					return
				}
			}
		}
	}
}

// MemoryBytes estimates the resident footprint of the session's memoized
// artifacts — solutions, source pair sets, interned
// snapshots — in bytes. The estimate is deterministic and approximate
// (allocator overhead is folded into flat per-entry constants), never
// triggers materialization, and is shared by every session derived from
// the same base: Derive reuses the materialization, so the bytes are the
// pair's, not the handle's. Serving layers use it to enforce a global
// memory budget across backends.
func (s *Session) MemoryBytes() int64 { return s.mat.SizeBytes() }

// PreparedQuery is a reusable query handle for sessions. Preparation pins
// the parsed form once; the per-snapshot lowered program (interned labels,
// dead transitions dropped) is cached on the underlying query the first
// time it runs against a session's solution snapshot, and Bind warms that
// cache eagerly. A PreparedQuery implements Query — pass it anywhere a
// query is accepted, including across sessions.
type PreparedQuery struct {
	q Query
	// whole caches the last whole-graph evaluation, so the frontier-shard
	// fallbacks below (for queries without their own EvalFrom/EvalRange)
	// cost one Eval per (graph, mode) instead of one per chunk.
	whole atomic.Pointer[preparedEval]
}

type preparedEval struct {
	g           *Graph
	topoV, valV uint64
	mode        CompareMode
	res         *PairSet
}

// PrepareQuery wraps a query for reuse. The same prepared query may be used
// by any number of sessions and goroutines.
func PrepareQuery(q Query) *PreparedQuery { return &PreparedQuery{q: q} }

// wholeEval evaluates the underlying query over the full graph, reusing the
// cached result while the same (graph, mode) keeps arriving unmutated.
func (p *PreparedQuery) wholeEval(g *Graph, mode CompareMode) *PairSet {
	topoV, valV := g.Versions()
	if pe := p.whole.Load(); pe != nil && pe.g == g && pe.mode == mode &&
		pe.topoV == topoV && pe.valV == valV {
		return pe.res
	}
	res := p.q.Eval(g, mode)
	p.whole.Store(&preparedEval{g: g, topoV: topoV, valV: valV, mode: mode, res: res})
	return res
}

// Unwrap returns the underlying query.
func (p *PreparedQuery) Unwrap() Query { return p.q }

// Bind eagerly materializes the session's universal solution and lowers the
// query onto its snapshot, so the first CertainNull call pays nothing. It
// is optional — evaluation lazily does the same work.
func (p *PreparedQuery) Bind(ctx context.Context, s *Session) error {
	u, err := s.UniversalSolution(ctx)
	if err != nil {
		return err
	}
	if re, ok := p.q.(core.RangeEvaluator); ok {
		re.EvalRange(u, 0, 0, SQLNulls, func(int, int) {})
	}
	return nil
}

// Eval implements Query.
func (p *PreparedQuery) Eval(g *Graph, mode CompareMode) *PairSet {
	return p.q.Eval(g, mode)
}

// EvalFrom implements core.FromEvaluator, falling back to a filtered (and
// cached, see wholeEval) full evaluation when the underlying query cannot
// start from a single node.
func (p *PreparedQuery) EvalFrom(g *Graph, u int, mode CompareMode) []int {
	if fe, ok := p.q.(core.FromEvaluator); ok {
		return fe.EvalFrom(g, u, mode)
	}
	var out []int
	p.wholeEval(g, mode).Each(func(pr datagraph.Pair) {
		if pr.From == u {
			out = append(out, pr.To)
		}
	})
	return out
}

// EvalRange implements core.RangeEvaluator, forwarding to the underlying
// query's snapshot kernel when it has one. Queries without one fall back to
// the cached whole-graph result, so a chunked schedule still pays for a
// single evaluation.
func (p *PreparedQuery) EvalRange(g *Graph, lo, hi int, mode CompareMode, emit func(u, v int)) {
	if re, ok := p.q.(core.RangeEvaluator); ok {
		re.EvalRange(g, lo, hi, mode, emit)
		return
	}
	p.wholeEval(g, mode).Each(func(pr datagraph.Pair) {
		if pr.From >= lo && pr.From < hi {
			emit(pr.From, pr.To)
		}
	})
}
