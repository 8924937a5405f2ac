package core

import (
	"context"

	"repro/internal/datagraph"
	"repro/internal/rpq"
)

// Query is a binary query over target data graphs, evaluated under a
// data-comparison mode. ree.Query, rem.Query and the RPQ adapter below all
// implement it.
type Query interface {
	Eval(g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet
}

// NavQuery adapts a purely navigational RPQ (which ignores data values and
// hence the comparison mode) to the Query interface.
type NavQuery struct{ Q *rpq.Query }

// Eval implements Query.
func (n NavQuery) Eval(g *datagraph.Graph, _ datagraph.CompareMode) *datagraph.PairSet {
	return n.Q.Eval(g)
}

// EvalFrom implements FromEvaluator, so navigational RPQs can be sharded by
// start node exactly like REE/REM queries.
func (n NavQuery) EvalFrom(g *datagraph.Graph, u int, _ datagraph.CompareMode) []int {
	return n.Q.EvalFrom(g, u)
}

// EvalRange implements RangeEvaluator: snapshot evaluation over a start
// frontier chunk with shared scratch.
func (n NavQuery) EvalRange(g *datagraph.Graph, lo, hi int, _ datagraph.CompareMode, emit func(u, v int)) {
	n.Q.EvalRange(g, lo, hi, emit)
}

// EvalFunc evaluates a query over a graph under a comparison mode. The
// certain-answer algorithms accept one so an execution engine (see
// internal/engine) can substitute a parallel, frontier-sharded evaluator
// for the sequential q.Eval; nil means q.Eval.
type EvalFunc func(g *datagraph.Graph, q Query, mode datagraph.CompareMode) *datagraph.PairSet

func runEval(eval EvalFunc, g *datagraph.Graph, q Query, mode datagraph.CompareMode) *datagraph.PairSet {
	if eval == nil {
		return q.Eval(g, mode)
	}
	return eval(g, q, mode)
}

// FilterNullAnswers keeps the pairs of res whose endpoints are non-null
// nodes of u, as Answers — the final filtering step of the Theorem 4
// algorithm, shared between the sequential path and the parallel engine.
func FilterNullAnswers(u *datagraph.Graph, res *datagraph.PairSet) *Answers {
	out := NewAnswers()
	res.Each(func(p datagraph.Pair) {
		from, to := u.Node(p.From), u.Node(p.To)
		if from.IsNullNode() || to.IsNullNode() {
			return
		}
		out.Add(Answer{From: from, To: to})
	})
	return out
}

// CertainNull computes 2ⁿ_M(Q, Gs), the certain answers over target graphs
// with SQL-null nodes (Theorem 4): build the universal solution, evaluate Q
// under SQL-null semantics, and keep only tuples without null nodes. Exact
// for queries preserved under homomorphisms (all data RPQs, Proposition 6);
// in general an underapproximation of 2_M(Q, Gs) (Section 7).
func CertainNull(m *Mapping, gs *datagraph.Graph, q Query) (*Answers, error) {
	return CertainNullEval(m, gs, q, nil)
}

// CertainNullEval is CertainNull with a pluggable evaluator.
func CertainNullEval(m *Mapping, gs *datagraph.Graph, q Query, eval EvalFunc) (*Answers, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.CertainNull(q, eval)
}

// CertainNull computes 2ⁿ_M(Q, Gs) on the memoized universal solution; the
// materialization variant of the package-level CertainNull.
func (mat *Materialization) CertainNull(q Query, eval EvalFunc) (*Answers, error) {
	u, err := mat.Universal()
	if err != nil {
		return nil, err
	}
	return FilterNullAnswers(u, runEval(eval, u, q, datagraph.SQLNulls)), nil
}

// CertainLeastInformative computes 2_M(Q, Gs) for REM= and REE= queries
// (Theorem 5): evaluate Q on the least informative solution and keep only
// tuples over dom(M, Gs). The caller is responsible for Q being
// equality-only (rem.IsEqualityOnly / ree.IsEqualityOnly); for queries with
// inequalities the result may overapproximate.
func CertainLeastInformative(m *Mapping, gs *datagraph.Graph, q Query) (*Answers, error) {
	return CertainLeastInformativeEval(m, gs, q, nil)
}

// CertainLeastInformativeEval is CertainLeastInformative with a pluggable
// evaluator.
func CertainLeastInformativeEval(m *Mapping, gs *datagraph.Graph, q Query, eval EvalFunc) (*Answers, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.CertainLeastInformative(q, eval)
}

// CertainLeastInformative computes 2_M(Q, Gs) for equality-only queries on
// the memoized least informative solution; the materialization variant of
// the package-level CertainLeastInformative.
func (mat *Materialization) CertainLeastInformative(q Query, eval EvalFunc) (*Answers, error) {
	li, err := mat.LeastInformative()
	if err != nil {
		return nil, err
	}
	res := runEval(eval, li, q, datagraph.MarkedNulls)
	return FilterDomAnswers(li, mat.DomIDs(), res), nil
}

// FilterDomAnswers keeps the pairs of res whose endpoints lie in dom, as
// Answers — the final filtering step of the Theorem 5 algorithm, shared
// between the sequential path, the parallel engine and sessions.
func FilterDomAnswers(g *datagraph.Graph, dom map[datagraph.NodeID]struct{}, res *datagraph.PairSet) *Answers {
	out := NewAnswers()
	res.Each(func(p datagraph.Pair) {
		from, to := g.Node(p.From), g.Node(p.To)
		if _, ok := dom[from.ID]; !ok {
			return
		}
		if _, ok := dom[to.ID]; !ok {
			return
		}
		out.Add(Answer{From: from, To: to})
	})
	return out
}

// ExactOptions bounds the exponential search of CertainExact.
type ExactOptions struct {
	// MaxNulls caps the number of null nodes in the universal solution;
	// beyond it CertainExact refuses (the search is exponential in this
	// number, mirroring the coNP bound of Theorem 2). Default 10.
	MaxNulls int
}

// DefaultExactOptions returns the default bounds.
func DefaultExactOptions() ExactOptions { return ExactOptions{MaxNulls: 10} }

// Normalized validates the options once, up front: a negative MaxNulls is
// ErrBadOptions, zero selects the default. Sessions call this at
// construction; the legacy free functions call it at entry — either way the
// search loops below never re-check.
func (o ExactOptions) Normalized() (ExactOptions, error) {
	if o.MaxNulls < 0 {
		return o, badOptionf("MaxNulls %d is negative", o.MaxNulls)
	}
	if o.MaxNulls == 0 {
		o.MaxNulls = DefaultExactOptions().MaxNulls
	}
	return o, nil
}

// CertainExact computes 2_M(Q, Gs) exactly for relational GSMs and queries
// closed under value-preserving homomorphisms (all data RPQs): it
// intersects Q over every canonical value specialization of the universal
// solution. Specializations assign to each null node either a value
// occurring in Gs or a fresh value shared within a class of nulls; classes
// are enumerated as set partitions in restricted-growth form, so no two
// enumerated specializations differ only by renaming. This realizes the
// coNP upper bound of Theorem 2/Proposition 2 as a deterministic
// exponential search and serves as the ground-truth oracle for the
// tractable algorithms.
func CertainExact(m *Mapping, gs *datagraph.Graph, q Query, opts ExactOptions) (*Answers, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.CertainExact(context.Background(), q, opts)
}

// CertainExact is the materialization variant of the package-level
// CertainExact: the universal solution, dom and the source value pool come
// from the memoized artifacts, so repeated exact queries against one (M, Gs)
// pay for solution building once. The search clones the shared universal
// solution, making concurrent calls safe, and honors ctx between
// specializations (returning an ErrCanceled wrap).
func (mat *Materialization) CertainExact(ctx context.Context, q Query, opts ExactOptions) (*Answers, error) {
	opts, err := opts.Normalized()
	if err != nil {
		return nil, err
	}
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		return nil, err
	}
	nulls, err := mat.UniversalNullsCtx(ctx)
	if err != nil {
		return nil, err
	}
	if len(nulls) > opts.MaxNulls {
		return nil, budgetErrf("core: %d null nodes exceed the exact-search budget of %d",
			len(nulls), opts.MaxNulls)
	}
	gs := mat.gs
	dom := mat.DomIDs()
	sourceValues := mat.SourceValues()
	fresh := newFreshValues(gs, "_adv")
	// Pre-generate one fresh value per potential class.
	freshPool := make([]datagraph.Value, len(nulls))
	for i := range freshPool {
		freshPool[i] = fresh.next()
	}

	// One mutable copy of the universal solution, specialized in place per
	// candidate (like CertainExactPair): cloning and re-indexing the graph
	// once per enumerated specialization would dominate the search. The
	// clone also isolates this call from the shared memoized solution.
	spec := u.Clone()
	nullIdx := make([]int, len(nulls))
	for i, id := range nulls {
		nullIdx[i], _ = spec.IndexOf(id)
	}
	assign := make([]datagraph.Value, len(nulls))

	var result *Answers
	var ctxErr error
	evalOne := func() bool { // returns false to stop early (result empty)
		if err := ctx.Err(); err != nil {
			ctxErr = Canceled(err)
			return false
		}
		for i, idx := range nullIdx {
			spec.SetValue(idx, assign[i])
		}
		res := q.Eval(spec, datagraph.MarkedNulls)
		ans := NewAnswers()
		res.Each(func(p datagraph.Pair) {
			from, to := spec.Node(p.From), spec.Node(p.To)
			if _, ok := dom[from.ID]; !ok {
				return
			}
			if _, ok := dom[to.ID]; !ok {
				return
			}
			// Report the original (source) values: dom nodes keep them.
			ans.Add(Answer{From: from, To: to})
		})
		if result == nil {
			result = ans
		} else {
			result.Intersect(ans)
		}
		return result.Len() > 0
	}

	// Enumerate: each null takes a source value, an already-open fresh
	// class, or opens the next fresh class (restricted growth).
	var rec func(i, classesOpen int) bool
	rec = func(i, classesOpen int) bool {
		if i == len(nulls) {
			return evalOne()
		}
		for _, v := range sourceValues {
			assign[i] = v
			if !rec(i+1, classesOpen) {
				return false
			}
		}
		for c := 0; c <= classesOpen; c++ {
			assign[i] = freshPool[c]
			open := classesOpen
			if c == classesOpen {
				open++
			}
			if !rec(i+1, open) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
	if ctxErr != nil {
		return nil, ctxErr
	}
	if result == nil {
		result = NewAnswers()
	}
	return result, nil
}

// FromEvaluator is an optional fast path implemented by queries that can
// evaluate from a single start node (ree.Query and rem.Query do).
type FromEvaluator interface {
	EvalFrom(g *datagraph.Graph, u int, mode datagraph.CompareMode) []int
}

// RangeEvaluator is the batched refinement of FromEvaluator: evaluate every
// start node in [lo, hi) against the graph's interned snapshot, reusing
// scratch across the whole chunk and emitting each answer pair once. The
// engine's frontier shards prefer it over per-node EvalFrom calls.
// ree.Query, rem.Query and NavQuery implement it.
type RangeEvaluator interface {
	EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int))
}

// CertainExactPair decides whether the single pair (from, to) is a certain
// answer, with the same semantics and search as CertainExact but evaluating
// each specialization only from the asked node and stopping at the first
// counterexample specialization. This is the oracle used by the
// coNP-hardness experiments, where only one pair matters.
func CertainExactPair(m *Mapping, gs *datagraph.Graph, q Query,
	from, to datagraph.NodeID, opts ExactOptions) (bool, error) {

	mat, err := throwaway(m, gs)
	if err != nil {
		return false, err
	}
	return mat.CertainExactPair(context.Background(), q, from, to, opts)
}

// CertainExactPair is the materialization variant of the package-level
// CertainExactPair, sharing the memoized universal solution and dom.
func (mat *Materialization) CertainExactPair(ctx context.Context, q Query,
	from, to datagraph.NodeID, opts ExactOptions) (bool, error) {

	opts, err := opts.Normalized()
	if err != nil {
		return false, err
	}
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		return false, err
	}
	dom := mat.DomIDs()
	if _, ok := dom[from]; !ok {
		return false, nil
	}
	if _, ok := dom[to]; !ok {
		return false, nil
	}
	nulls, err := mat.UniversalNullsCtx(ctx)
	if err != nil {
		return false, err
	}
	if len(nulls) > opts.MaxNulls {
		return false, budgetErrf("core: %d null nodes exceed the exact-search budget of %d",
			len(nulls), opts.MaxNulls)
	}
	gs := mat.gs
	sourceValues := mat.SourceValues()
	fresh := newFreshValues(gs, "_adv")
	freshPool := make([]datagraph.Value, len(nulls))
	for i := range freshPool {
		freshPool[i] = fresh.next()
	}
	fe, fastPath := q.(FromEvaluator)
	// One mutable copy of the universal solution, specialised in place per
	// candidate (a clone per candidate dominates the search cost otherwise).
	spec := u.Clone()
	nullIdx := make([]int, len(nulls))
	for i, id := range nulls {
		nullIdx[i], _ = spec.IndexOf(id)
	}
	fi, _ := spec.IndexOf(from)
	ti, _ := spec.IndexOf(to)
	assign := make([]datagraph.Value, len(nulls))

	var ctxErr error
	holds := func() bool {
		if err := ctx.Err(); err != nil {
			ctxErr = Canceled(err)
			return false // unwind the search; the parked error wins below
		}
		for i, idx := range nullIdx {
			spec.SetValue(idx, assign[i])
		}
		if fastPath {
			for _, v := range fe.EvalFrom(spec, fi, datagraph.MarkedNulls) {
				if v == ti {
					return true
				}
			}
			return false
		}
		return q.Eval(spec, datagraph.MarkedNulls).Has(fi, ti)
	}

	certain := true
	var rec func(i, classesOpen int) bool // returns false to stop (counterexample found)
	rec = func(i, classesOpen int) bool {
		if i == len(nulls) {
			if !holds() {
				certain = false
				return false
			}
			return true
		}
		for _, v := range sourceValues {
			assign[i] = v
			if !rec(i+1, classesOpen) {
				return false
			}
		}
		for c := 0; c <= classesOpen; c++ {
			assign[i] = freshPool[c]
			open := classesOpen
			if c == classesOpen {
				open++
			}
			if !rec(i+1, open) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
	if ctxErr != nil {
		return false, ctxErr
	}
	return certain, nil
}

// SpecializationCount returns how many canonical specializations
// CertainExact would enumerate for f nulls and k source values — used by
// the experiments to report search-space sizes.
func SpecializationCount(f, k int) int {
	var rec func(i, open int) int
	rec = func(i, open int) int {
		if i == f {
			return 1
		}
		total := k * rec(i+1, open)
		for c := 0; c <= open; c++ {
			o := open
			if c == open {
				o++
			}
			total += rec(i+1, o)
		}
		return total
	}
	return rec(0, 0)
}
