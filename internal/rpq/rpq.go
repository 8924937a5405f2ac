// Package rpq implements regular path queries (RPQs) over data graphs
// (Section 2 of Francis & Libkin, PODS'17). An RPQ is a regular expression e
// over the edge alphabet Σ; on a data graph G it returns the pairs of nodes
// connected by a path whose label is in L(e):
//
//	e(G) = {(v, v′) | ∃π : v →π v′ and λ(π) ∈ e}
//
// Evaluation uses the product of the graph with the Thompson NFA of e,
// explored by BFS — the textbook NLogspace-style procedure. Word RPQs and
// atomic RPQs (the building blocks of relational and LAV mappings,
// Definitions 1 and 3) get dedicated fast paths.
package rpq

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/datagraph"
	"repro/internal/rex"
)

// Query is a compiled RPQ.
type Query struct {
	expr rex.Regex
	nfa  *rex.NFA
	word []string // non-nil iff the expression denotes a single word
	// kind caches the structural classification used by mapping analysis.
	kind Kind
	// Start-frontier metadata, computed once by New: the labels able to
	// begin a nonempty match (exhaustive unless an any-label step is
	// reachable from the start state) and whether ε ∈ L(e). The kernel
	// skips start nodes with no out-edge carrying a start label.
	startLabels []string
	startAny    bool
	emptyOK     bool

	// progCache holds the NFA lowered onto the most recent graph topology
	// (step labels interned, dead steps dropped); see snapshot.go.
	progCache atomic.Pointer[snapProg]
}

// Kind classifies RPQs the way the paper's mapping definitions do.
type Kind int

const (
	// KindRegex is a general regular expression.
	KindRegex Kind = iota
	// KindWord is a word RPQ (single word w ∈ Σ*), the right-hand-side
	// class of relational mappings (Definition 3).
	KindWord
	// KindAtomic is a single letter a ∈ Σ, the left-hand-side class of LAV
	// mappings and both sides of LAV/GAV rules.
	KindAtomic
	// KindReachability is Σ*, the unconstrained reachability query of the
	// relational/reachability mappings in Theorem 1.
	KindReachability
)

func (k Kind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindAtomic:
		return "atomic"
	case KindReachability:
		return "reachability"
	default:
		return "regex"
	}
}

// New compiles a regular expression into an RPQ.
func New(e rex.Regex) *Query {
	q := &Query{expr: e, nfa: rex.Compile(e), kind: KindRegex}
	if w, ok := rex.IsWord(e); ok {
		q.word = w
		q.kind = KindWord
		if len(w) == 1 {
			q.kind = KindAtomic
		}
	} else if rex.IsReachability(e) {
		q.kind = KindReachability
	}
	labelSet := map[string]struct{}{}
	for _, s := range q.nfa.Closure(q.nfa.Start) {
		if s == q.nfa.Accept {
			q.emptyOK = true
		}
		for _, step := range q.nfa.Steps[s] {
			if step.AnyLabel {
				q.startAny = true
				continue
			}
			labelSet[step.Label] = struct{}{}
		}
	}
	for l := range labelSet {
		q.startLabels = append(q.startLabels, l)
	}
	sort.Strings(q.startLabels)
	return q
}

// Parse compiles the rex concrete syntax into an RPQ.
func Parse(s string) (*Query, error) {
	e, err := rex.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("rpq: %w", err)
	}
	return New(e), nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// Atomic returns the atomic RPQ for label a.
func Atomic(a string) *Query { return New(rex.Lit{Label: a}) }

// Word returns the word RPQ for w = a₁…aₙ.
func Word(labels ...string) *Query { return New(rex.Word(labels...)) }

// Reachability returns the RPQ Σ*.
func Reachability() *Query { return New(rex.Reachability()) }

// Expr returns the underlying regular expression.
func (q *Query) Expr() rex.Regex { return q.expr }

// Kind returns the structural classification.
func (q *Query) Kind() Kind { return q.kind }

// AsWord returns the word and true if the query is a word RPQ.
func (q *Query) AsWord() ([]string, bool) {
	if q.word == nil {
		return nil, false
	}
	return append([]string(nil), q.word...), true
}

// String renders the query in rex syntax.
func (q *Query) String() string { return q.expr.String() }

// Eval returns e(G): all pairs of node indices connected by a path whose
// label is in L(e). The graph is frozen once and every start node runs
// through the interned snapshot kernel with shared scratch.
func (q *Query) Eval(g *datagraph.Graph) *datagraph.PairSet {
	n := g.NumNodes()
	out := datagraph.NewPairSetSized(n)
	q.EvalRange(g, 0, n, out.Add)
	return out
}

// EvalFrom returns the nodes v such that (u, v) ∈ e(G), by BFS over the
// product of G with the query NFA. It freezes the graph (cheap when already
// frozen) and runs the snapshot kernel.
func (q *Query) EvalFrom(g *datagraph.Graph, u int) []int {
	snap := g.Freeze()
	p := q.program(snap)
	sc := p.getScratch()
	var out []int
	q.evalFromSnap(p, snap, u, sc, func(v int) { out = append(out, v) })
	p.scratch.Put(sc)
	return out
}
