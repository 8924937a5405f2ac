package gxpath

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagraph"
)

// Cross-validation of the snapshot evaluator (interned adjacency, dense
// bitmap relation algebra) against a naive transcription of Figure 1 that
// reads the graph only through g.Edges() and g.Value and represents every
// relation as a plain set of pairs.

type pair struct{ from, to int }

type relation map[pair]bool

// figure1 is the reference semantics of GXPath_core^~ plus the regular
// operators, over edges taken from g.Edges().
type figure1 struct {
	g     *datagraph.Graph
	mode  datagraph.CompareMode
	edges []datagraph.Edge
}

func newFigure1(g *datagraph.Graph, mode datagraph.CompareMode) *figure1 {
	return &figure1{g: g, mode: mode, edges: g.Edges()}
}

func (f *figure1) idx(id datagraph.NodeID) int {
	i, _ := f.g.IndexOf(id)
	return i
}

func (f *figure1) compose(l, r relation) relation {
	out := relation{}
	for a := range l {
		for b := range r {
			if a.to == b.from {
				out[pair{a.from, b.to}] = true
			}
		}
	}
	return out
}

// closure is the reflexive-transitive closure of r, by naive fixpoint.
func (f *figure1) closure(r relation) relation {
	out := relation{}
	for v := 0; v < f.g.NumNodes(); v++ {
		out[pair{v, v}] = true
	}
	for {
		grown := false
		for p := range f.compose(out, r) {
			if !out[p] {
				out[p] = true
				grown = true
			}
		}
		if !grown {
			return out
		}
	}
}

// filter keeps the pairs of r whose endpoint values satisfy keep.
func (f *figure1) filter(r relation, keep func(a, b datagraph.Value) bool) relation {
	out := relation{}
	for q := range r {
		if keep(f.g.Value(q.from), f.g.Value(q.to)) {
			out[q] = true
		}
	}
	return out
}

func (f *figure1) path(p PathExpr) relation {
	n := f.g.NumNodes()
	out := relation{}
	switch t := p.(type) {
	case PEps:
		for v := 0; v < n; v++ {
			out[pair{v, v}] = true
		}
	case PLabel:
		for _, e := range f.edges {
			if e.Label != t.Label {
				continue
			}
			if t.Inverse {
				out[pair{f.idx(e.To), f.idx(e.From)}] = true
			} else {
				out[pair{f.idx(e.From), f.idx(e.To)}] = true
			}
		}
	case PStar:
		return f.closure(f.path(PLabel{Label: t.Label, Inverse: t.Inverse}))
	case PConcat:
		return f.compose(f.path(t.L), f.path(t.R))
	case PUnion:
		for q := range f.path(t.L) {
			out[q] = true
		}
		for q := range f.path(t.R) {
			out[q] = true
		}
	case PEq:
		return f.filter(f.path(t.Inner), f.mode.Eq)
	case PNeq:
		return f.filter(f.path(t.Inner), f.mode.Neq)
	case PTest:
		for v, ok := range f.node(t.Cond) {
			if ok {
				out[pair{v, v}] = true
			}
		}
	case PNeg:
		inner := f.path(t.Inner)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if !inner[pair{u, v}] {
					out[pair{u, v}] = true
				}
			}
		}
	case PAnd:
		r := f.path(t.R)
		for q := range f.path(t.L) {
			if r[q] {
				out[q] = true
			}
		}
	case PStarAny:
		return f.closure(f.path(t.Inner))
	default:
		panic(fmt.Sprintf("figure1: unknown path expression %T", p))
	}
	return out
}

func (f *figure1) node(phi NodeExpr) []bool {
	out := make([]bool, f.g.NumNodes())
	switch t := phi.(type) {
	case NNot:
		for v, ok := range f.node(t.Inner) {
			out[v] = !ok
		}
	case NAnd:
		l, r := f.node(t.L), f.node(t.R)
		for v := range out {
			out[v] = l[v] && r[v]
		}
	case NOr:
		l, r := f.node(t.L), f.node(t.R)
		for v := range out {
			out[v] = l[v] || r[v]
		}
	case NExists:
		for q := range f.path(t.Path) {
			out[q.from] = true
		}
	default:
		panic(fmt.Sprintf("figure1: unknown node expression %T", phi))
	}
	return out
}

func randomDataGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		v := datagraph.V(fmt.Sprintf("v%d", rng.Intn(3)))
		if rng.Intn(5) == 0 {
			v = datagraph.Null()
		}
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), v)
	}
	for k := 0; k < e; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		label := []string{"a", "b"}[rng.Intn(2)]
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", from)), label,
			datagraph.NodeID(fmt.Sprintf("n%d", to)))
	}
	return g
}

func TestDensePathEvalMatchesSparse(t *testing.T) {
	paths := []string{
		"a",
		"a-",
		"a*",
		"a- b",
		"(a b)=",
		"(a- b)!=",
		"a | b a",
		"e",
		"[<a b>] a",
		"~a",
		"a & (a b | a)",
		"(a b)*",
		"~(a*) & b-",
	}
	nodes := []string{
		"<a>",
		"<a (a- b)=>",
		"!<b b>",
		"<a> & !<b->",
		"<~(a b)>",
	}
	for seed := int64(0); seed < 10; seed++ {
		g := randomDataGraph(seed, 3+int(seed), 5+int(seed*4)%28)
		for _, mode := range []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls} {
			for _, ps := range paths {
				p := MustParsePath(ps)
				dense := EvalPath(g, p, mode) // freezes: dense bitmap algebra
				ref := newFigure1(g, mode).path(p)
				sparse := datagraph.NewPairSet()
				for q := range ref {
					sparse.Add(q.from, q.to)
				}
				if !dense.Equal(sparse) || !sparse.Equal(dense) {
					t.Fatalf("seed %d path %q mode %v: dense %v, reference %v",
						seed, ps, mode, dense.Sorted(), sparse.Sorted())
				}
			}
			for _, ns := range nodes {
				nx := MustParseNode(ns)
				dense := EvalNode(g, nx, mode)
				sparse := newFigure1(g, mode).node(nx)
				for i := range dense {
					if dense[i] != sparse[i] {
						t.Fatalf("seed %d node expr %q mode %v: disagree at node %d",
							seed, ns, mode, i)
					}
				}
			}
		}
	}
}
