package ree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagraph"
)

// Cross-validation of the register-automaton graph evaluator against naive
// bounded path enumeration + the direct matcher. This closes the loop
// between the two REE semantics implementations end to end: graph product
// vs. per-path membership.

func randomGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), datagraph.V(fmt.Sprintf("v%d", rng.Intn(3))))
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

// halfEdge is one out-edge in the oracles' adjacency lists.
type halfEdge struct {
	label string
	to    int
}

// edgeLists returns every node's out-edges, built from g.Edges() so the
// oracles never read the snapshot the evaluator uses.
func edgeLists(g *datagraph.Graph) [][]halfEdge {
	out := make([][]halfEdge, g.NumNodes())
	for _, e := range g.Edges() {
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		out[from] = append(out[from], halfEdge{label: e.Label, to: to})
	}
	return out
}

// enumerate finds all pairs connected by a path of length ≤ maxLen whose
// data path the direct matcher accepts.
func enumerate(g *datagraph.Graph, e Expr, maxLen int) *datagraph.PairSet {
	adj := edgeLists(g)
	out := datagraph.NewPairSet()
	var walk func(start int, nodes []int, labels []string)
	walk = func(start int, nodes []int, labels []string) {
		vals := make([]datagraph.Value, len(nodes))
		for i, n := range nodes {
			vals[i] = g.Value(n)
		}
		w := datagraph.NewDataPath(vals, labels)
		if MatchDirect(e, w, datagraph.MarkedNulls) {
			out.Add(start, nodes[len(nodes)-1])
		}
		if len(labels) == maxLen {
			return
		}
		for _, he := range adj[nodes[len(nodes)-1]] {
			walk(start, append(nodes, he.to), append(labels, he.label))
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		walk(u, []int{u}, nil)
	}
	return out
}

func TestGraphEvalCrossValidation(t *testing.T) {
	// Expressions whose shortest matches fit in the enumeration bound, so
	// bounded enumeration is complete enough to compare: we check
	// enumerated ⊆ evaluated always, and equality for non-recursive
	// expressions (whose matches cannot exceed their fixed length).
	bounded := []string{"a", "a=", "a!=", "(a b)=", "(a b)!=", "a b a", "(a (b a)=)!="}
	recursive := []string{"(a=)+", ".* (.+)= .*", "(a|b)+"}
	const maxLen = 4
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 7, 12)
		for _, expr := range bounded {
			e := MustParse(expr)
			q := New(e)
			got := q.Eval(g, datagraph.MarkedNulls)
			naive := enumerate(g, e, maxLen)
			if !got.Equal(naive) {
				t.Fatalf("seed %d expr %q: eval %v vs enumeration %v",
					seed, expr, got.Sorted(), naive.Sorted())
			}
		}
		for _, expr := range recursive {
			e := MustParse(expr)
			q := New(e)
			got := q.Eval(g, datagraph.MarkedNulls)
			naive := enumerate(g, e, maxLen)
			if !naive.SubsetOf(got) {
				t.Fatalf("seed %d expr %q: evaluator missed enumerated pairs", seed, expr)
			}
		}
	}
}

// SQL-null agreement between graph evaluation and per-path matching on
// graphs containing null nodes.
func TestGraphEvalSQLNullCrossValidation(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("c1", datagraph.V("x"))
	g.MustAddNode("nu", datagraph.Null())
	g.MustAddNode("c2", datagraph.V("x"))
	g.MustAddEdge("c1", "a", "nu")
	g.MustAddEdge("nu", "a", "c2")
	g.MustAddEdge("c1", "b", "c2")
	for _, expr := range []string{"(a a)=", "a=", "(a a)!=", "b=", "(b)!="} {
		e := MustParse(expr)
		q := New(e)
		got := q.Eval(g, datagraph.SQLNulls)
		// Rebuild naive with SQL mode.
		adj := edgeLists(g)
		naive := datagraph.NewPairSet()
		var walk func(start int, nodes []int, labels []string)
		walk = func(start int, nodes []int, labels []string) {
			vals := make([]datagraph.Value, len(nodes))
			for i, n := range nodes {
				vals[i] = g.Value(n)
			}
			if MatchDirect(e, datagraph.NewDataPath(vals, labels), datagraph.SQLNulls) {
				naive.Add(start, nodes[len(nodes)-1])
			}
			if len(labels) == 3 {
				return
			}
			for _, he := range adj[nodes[len(nodes)-1]] {
				walk(start, append(nodes, he.to), append(labels, he.label))
			}
		}
		for u := 0; u < g.NumNodes(); u++ {
			walk(u, []int{u}, nil)
		}
		if !got.Equal(naive) {
			t.Fatalf("expr %q under SQL nulls: eval %v vs enumeration %v",
				expr, got.Sorted(), naive.Sorted())
		}
	}
}
