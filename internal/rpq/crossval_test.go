package rpq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/rex"
)

// Cross-validation of the product-automaton evaluator against a naive
// bounded path enumerator on random graphs: for every pair the evaluator
// reports, a witness search finds a matching path (soundness), and every
// enumerated matching path's pair is reported (completeness up to the
// enumeration bound). Both oracles read the graph through g.Edges(), never
// through the snapshot the evaluator uses.

// halfEdge is one out-edge in the oracles' adjacency lists.
type halfEdge struct {
	label string
	to    int
}

// edgeLists returns every node's out-edges, built from g.Edges().
func edgeLists(g *datagraph.Graph) [][]halfEdge {
	out := make([][]halfEdge, g.NumNodes())
	for _, e := range g.Edges() {
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		out[from] = append(out[from], halfEdge{label: e.Label, to: to})
	}
	return out
}

// witness returns a shortest path from u to v whose label the query
// accepts, if one exists: BFS over the product of the graph with the
// query NFA, remembering each product state's parent.
func witness(q *Query, g *datagraph.Graph, u, v int) (datagraph.Path, bool) {
	adj := edgeLists(g)
	nfa := q.nfa
	numStates := nfa.NumStates
	type prev struct {
		id    int // predecessor product-state id, -1 for roots
		label string
	}
	parents := make(map[int]prev)
	var queue []int
	push := func(node, state, from int, label string) {
		id := node*numStates + state
		if _, dup := parents[id]; !dup {
			parents[id] = prev{id: from, label: label}
			queue = append(queue, id)
		}
	}
	for _, s := range nfa.Closure(nfa.Start) {
		push(u, s, -1, "")
	}
	// FIFO order makes the witness shortest.
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		node, state := id/numStates, id%numStates
		if node == v && state == nfa.Accept {
			// Every non-root parent edge is one graph edge, so the chain of
			// parents spells the path in reverse.
			var nodes []int
			var labels []string
			for cur := id; ; {
				nodes = append([]int{cur / numStates}, nodes...)
				p := parents[cur]
				if p.id == -1 {
					break
				}
				labels = append([]string{p.label}, labels...)
				cur = p.id
			}
			return datagraph.Path{Nodes: nodes, Labels: labels}, true
		}
		for _, step := range nfa.Steps[state] {
			for _, he := range adj[node] {
				if !step.AnyLabel && he.label != step.Label {
					continue
				}
				for _, c := range nfa.Closure(step.To) {
					push(he.to, c, id, he.label)
				}
			}
		}
	}
	return datagraph.Path{}, false
}

func randomGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), datagraph.V(fmt.Sprintf("v%d", i%4)))
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

// enumeratePairs finds all pairs connected by a path of length ≤ maxLen
// whose label the NFA accepts.
func enumeratePairs(g *datagraph.Graph, nfa *rex.NFA, maxLen int) *datagraph.PairSet {
	adj := edgeLists(g)
	out := datagraph.NewPairSet()
	var walk func(start, cur int, word []string)
	walk = func(start, cur int, word []string) {
		if nfa.Matches(word) {
			out.Add(start, cur)
		}
		if len(word) == maxLen {
			return
		}
		for _, he := range adj[cur] {
			walk(start, he.to, append(word, he.label))
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		walk(u, u, nil)
	}
	return out
}

func TestEvalCrossValidation(t *testing.T) {
	exprs := []string{"a", "a b", "a|b", "a* b", "(a b)+", ".*", ". . ."}
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 8, 14)
		for _, expr := range exprs {
			q := MustParse(expr)
			got := q.Eval(g)
			naive := enumeratePairs(g, rex.Compile(rex.MustParse(expr)), 6)
			// Completeness w.r.t. bounded enumeration: everything the naive
			// search finds, the evaluator finds.
			if !naive.SubsetOf(got) {
				t.Fatalf("seed %d expr %q: evaluator missed pairs: naive %v vs got %v",
					seed, expr, naive.Sorted(), got.Sorted())
			}
			// Soundness: every reported pair has a witness path whose label
			// is accepted.
			ok := true
			got.Each(func(p datagraph.Pair) {
				path, found := witness(q, g, p.From, p.To)
				if !found {
					ok = false
					return
				}
				if err := path.Validate(g); err != nil {
					ok = false
				}
			})
			if !ok {
				t.Fatalf("seed %d expr %q: unsound pair reported", seed, expr)
			}
		}
	}
}

// Word-query fast path agrees with the generic product construction.
func TestWordFastPathAgreesWithGeneric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 10, 20)
		for _, word := range [][]string{{"a"}, {"a", "b"}, {"b", "b", "a"}} {
			fast := Word(word...).Eval(g)
			// Force the generic path by wrapping in a union with an
			// impossible branch (kind becomes KindRegex).
			expr := ""
			for i, l := range word {
				if i > 0 {
					expr += " "
				}
				expr += l
			}
			generic := MustParse(expr + "|zz zz zz zz")
			if generic.Kind() != KindRegex {
				t.Fatal("expected generic kind")
			}
			slow := generic.Eval(g)
			if !fast.Equal(slow) {
				t.Fatalf("seed %d word %v: fast %v vs generic %v",
					seed, word, fast.Sorted(), slow.Sorted())
			}
		}
	}
}

// Reachability fast path agrees with the star-of-wildcard regex.
func TestReachabilityFastPathAgrees(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 10, 18)
		fast := Reachability().Eval(g)
		slow := MustParse(".*|zz zz").Eval(g) // generic kind
		if !fast.Equal(slow) {
			t.Fatalf("seed %d: reachability fast path diverges", seed)
		}
	}
}
