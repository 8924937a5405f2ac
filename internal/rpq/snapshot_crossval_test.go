package rpq

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagraph"
)

// oracleEval computes e(G) by a naive product BFS from every start node
// over adjacency built from g.Edges(): the reference semantics the
// snapshot kernel must reproduce exactly.
func oracleEval(q *Query, g *datagraph.Graph) *datagraph.PairSet {
	adj := edgeLists(g)
	nfa := q.nfa
	numStates := nfa.NumStates
	out := datagraph.NewPairSet()
	for u := 0; u < g.NumNodes(); u++ {
		visited := make([]bool, g.NumNodes()*numStates)
		var stack []int // product states node*numStates+state
		push := func(node, state int) {
			if id := node*numStates + state; !visited[id] {
				visited[id] = true
				stack = append(stack, id)
			}
		}
		for _, s := range nfa.Closure(nfa.Start) {
			push(u, s)
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			node, state := id/numStates, id%numStates
			if state == nfa.Accept {
				out.Add(u, node)
			}
			for _, step := range nfa.Steps[state] {
				for _, he := range adj[node] {
					if step.AnyLabel || he.label == step.Label {
						for _, c := range nfa.Closure(step.To) {
							push(he.to, c)
						}
					}
				}
			}
		}
	}
	return out
}

// TestSnapshotEvalMatchesLegacy cross-validates the interned snapshot
// kernel against the naive product-BFS oracle on randomized graphs, for
// every structural query kind (atomic, word, general regex, wildcard,
// reachability) including labels absent from the graph (dead-step pruning).
func TestSnapshotEvalMatchesLegacy(t *testing.T) {
	queries := []string{
		"a",
		"a b",
		"a b a",
		"(a | b)*",
		"a* b",
		"(a b)+",
		"a?",
		". .",
		".*",
		"(a | b b)* a",
		"c",
		"a c b",
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(int64(trial), 1+rng.Intn(14), rng.Intn(40))
		n := g.NumNodes()
		for _, qs := range queries {
			q := MustParse(qs)
			got := q.Eval(g) // freezes g, snapshot kernel
			want := oracleEval(q, g)
			if !got.Equal(want) {
				t.Fatalf("trial %d: query %q: snapshot eval %v, oracle %v",
					trial, qs, got.Sorted(), want.Sorted())
			}
			// Per-start agreement, too.
			u := rng.Intn(n)
			snapFrom := append([]int(nil), q.EvalFrom(g, u)...)
			sort.Ints(snapFrom)
			var wantFrom []int
			want.Each(func(p datagraph.Pair) {
				if p.From == u {
					wantFrom = append(wantFrom, p.To)
				}
			})
			sort.Ints(wantFrom)
			if len(snapFrom) != len(wantFrom) {
				t.Fatalf("trial %d: query %q: EvalFrom(%d) = %v, want %v", trial, qs, u, snapFrom, wantFrom)
			}
			for i := range snapFrom {
				if snapFrom[i] != wantFrom[i] {
					t.Fatalf("trial %d: query %q: EvalFrom(%d) = %v, want %v", trial, qs, u, snapFrom, wantFrom)
				}
			}
		}
	}
}

// TestProgramSurvivesValueRefreeze pins the program cache to the graph's
// topology: a SetValue followed by Freeze yields a new snapshot but must
// reuse the lowered steps and the scratch pool, FreezeFull of the same
// topology too, while a topology change must lower afresh.
func TestProgramSurvivesValueRefreeze(t *testing.T) {
	g := randomGraph(5, 8, 20)
	q := MustParse("(a | b b)* a")
	s1 := g.Freeze()
	p1 := q.program(s1)
	g.SetValue(0, datagraph.V("changed"))
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("SetValue must invalidate the snapshot")
	}
	for _, snap := range []*datagraph.Snapshot{s2, g.FreezeFull()} {
		p := q.program(snap)
		if p != p1 || &p.steps[0] != &p1.steps[0] || &p.scratch != &p1.scratch {
			t.Fatal("a snapshot of the same topology must reuse the lowered program and its scratch pool")
		}
	}
	g.MustAddEdge(g.Node(0).ID, "a", g.Node(1).ID)
	g.MustAddNode("fresh", datagraph.V("x"))
	if q.program(g.Freeze()) == p1 {
		t.Fatal("a topology change must lower the query afresh")
	}
}
