package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/datagraph"
)

func TestUniversalSolutionShape(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"), R("likes", "likes"))
	u, err := UniversalSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	// dom = all three nodes; one fresh null for the knows pair.
	if u.NumNodes() != 4 {
		t.Fatalf("universal solution has %d nodes, want 4", u.NumNodes())
	}
	nulls := NullNodes(u)
	if len(nulls) != 1 {
		t.Fatalf("nulls = %v", nulls)
	}
	// The null is the middle of ann -f-> n -f-> bob.
	ni, _ := u.IndexOf(nulls[0])
	if snap := u.Freeze(); len(snap.InAll(ni)) != 1 || len(snap.OutAll(ni)) != 1 {
		t.Fatal("null node should have exactly one in and one out edge")
	}
	if !u.HasEdge("ann", "f", nulls[0]) || !u.HasEdge(nulls[0], "f", "bob") {
		t.Fatalf("path shape wrong:\n%s", u)
	}
	// likes edges copied directly.
	if !u.HasEdge("ann", "likes", "p1") || !u.HasEdge("bob", "likes", "p1") {
		t.Fatal("atomic rule should copy edges")
	}
	// Universal solution is a solution.
	if !m.Satisfies(gs, u) {
		t.Fatal("universal solution must satisfy the mapping")
	}
}

func TestUniversalSolutionRequiresRelational(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", ".*"))
	if _, err := UniversalSolution(m, gs); err == nil {
		t.Fatal("non-relational mapping must be rejected")
	}
	if _, err := LeastInformativeSolution(m, gs); err == nil {
		t.Fatal("non-relational mapping must be rejected")
	}
}

func TestEpsilonRuleUnsatisfiable(t *testing.T) {
	gs := sourceGraph(t)
	// knows maps to the empty word: demands ann = bob, impossible.
	m := NewMapping(R("knows", "()"))
	if _, err := UniversalSolution(m, gs); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("ε target over distinct endpoints has no solution: got %v, want ErrNoSolution", err)
	}
	// Self-loop source is fine with ε target.
	g2 := datagraph.New()
	g2.MustAddNode("x", datagraph.V("1"))
	g2.MustAddEdge("x", "knows", "x")
	u, err := UniversalSolution(NewMapping(R("knows", "()")), g2)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 1 || u.NumEdges() != 0 {
		t.Fatalf("ε solution should be just the node:\n%s", u)
	}
}

func TestLeastInformativeSolutionValues(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f f")) // two fresh nodes
	li, err := LeastInformativeSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	if len(NullNodes(li)) != 0 {
		t.Fatal("least informative solution must not contain nulls")
	}
	// The two fresh values are distinct from each other and from source
	// values.
	seen := map[datagraph.Value]int{}
	for _, n := range li.Nodes() {
		seen[n.Value]++
	}
	for v, count := range seen {
		if strings.HasPrefix(v.String(), "_fresh") && count > 1 {
			t.Fatalf("fresh value %s reused %d times", v, count)
		}
	}
	if li.NumNodes() != 4 { // ann, bob + 2 fresh
		t.Fatalf("nodes = %d", li.NumNodes())
	}
	if !m.Satisfies(gs, li) {
		t.Fatal("least informative solution must satisfy the mapping")
	}
}

// Lemma 1: the universal solution maps homomorphically (in the nulls sense)
// into every solution, fixing dom(M, Gs).
func TestLemma1UniversalityHomomorphism(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"))
	u, err := UniversalSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	// An arbitrary richer solution: the middle node has a concrete value,
	// plus unrelated extra structure.
	sol := datagraph.New()
	sol.MustAddNode("ann", datagraph.V("30"))
	sol.MustAddNode("bob", datagraph.V("25"))
	sol.MustAddNode("mid", datagraph.V("concrete"))
	sol.MustAddNode("noise", datagraph.V("zzz"))
	sol.MustAddEdge("ann", "f", "mid")
	sol.MustAddEdge("mid", "f", "bob")
	sol.MustAddEdge("noise", "g", "ann")
	if !m.Satisfies(gs, sol) {
		t.Fatal("hand-built solution should satisfy the mapping")
	}
	fixed := map[datagraph.NodeID]datagraph.NodeID{}
	for id := range DomIDs(m, gs) {
		fixed[id] = id
	}
	hom, ok := datagraph.FindHomomorphismNulls(u, sol, fixed)
	if !ok {
		t.Fatal("Lemma 1: homomorphism from universal solution must exist")
	}
	if !datagraph.IsHomomorphismNulls(u, sol, hom) {
		t.Fatal("returned map is not a homomorphism")
	}
	for id := range fixed {
		if hom[id] != id {
			t.Fatalf("hom must fix dom: %s -> %s", id, hom[id])
		}
	}
}

func TestFreshIDsAvoidCollision(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("_n1", datagraph.V("sneaky")) // collides with default prefix
	gs.MustAddNode("b", datagraph.V("2"))
	gs.MustAddEdge("_n1", "a", "b")
	m := NewMapping(R("a", "x y"))
	u, err := UniversalSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	// All four nodes distinct: _n1, b, and one fresh node whose id must not
	// collide with the existing "_n1".
	if u.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3\n%s", u.NumNodes(), u)
	}
	if got, _ := u.NodeByID("_n1"); got.Value != datagraph.V("sneaky") {
		t.Fatal("source node _n1 must keep its value; fresh ids must not collide")
	}
}

func TestFreshValuesAvoidCollision(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("a", datagraph.V("_fresh1")) // collides with default prefix
	gs.MustAddNode("b", datagraph.V("2"))
	gs.MustAddEdge("a", "e", "b")
	m := NewMapping(R("e", "x y"))
	li, err := LeastInformativeSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[datagraph.Value]int{}
	for _, n := range li.Nodes() {
		counts[n.Value]++
	}
	if counts[datagraph.V("_fresh1")] != 1 {
		t.Fatal("fresh value collided with a source value")
	}
}

// The universal solution of a mapping with several rules over the same pair
// creates separate paths (no sharing), per the Section 7 procedure.
func TestUniversalSolutionSeparatePaths(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("x", datagraph.V("1"))
	gs.MustAddNode("y", datagraph.V("2"))
	gs.MustAddEdge("x", "a", "y")
	m := NewMapping(R("a", "p q"), R("a", "p q")) // two identical rules
	u, err := UniversalSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	// Two rules → two fresh nodes, two parallel p·q paths.
	if len(NullNodes(u)) != 2 {
		t.Fatalf("nulls = %v", NullNodes(u))
	}
}

// Fresh ids and values are the prefix followed by a running decimal
// counter, in (rule, sorted pair, path position) order. Solution graphs
// and everything rendered from them depend on these exact strings.
func TestFreshNamesAreSequential(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("u", datagraph.V("1"))
	gs.MustAddNode("v", datagraph.V("2"))
	gs.MustAddEdge("u", "a", "v")
	gs.MustAddEdge("v", "a", "u")
	m := NewMapping(R("a", "x y z"))
	u, err := UniversalSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	li, err := LeastInformativeSolution(m, gs)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 6 || li.NumNodes() != 6 {
		t.Fatalf("nodes = %d and %d, want 6", u.NumNodes(), li.NumNodes())
	}
	for i := 1; i <= 4; i++ {
		id := datagraph.NodeID("_n" + string(rune('0'+i)))
		if n := u.Node(i + 1); n.ID != id || !n.Value.IsNull() {
			t.Fatalf("universal node %d = %v, want (%s, null)", i+1, n, id)
		}
		want := datagraph.V("_fresh" + string(rune('0'+i)))
		if n := li.Node(i + 1); n.ID != id || n.Value != want {
			t.Fatalf("least informative node %d = %v, want (%s, %s)", i+1, n, id, want.Raw())
		}
	}
	if !u.HasEdge("u", "x", "_n1") || !u.HasEdge("_n2", "z", "v") || !u.HasEdge("v", "x", "_n3") {
		t.Fatalf("paths out of order:\n%s", u)
	}
}
