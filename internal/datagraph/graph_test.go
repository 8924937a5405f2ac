package datagraph

import (
	"reflect"
	"testing"
)

// buildTriangle builds the 3-cycle u -a-> v -b-> w -a-> u with values 1,2,1.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.MustAddNode("u", V("1"))
	g.MustAddNode("v", V("2"))
	g.MustAddNode("w", V("1"))
	g.MustAddEdge("u", "a", "v")
	g.MustAddEdge("v", "b", "w")
	g.MustAddEdge("w", "a", "u")
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if err := g.AddNode("x", V("1")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("x", V("2")); err == nil {
		t.Fatal("duplicate node id must be rejected")
	}
}

func TestAddEdgeMissingEndpoint(t *testing.T) {
	g := New()
	g.MustAddNode("x", V("1"))
	if err := g.AddEdge("x", "a", "y"); err == nil {
		t.Fatal("edge to missing node must be rejected")
	}
	if err := g.AddEdge("y", "a", "x"); err == nil {
		t.Fatal("edge from missing node must be rejected")
	}
}

func TestEdgeSetSemantics(t *testing.T) {
	g := buildTriangle(t)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	// Re-inserting an edge is a no-op.
	g.MustAddEdge("u", "a", "v")
	if g.NumEdges() != 3 {
		t.Fatalf("duplicate edge changed count: %d", g.NumEdges())
	}
	ui, _ := g.IndexOf("u")
	if got := g.Freeze().OutAll(ui); len(got) != 1 {
		t.Fatalf("adjacency duplicated: %v", got)
	}
}

func TestAdjacency(t *testing.T) {
	g := buildTriangle(t)
	ui, _ := g.IndexOf("u")
	vi, _ := g.IndexOf("v")
	snap := g.Freeze()
	a, _ := snap.LabelID("a")
	row := func(u int, in bool) (labels []Label, nbrs []int32) {
		snap.EachSlot(u, in, func(l Label, ns []int32) {
			for _, x := range ns {
				labels, nbrs = append(labels, l), append(nbrs, x)
			}
		})
		return labels, nbrs
	}
	if ls, ns := row(ui, false); len(ns) != 1 || ls[0] != a || int(ns[0]) != vi {
		t.Fatalf("out-row of u = %v %v", ls, ns)
	}
	if ls, ns := row(vi, true); len(ns) != 1 || ls[0] != a || int(ns[0]) != ui {
		t.Fatalf("in-row of v = %v %v", ls, ns)
	}
}

func TestLabelsAndValues(t *testing.T) {
	g := buildTriangle(t)
	if got := g.Labels(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Labels = %v", got)
	}
	if got := g.Values(); !reflect.DeepEqual(got, []Value{V("1"), V("2")}) {
		t.Fatalf("Values = %v", got)
	}
	g.MustAddNode("n", Null())
	if got := g.Values(); len(got) != 2 {
		t.Fatalf("null value must not be listed: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	c.MustAddNode("z", V("9"))
	c.MustAddEdge("z", "a", "z")
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatal("clone is not independent")
	}
	if c.NumNodes() != 4 || c.NumEdges() != 4 {
		t.Fatal("clone did not accept additions")
	}
}

func TestSpecialize(t *testing.T) {
	g := New()
	g.MustAddNode("c", V("const"))
	g.MustAddNode("n1", Null())
	g.MustAddNode("n2", Null())
	g.MustAddEdge("c", "a", "n1")
	g.MustAddEdge("n1", "b", "n2")
	s := g.Specialize(map[NodeID]Value{"n1": V("x"), "n2": V("x")})
	if n, _ := s.NodeByID("n1"); n.Value != V("x") {
		t.Fatalf("n1 = %v", n.Value)
	}
	if n, _ := s.NodeByID("c"); n.Value != V("const") {
		t.Fatalf("constant changed: %v", n.Value)
	}
	if !s.HasEdge("n1", "b", "n2") {
		t.Fatal("specialize lost an edge")
	}
	// Original untouched.
	if n, _ := g.NodeByID("n1"); !n.Value.IsNull() {
		t.Fatal("specialize mutated original")
	}
}

func TestUnion(t *testing.T) {
	g := New()
	g.MustAddNode("x", V("1"))
	g.MustAddNode("y", V("2"))
	g.MustAddEdge("x", "a", "y")
	h := New()
	h.MustAddNode("y", V("2"))
	h.MustAddNode("z", V("3"))
	h.MustAddEdge("y", "b", "z")
	u, err := Union(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 3 || u.NumEdges() != 2 {
		t.Fatalf("union size: %d nodes, %d edges", u.NumNodes(), u.NumEdges())
	}
	// Conflicting values must be rejected.
	h2 := New()
	h2.MustAddNode("x", V("conflict"))
	if _, err := Union(g, h2); err == nil {
		t.Fatal("union must reject value conflicts")
	}
}

func TestContainsAllEdges(t *testing.T) {
	g := buildTriangle(t)
	sub := New()
	sub.MustAddNode("u", V("1"))
	sub.MustAddNode("v", V("2"))
	sub.MustAddEdge("u", "a", "v")
	if !g.ContainsAllEdges(sub) {
		t.Fatal("triangle should contain its own edge")
	}
	sub2 := New()
	sub2.MustAddNode("u", V("other"))
	if g.ContainsAllEdges(sub2) {
		t.Fatal("value mismatch must fail containment")
	}
	sub3 := New()
	sub3.MustAddNode("u", V("1"))
	sub3.MustAddNode("v", V("2"))
	sub3.MustAddEdge("v", "a", "u") // wrong direction
	if g.ContainsAllEdges(sub3) {
		t.Fatal("missing edge must fail containment")
	}
}

func TestParseRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	g.MustAddNode("nil1", Null())
	g.MustAddEdge("u", "c", "nil1")
	text := g.String()
	h, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != text {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", text, h.String())
	}
	if n, ok := h.NodeByID("nil1"); !ok || !n.Value.IsNull() {
		t.Fatal("null node lost in round trip")
	}
}

func TestParseForwardReferenceAndErrors(t *testing.T) {
	// Edge before node declarations is allowed.
	g, err := ParseString("edge a x b\nnode a 1\nnode b 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("a", "x", "b") {
		t.Fatal("forward-referenced edge missing")
	}
	for _, bad := range []string{
		"node onlyid\n",
		"edge a x\n",
		"frobnicate\n",
		"node a 1\nnode a 2\n",
		"edge a x b\nnode a 1\n", // b never declared
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("input %q should fail to parse", bad)
		}
	}
	// Comments and blank lines are fine.
	if _, err := ParseString("# hi\n\nnode a 1\n"); err != nil {
		t.Fatal(err)
	}
}

func TestPathValidateAndDataPath(t *testing.T) {
	g := buildTriangle(t)
	ui, _ := g.IndexOf("u")
	vi, _ := g.IndexOf("v")
	wi, _ := g.IndexOf("w")
	p := Path{Nodes: []int{ui, vi, wi, ui}, Labels: []string{"a", "b", "a"}}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	w := DataPathOf(g, p)
	if w.Len() != 3 || w.First() != V("1") || w.Last() != V("1") {
		t.Fatalf("data path: %v", w)
	}
	bad := Path{Nodes: []int{ui, wi}, Labels: []string{"a"}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("invalid path must fail validation")
	}
	malformed := Path{Nodes: []int{ui}, Labels: []string{"a"}}
	if err := malformed.Validate(g); err == nil {
		t.Fatal("malformed path must fail validation")
	}
}

func TestDataPathConcat(t *testing.T) {
	w1 := NewDataPath([]Value{V("1"), V("2")}, []string{"a"})
	w2 := NewDataPath([]Value{V("2"), V("3")}, []string{"b"})
	w, err := w1.Concat(w2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 || w.First() != V("1") || w.Last() != V("3") {
		t.Fatalf("concat: %v", w)
	}
	if w.String() != "1 a 2 b 3" {
		t.Fatalf("String = %q", w.String())
	}
	// Mismatched junction values must error (paper requires shared value).
	w3 := NewDataPath([]Value{V("9"), V("3")}, []string{"b"})
	if _, err := w1.Concat(w3); err == nil {
		t.Fatal("concat with mismatched junction must fail")
	}
}

func TestNewDataPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("malformed data path must panic")
		}
	}()
	NewDataPath([]Value{V("1")}, []string{"a"})
}

func TestZeroGraphUsable(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero graph not empty")
	}
	if _, ok := g.NodeByID("x"); ok {
		t.Fatal("zero graph has node?")
	}
	if g.HasEdge("a", "l", "b") {
		t.Fatal("zero graph has edge?")
	}
	if err := g.AddNode("x", V("1")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("x", "a", "x"); err != nil {
		t.Fatal(err)
	}
}
