package datagraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomIndexedGraph builds a random graph through the public mutation API
// (duplicate-edge no-ops mixed in) and returns it with its edges in
// insertion order, as dense-index triples. The log is the oracle the CSR
// checks below compare against: it is built here, independently of the
// snapshot builders.
func randomIndexedGraph(t *testing.T, rng *rand.Rand, nodes, edges int, labels []string) (*Graph, []logEdge) {
	t.Helper()
	g := New()
	for i := 0; i < nodes; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%d", i)), V(fmt.Sprintf("d%d", rng.Intn(5))))
	}
	var log []logEdge
	for e := 0; e < edges; e++ {
		from, to := rng.Intn(nodes), rng.Intn(nodes)
		lab := labels[rng.Intn(len(labels))]
		fromID, toID := NodeID(fmt.Sprintf("n%d", from)), NodeID(fmt.Sprintf("n%d", to))
		if !g.HasEdge(fromID, lab, toID) {
			log = append(log, logEdge{from, lab, to})
		}
		g.MustAddEdge(fromID, lab, toID)
	}
	return g, log
}

type logEdge struct {
	from  int
	label string
	to    int
}

// labeledNeighbours is the naive oracle: u's neighbours under label lab
// (successors, or predecessors when in is set) in insertion order.
func labeledNeighbours(log []logEdge, u int, lab string, in bool) []int {
	var out []int
	for _, e := range log {
		if e.label != lab {
			continue
		}
		if !in && e.from == u {
			out = append(out, e.to)
		}
		if in && e.to == u {
			out = append(out, e.from)
		}
	}
	return out
}

func equalTargets(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// TestSnapshotAgreesWithIndexes is the CSR property test: on random graphs
// built through the public mutation API, the snapshot's interned adjacency
// must agree with a naive scan of the insertion-order edge log everywhere.
func TestSnapshotAgreesWithIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		nodes := 1 + rng.Intn(25)
		edges := rng.Intn(80)
		g, log := randomIndexedGraph(t, rng, nodes, edges, labels)
		if len(log) != g.NumEdges() {
			t.Fatalf("trial %d: log has %d edges, graph %d", trial, len(log), g.NumEdges())
		}
		snap := g.Freeze()

		if snap.NumNodes() != g.NumNodes() {
			t.Fatalf("trial %d: snapshot has %d nodes, graph %d", trial, snap.NumNodes(), g.NumNodes())
		}
		for _, lab := range labels {
			var pairs []logEdge
			for _, e := range log {
				if e.label == lab {
					pairs = append(pairs, e)
				}
			}
			l, ok := snap.LabelID(lab)
			if !ok {
				if len(pairs) != 0 {
					t.Fatalf("trial %d: label %q missing from interner but has edges", trial, lab)
				}
				continue
			}
			if snap.LabelName(l) != lab {
				t.Fatalf("trial %d: LabelName round-trip broke for %q", trial, lab)
			}
			if snap.NumLabelEdges(l) != len(pairs) {
				t.Fatalf("trial %d: NumLabelEdges(%q) = %d, log %d", trial, lab, snap.NumLabelEdges(l), len(pairs))
			}
			i := 0
			snap.EachLabelEdge(l, func(from, to int32) {
				if i < len(pairs) && (int(from) != pairs[i].from || int(to) != pairs[i].to) {
					t.Fatalf("trial %d: EachLabelEdge(%q)[%d] = (%d,%d), want %v",
						trial, lab, i, from, to, pairs[i])
				}
				i++
			})
			if i != len(pairs) {
				t.Fatalf("trial %d: EachLabelEdge(%q) visited %d edges, log %d", trial, lab, i, len(pairs))
			}
			for u := 0; u < nodes; u++ {
				wantOut := labeledNeighbours(log, u, lab, false)
				if got := snap.OutLabeled(u, l); !equalTargets(got, wantOut) {
					t.Fatalf("trial %d: OutLabeled(%d,%q) = %v, want %v", trial, u, lab, got, wantOut)
				}
				wantIn := labeledNeighbours(log, u, lab, true)
				if got := snap.InLabeled(u, l); !equalTargets(got, wantIn) {
					t.Fatalf("trial %d: InLabeled(%d,%q) = %v, want %v", trial, u, lab, got, wantIn)
				}
				if snap.HasOutLabeled(u, l) != (len(wantOut) > 0) {
					t.Fatalf("trial %d: HasOutLabeled(%d,%q) wrong", trial, u, lab)
				}
				for v := 0; v < nodes; v++ {
					want := g.HasEdge(g.Node(u).ID, lab, g.Node(v).ID)
					if snap.HasEdge(u, l, v) != want {
						t.Fatalf("trial %d: HasEdge(%d,%q,%d) disagrees with the edge set", trial, u, lab, v)
					}
				}
			}
		}
		// EachSlot must list each row's labels ascending with the same
		// neighbours as the labelled accessors, and OutAll/InAll/OutDegree
		// must count every incident edge once.
		for u := 0; u < nodes; u++ {
			for _, in := range []bool{false, true} {
				prev, count := NoLabel, 0
				snap.EachSlot(u, in, func(l Label, nbrs []int32) {
					if l <= prev {
						t.Fatalf("trial %d: EachSlot(%d, %v) labels not ascending", trial, u, in)
					}
					prev = l
					if want := labeledNeighbours(log, u, snap.LabelName(l), in); !equalTargets(nbrs, want) {
						t.Fatalf("trial %d: EachSlot(%d, %v) label %q = %v, want %v",
							trial, u, in, snap.LabelName(l), nbrs, want)
					}
					count += len(nbrs)
				})
				all := snap.OutAll(u)
				if in {
					all = snap.InAll(u)
				}
				if len(all) != count {
					t.Fatalf("trial %d: node %d (in=%v) has %d targets, slots cover %d", trial, u, in, len(all), count)
				}
			}
			outDeg := 0
			for _, e := range log {
				if e.from == u {
					outDeg++
				}
			}
			if snap.OutDegree(u) != outDeg {
				t.Fatalf("trial %d: OutDegree(%d) = %d, want %d", trial, u, snap.OutDegree(u), outDeg)
			}
		}
	}
}

// TestSnapshotValueInterning checks that interned value ids agree with
// value equality and that all nulls share one id.
func TestSnapshotValueInterning(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("x"))
	g.MustAddNode("b", V("y"))
	g.MustAddNode("c", V("x"))
	g.MustAddNode("d", Null())
	g.MustAddNode("e", Null())
	snap := g.Freeze()
	if snap.ValueID(0) != snap.ValueID(2) {
		t.Fatal("equal values must intern to the same id")
	}
	if snap.ValueID(0) == snap.ValueID(1) {
		t.Fatal("distinct values must intern to distinct ids")
	}
	if snap.ValueID(3) != snap.NullValueID() || snap.ValueID(4) != snap.NullValueID() {
		t.Fatal("all nulls must share the null id")
	}
	if snap.NumValues() != 3 {
		t.Fatalf("NumValues = %d, want 3 (x, y, null)", snap.NumValues())
	}
	for i := 0; i < g.NumNodes(); i++ {
		if snap.ValueID(i) == 0 {
			t.Fatal("value ids must start at 1 (0 is the register-unset sentinel)")
		}
	}

	g2 := New()
	g2.MustAddNode("a", V("x"))
	if g2.Freeze().NullValueID() != -1 {
		t.Fatal("graph without nulls must report NullValueID −1")
	}
}

// TestFreezeCaching checks the snapshot cache lifecycle: stable pointer
// while unchanged, invalidation on mutation, CSR reuse across a
// SetValue-only change.
func TestFreezeCaching(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("1"))
	g.MustAddNode("b", V("2"))
	g.MustAddEdge("a", "e", "b")

	s1 := g.Freeze()
	if g.Freeze() != s1 {
		t.Fatal("Freeze must return the cached snapshot while the graph is unchanged")
	}
	if cachedSnapshot(g) != s1 {
		t.Fatal("the cached snapshot must return the cached snapshot while valid")
	}

	// Value-only mutation: cache invalid, rebuild shares the CSR arrays.
	g.SetValue(0, V("9"))
	if cachedSnapshot(g) != nil {
		t.Fatal("the cached snapshot must be nil after SetValue")
	}
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("Freeze must rebuild after SetValue")
	}
	if s2.out.segs[0] != s1.out.segs[0] || &s2.pairs[0].segs[0].from[0] != &s1.pairs[0].segs[0].from[0] {
		t.Fatal("a SetValue-only rebuild must reuse the CSR topology")
	}
	if s2.Value(0) != V("9") {
		t.Fatal("rebuilt snapshot must see the new value")
	}

	// Topology mutation: rebuild (incremental or full) must see the edge.
	g.MustAddEdge("b", "e", "a")
	if cachedSnapshot(g) != nil {
		t.Fatal("the cached snapshot must be nil after AddEdge")
	}
	s3 := g.Freeze()
	if l, ok := s3.LabelID("e"); !ok || s3.NumLabelEdges(l) != 2 {
		t.Fatalf("rebuilt snapshot does not have 2 e-edges")
	}
}

// TestFreezeZeroGraph checks that the zero Graph freezes.
func TestFreezeZeroGraph(t *testing.T) {
	var g Graph
	snap := g.Freeze()
	if snap.NumNodes() != 0 || snap.NumLabels() != 0 {
		t.Fatal("zero graph must freeze to an empty snapshot")
	}
	g.MustAddNode("x", V("1"))
	if cachedSnapshot(&g) != nil {
		t.Fatal("mutation after freeze must invalidate")
	}
}

// TestSnapshotLargeDegree exercises the sort.SliceStable fallback of the
// delta merge (a row gaining more than 128 half-edges in one burst) and
// checks that both the delta and the full build keep insertion order
// within each label slot.
func TestSnapshotLargeDegree(t *testing.T) {
	g := New()
	g.MustAddNode("hub", V("h"))
	for i := 0; i < 1000; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%d", i)), V("v"))
	}
	g.Freeze()
	labels := []string{"z", "y", "x", "w"}
	want := map[string][]int{}
	for i := 0; i < 200; i++ {
		id := NodeID(fmt.Sprintf("n%d", 999-i))
		lab := labels[i%len(labels)]
		g.MustAddEdge("hub", lab, id)
		to, _ := g.IndexOf(id)
		want[lab] = append(want[lab], to)
	}
	hub, _ := g.IndexOf("hub")
	delta := g.Freeze()
	if _, d := g.SnapshotBuilds(); d != 1 {
		t.Fatalf("the 200-edge burst must take the delta path (delta builds %d)", d)
	}
	for _, snap := range []*Snapshot{delta, g.FreezeFull()} {
		total := 0
		for _, lab := range labels {
			l, ok := snap.LabelID(lab)
			if !ok {
				t.Fatalf("label %q missing", lab)
			}
			got := snap.OutLabeled(hub, l)
			if !equalTargets(got, want[lab]) {
				t.Fatalf("OutLabeled(hub, %q) = %v, want %v", lab, got, want[lab])
			}
			total += len(got)
		}
		if total != 200 {
			t.Fatalf("slots cover %d edges, want 200", total)
		}
	}
}

// cachedSnapshot returns the graph's cached snapshot if it is still
// current, and nil otherwise; unlike Freeze it never builds.
func cachedSnapshot(g *Graph) *Snapshot {
	if s := g.snap.Load(); s != nil && s.topoVersion == g.topoVersion && s.valVersion == g.valVersion {
		return s
	}
	return nil
}
