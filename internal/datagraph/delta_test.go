package datagraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// equalSnapshots asserts that two snapshots of the same graph are
// indistinguishable through the whole evaluation surface: interners, both
// CSR directions, per-label edge lists and value ids. Delta-built snapshots
// must be *identical* to from-scratch ones, not merely isomorphic: labels
// and values are interned in first-occurrence order on both paths.
func equalSnapshots(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes: got %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumLabels() != want.NumLabels() {
		t.Fatalf("NumLabels: got %d, want %d", got.NumLabels(), want.NumLabels())
	}
	if got.NumValues() != want.NumValues() {
		t.Fatalf("NumValues: got %d, want %d", got.NumValues(), want.NumValues())
	}
	if got.NullValueID() != want.NullValueID() {
		t.Fatalf("NullValueID: got %d, want %d", got.NullValueID(), want.NullValueID())
	}
	for l := Label(0); int(l) < want.NumLabels(); l++ {
		if got.LabelName(l) != want.LabelName(l) {
			t.Fatalf("LabelName(%d): got %q, want %q", l, got.LabelName(l), want.LabelName(l))
		}
		if id, ok := got.LabelID(want.LabelName(l)); !ok || id != l {
			t.Fatalf("LabelID(%q): got (%d,%v), want (%d,true)", want.LabelName(l), id, ok, l)
		}
		if got.NumLabelEdges(l) != want.NumLabelEdges(l) {
			t.Fatalf("NumLabelEdges(%d): got %d, want %d", l, got.NumLabelEdges(l), want.NumLabelEdges(l))
		}
		var gp, wp []Pair
		got.EachLabelEdge(l, func(f, to int32) { gp = append(gp, Pair{int(f), int(to)}) })
		want.EachLabelEdge(l, func(f, to int32) { wp = append(wp, Pair{int(f), int(to)}) })
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("EachLabelEdge(%d)[%d]: got %v, want %v", l, i, gp[i], wp[i])
			}
		}
	}
	for u := 0; u < want.NumNodes(); u++ {
		if got.ValueID(u) != want.ValueID(u) {
			t.Fatalf("ValueID(%d): got %d, want %d", u, got.ValueID(u), want.ValueID(u))
		}
		if !equalInt32s(got.OutAll(u), want.OutAll(u)) {
			t.Fatalf("OutAll(%d): got %v, want %v", u, got.OutAll(u), want.OutAll(u))
		}
		if !equalInt32s(got.InAll(u), want.InAll(u)) {
			t.Fatalf("InAll(%d): got %v, want %v", u, got.InAll(u), want.InAll(u))
		}
		for l := Label(0); int(l) < want.NumLabels(); l++ {
			if !equalInt32s(got.OutLabeled(u, l), want.OutLabeled(u, l)) {
				t.Fatalf("OutLabeled(%d,%d): got %v, want %v", u, l, got.OutLabeled(u, l), want.OutLabeled(u, l))
			}
			if !equalInt32s(got.InLabeled(u, l), want.InLabeled(u, l)) {
				t.Fatalf("InLabeled(%d,%d): got %v, want %v", u, l, got.InLabeled(u, l), want.InLabeled(u, l))
			}
		}
	}
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeltaFreezeMatchesFull is the delta-maintenance property test:
// randomized interleavings of AddNode/AddEdge/SetValue bursts and Freeze
// calls must keep the incrementally maintained snapshot identical to a
// from-scratch build after every freeze. Mutation is append-only, so every
// intermediate freeze extends the previous snapshot (chains of
// delta-on-delta included).
func TestDeltaFreezeMatchesFull(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		g := New()
		nodes := 0
		addNode := func() {
			// A value pool smaller than the node count forces id reuse; the
			// occasional null exercises the shared null id.
			var v Value
			switch rng.Intn(4) {
			case 0:
				v = Null()
			default:
				v = V(fmt.Sprintf("v%d", rng.Intn(6)))
			}
			g.MustAddNode(NodeID(fmt.Sprintf("n%d", nodes)), v)
			nodes++
		}
		for i := 0; i < 1+rng.Intn(8); i++ {
			addNode()
		}
		for burst := 0; burst < 12; burst++ {
			for op := 0; op < rng.Intn(12); op++ {
				switch rng.Intn(5) {
				case 0:
					addNode()
				case 1:
					g.SetValue(rng.Intn(nodes), V(fmt.Sprintf("v%d", rng.Intn(6))))
				default:
					from := NodeID(fmt.Sprintf("n%d", rng.Intn(nodes)))
					to := NodeID(fmt.Sprintf("n%d", rng.Intn(nodes)))
					g.MustAddEdge(from, labels[rng.Intn(len(labels))], to)
				}
			}
			snap := g.Freeze()
			equalSnapshots(t, snap, buildFull(g))
			if g.Freeze() != snap {
				t.Fatalf("trial %d burst %d: freeze of an unchanged graph must return the cache", trial, burst)
			}
		}
	}
}

// TestDeltaFreezeSharesStorage pins the copy-on-write contract: a freeze
// after a small append burst must extend the cached snapshot — sharing its
// CSR segments, pair spans and interners — rather than rebuild, and
// untouched rows must still point into the shared base segment.
func TestDeltaFreezeSharesStorage(t *testing.T) {
	g := New()
	for i := 0; i < 64; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%d", i)), V(fmt.Sprintf("v%d", i%7)))
	}
	for i := 0; i < 63; i++ {
		g.MustAddEdge(NodeID(fmt.Sprintf("n%d", i)), "a", NodeID(fmt.Sprintf("n%d", i+1)))
	}
	s1 := g.Freeze()
	if len(s1.out.segs) != 1 {
		t.Fatalf("full build must produce one segment, got %d", len(s1.out.segs))
	}

	// Append one edge between existing nodes plus one new node.
	g.MustAddEdge("n10", "a", "n20")
	g.MustAddNode("n64", V("fresh"))
	s2 := g.Freeze()

	if len(s2.out.segs) != 2 || s2.out.segs[0] != s1.out.segs[0] {
		t.Fatal("delta freeze must append one segment and share the base")
	}
	if len(s2.in.segs) != 2 || s2.in.segs[0] != s1.in.segs[0] {
		t.Fatal("delta freeze must share the base in-segment")
	}
	// Untouched row: still the old storage. Touched row: redirected.
	if s2.out.rows[5] != s1.out.rows[5] {
		t.Fatal("untouched row must keep pointing into the shared segment")
	}
	if s2.out.rows[10].seg != 1 {
		t.Fatal("touched row must be rebuilt into the delta segment")
	}
	// Pair spans of the touched label: old spans shared, one appended.
	l, _ := s2.LabelID("a")
	if got := len(s2.pairs[l].segs); got != 2 {
		t.Fatalf("label pair chain has %d spans, want 2", got)
	}
	if &s2.pairs[l].segs[0].from[0] != &s1.pairs[l].segs[0].from[0] {
		t.Fatal("delta freeze must share the base pair span")
	}
	equalSnapshots(t, s2, buildFull(g))

	// A second burst chains: delta on top of delta.
	g.MustAddEdge("n64", "b", "n0")
	s3 := g.Freeze()
	if len(s3.out.segs) != 3 || s3.out.segs[1] != s2.out.segs[1] {
		t.Fatal("chained delta freeze must share all prior segments")
	}
	equalSnapshots(t, s3, buildFull(g))
}

// TestDeltaFreezeNewLabelAndValue covers interner extension: labels and
// values first appearing in the delta get the ids a full rebuild assigns,
// and the previous snapshot's interners are never mutated.
func TestDeltaFreezeNewLabelAndValue(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("x"))
	g.MustAddNode("b", V("y"))
	g.MustAddEdge("a", "p", "b")
	// Filler keeps the delta small relative to the graph so the freeze
	// below actually takes the delta path.
	for i := 0; i < 30; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("f%d", i)), V("x"))
		g.MustAddEdge(NodeID(fmt.Sprintf("f%d", i)), "p", "a")
	}
	s1 := g.Freeze()
	labelsBefore := s1.NumLabels()

	g.MustAddNode("c", V("brand-new"))
	g.MustAddNode("d", Null())
	g.MustAddEdge("b", "q", "c")
	g.MustAddEdge("c", "p", "d")
	s2 := g.Freeze()

	if len(s2.out.segs) != len(s1.out.segs)+1 {
		t.Fatal("freeze was expected to take the delta path")
	}
	if s1.NumLabels() != labelsBefore {
		t.Fatal("delta freeze mutated the previous snapshot's interner")
	}
	if _, ok := s1.LabelID("q"); ok {
		t.Fatal("previous snapshot must not see the delta's new label")
	}
	if s1.NullValueID() != -1 {
		t.Fatal("previous snapshot must not see the delta's null")
	}
	equalSnapshots(t, s2, buildFull(g))
}

// TestDeltaFreezeCompaction checks that the segment chain is bounded: after
// enough freeze/mutate cycles a full rebuild kicks in and resets the chain,
// so lookups never chase unboundedly many segments.
func TestDeltaFreezeCompaction(t *testing.T) {
	g := New()
	for i := 0; i < 400; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%d", i)), V("v"))
	}
	for i := 0; i < 399; i++ {
		g.MustAddEdge(NodeID(fmt.Sprintf("n%d", i)), "a", NodeID(fmt.Sprintf("n%d", i+1)))
	}
	g.Freeze()
	rng := rand.New(rand.NewSource(7))
	sawFullReset := false
	for round := 0; round < 3*maxCSRSegs; round++ {
		g.MustAddEdge(NodeID(fmt.Sprintf("n%d", rng.Intn(400))), "b",
			NodeID(fmt.Sprintf("n%d", rng.Intn(400))))
		s := g.Freeze()
		if len(s.out.segs) > maxCSRSegs || len(s.in.segs) > maxCSRSegs {
			t.Fatalf("round %d: segment chain grew past the cap: %d", round, len(s.out.segs))
		}
		if round > 0 && len(s.out.segs) == 1 {
			sawFullReset = true
		}
	}
	if !sawFullReset {
		t.Fatal("compaction never fell back to a full rebuild")
	}
	equalSnapshots(t, g.Freeze(), buildFull(g))
}

// TestCloneSnapshotIsolation: a clone never observes the parent's cached
// snapshot, and freezing the clone does not disturb the parent's cache.
func TestCloneSnapshotIsolation(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("1"))
	g.MustAddNode("b", V("2"))
	g.MustAddEdge("a", "e", "b")
	s := g.Freeze()

	c := g.Clone()
	if cachedSnapshot(c) != nil {
		t.Fatal("Clone must not inherit the parent's cached snapshot")
	}
	cs := c.Freeze()
	if cs == s {
		t.Fatal("a clone's snapshot must be its own")
	}
	if cs.Graph() != c || s.Graph() != g {
		t.Fatal("snapshots must point at their own graphs")
	}
	c.MustAddEdge("b", "e", "a")
	c.SetValue(0, V("9"))
	c.Freeze()
	if cachedSnapshot(g) != s {
		t.Fatal("mutating and freezing a clone must not disturb the parent's cache")
	}
	if s.NumLabelEdges(0) != 1 {
		t.Fatal("parent snapshot changed after clone mutation")
	}
}

// TestCSRBinarySearchBoundaries is the regression test for the slot binary
// search: labels absent from a node (below, between and above its slots)
// and the last-slot boundary of the last node, where an off-by-one would
// read past the segment.
func TestCSRBinarySearchBoundaries(t *testing.T) {
	g := New()
	g.MustAddNode("u", V("1"))
	g.MustAddNode("v", V("2"))
	// Node u carries out-slots for a, b, d only, so lookups of c and e
	// miss (one falls between u's slots, one above them); node v carries
	// c, d, e, so a and b miss below, and its last slot is the final slot
	// of the snapshot.
	g.MustAddEdge("u", "a", "v")
	g.MustAddEdge("u", "b", "v")
	g.MustAddEdge("u", "d", "v")
	g.MustAddEdge("v", "c", "u")
	g.MustAddEdge("v", "e", "u")
	g.MustAddEdge("v", "d", "u")
	snap := g.Freeze()

	u, _ := g.IndexOf("u")
	v, _ := g.IndexOf("v")
	id := func(name string) Label {
		l, ok := snap.LabelID(name)
		if !ok {
			t.Fatalf("label %q missing", name)
		}
		return l
	}
	// u has a, b, d out-slots; c and e must miss cleanly.
	for _, name := range []string{"c", "e"} {
		if got := snap.OutLabeled(u, id(name)); got != nil {
			t.Fatalf("OutLabeled(u, %s) = %v, want nil", name, got)
		}
	}
	for _, name := range []string{"a", "b", "d"} {
		if got := snap.OutLabeled(u, id(name)); len(got) != 1 || int(got[0]) != v {
			t.Fatalf("OutLabeled(u, %s) = %v, want [v]", name, got)
		}
	}
	// v's out-slots are c, d, e; the d and e lookups cross the last-slot
	// boundary of the snapshot's final rows.
	for _, name := range []string{"c", "d", "e"} {
		if got := snap.OutLabeled(v, id(name)); len(got) != 1 || int(got[0]) != u {
			t.Fatalf("OutLabeled(v, %s) = %v, want [u]", name, got)
		}
	}
	for _, name := range []string{"a", "b"} {
		if got := snap.OutLabeled(v, id(name)); got != nil {
			t.Fatalf("OutLabeled(v, %s) = %v, want nil", name, got)
		}
	}
	// A label id past every interned label must miss on both nodes.
	if snap.OutLabeled(u, Label(snap.NumLabels())) != nil ||
		snap.OutLabeled(v, Label(snap.NumLabels())) != nil {
		t.Fatal("lookup of an out-of-range label must miss")
	}
}

// TestConcurrentDeltaFreeze exercises the concurrent-Freeze contract on the
// delta path under the race detector: after an append burst, many
// goroutines race to Freeze from the same cached predecessor. Each builds
// against immutable shared storage; all results must be equivalent.
func TestConcurrentDeltaFreeze(t *testing.T) {
	g := New()
	for i := 0; i < 200; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%d", i)), V(fmt.Sprintf("v%d", i%9)))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		g.MustAddEdge(NodeID(fmt.Sprintf("n%d", rng.Intn(200))), "a",
			NodeID(fmt.Sprintf("n%d", rng.Intn(200))))
	}
	for round := 0; round < 5; round++ {
		g.Freeze()
		for i := 0; i < 20; i++ {
			g.MustAddEdge(NodeID(fmt.Sprintf("n%d", rng.Intn(200))), "b",
				NodeID(fmt.Sprintf("n%d", rng.Intn(200))))
		}
		snaps := make([]*Snapshot, 8)
		var wg sync.WaitGroup
		for i := range snaps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				snaps[i] = g.Freeze()
			}(i)
		}
		wg.Wait()
		want := buildFull(g)
		for _, s := range snaps {
			equalSnapshots(t, s, want)
		}
	}
}

// TestFreezeFull checks that the explicit from-scratch path produces a
// single-segment snapshot, caches it, and matches the incremental result.
func TestFreezeFull(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("1"))
	g.MustAddNode("b", V("2"))
	g.MustAddEdge("a", "e", "b")
	g.Freeze()
	g.MustAddEdge("b", "e", "a")
	delta := g.Freeze()
	full := g.FreezeFull()
	if len(full.out.segs) != 1 {
		t.Fatal("FreezeFull must produce a single-segment snapshot")
	}
	if cachedSnapshot(g) != full {
		t.Fatal("FreezeFull must cache its result")
	}
	equalSnapshots(t, delta, full)
}
