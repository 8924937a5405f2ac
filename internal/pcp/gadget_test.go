package pcp

import (
	"strings"
	"testing"

	"repro/internal/datagraph"
)

func satInstance() Instance {
	return Instance{Tiles: []Tile{{U: "a", V: "ab"}, {U: "ba", V: "a"}}}
}

func TestBuildGadgetStructure(t *testing.T) {
	in := satInstance()
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1's mapping shape: LAV, and GAV except the reachability rule;
	// relational/reachability but not relational.
	if !gd.Mapping.IsLAV() {
		t.Fatal("gadget mapping must be LAV")
	}
	if gd.Mapping.IsRelational() {
		t.Fatal("gadget mapping must not be relational (it has Σ*)")
	}
	if !gd.Mapping.IsRelationalReachability() {
		t.Fatal("gadget mapping must be relational/reachability")
	}
	// Source is a single chain: i + Σ tiles(1 + |u| + 1 + |v|) + s + # edges.
	wantEdges := 1 // i
	for _, tile := range in.Tiles {
		wantEdges += 1 + len(tile.U) + 1 + len(tile.V)
	}
	wantEdges += 2 // s, #
	if gd.Source.NumEdges() != wantEdges {
		t.Fatalf("source has %d edges, want %d", gd.Source.NumEdges(), wantEdges)
	}
	if gd.Source.NumNodes() != wantEdges+1 {
		t.Fatalf("source chain should have edges+1 nodes")
	}
	// All values distinct.
	vals := map[datagraph.Value]bool{}
	for _, n := range gd.Source.Nodes() {
		if vals[n.Value] {
			t.Fatalf("duplicate source value %v", n.Value)
		}
		vals[n.Value] = true
	}
}

func TestBuildGadgetRejectsInvalid(t *testing.T) {
	if _, err := BuildGadget(Instance{}); err == nil {
		t.Fatal("empty instance must be rejected")
	}
}

func TestWitnessIsSolutionOfMapping(t *testing.T) {
	in := satInstance()
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := in.Solve(8)
	if !ok {
		t.Fatal("instance should be satisfiable")
	}
	wit, err := gd.BuildWitness(seq)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := gd.Mapping.Check(gd.Source, wit); !ok {
		t.Fatalf("witness must satisfy the mapping: %s", why)
	}
	// The # edge itself must not be in the witness (it is replaced).
	for _, e := range wit.Edges() {
		if e.Label == LabelHash {
			t.Fatal("witness must not contain a # edge")
		}
	}
}

func TestWitnessCleanForSolution(t *testing.T) {
	in := satInstance()
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := in.Solve(8)
	wit, err := gd.BuildWitness(seq)
	if err != nil {
		t.Fatal(err)
	}
	fired, err := gd.Errors(wit)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("genuine solution witness must be error-free, fired: %v", fired)
	}
}

func TestWitnessLetterMismatchFires(t *testing.T) {
	// (a,b): sequence [1] has u="a", v="b": equal length, letter mismatch.
	in := Instance{Tiles: []Tile{{U: "a", V: "b"}}}
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	wit, err := gd.BuildWitness([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	fired, err := gd.Errors(wit)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(fired, "letter-ab") && !contains(fired, "letter-ba") {
		t.Fatalf("letter mismatch should fire, fired: %v", fired)
	}
}

func TestWitnessLengthMismatchFires(t *testing.T) {
	// (a, aa): v-concatenation strictly longer; start anchor must fire.
	in := Instance{Tiles: []Tile{{U: "a", V: "aa"}}}
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	wit, err := gd.BuildWitness([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	fired, err := gd.Errors(wit)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) == 0 {
		t.Fatal("length mismatch must trigger some detector")
	}
}

func TestShapeDetector(t *testing.T) {
	in := satInstance()
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	// A lazy target: copy everything and bridge # with a single junk edge.
	lazy := datagraph.New()
	for _, n := range gd.Source.Nodes() {
		lazy.MustAddNode(n.ID, n.Value)
	}
	var preHash datagraph.NodeID
	for _, e := range gd.Source.Edges() {
		if e.Label == LabelHash {
			preHash = e.From
			continue
		}
		lazy.MustAddEdge(e.From, e.Label, e.To)
	}
	lazy.MustAddEdge(preHash, "t", gd.End) // wrong shape bridge
	if ok, _ := gd.Mapping.Check(gd.Source, lazy); !ok {
		t.Fatal("lazy target still satisfies the mapping (any path works for Σ*)")
	}
	fired, err := gd.Errors(lazy)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(fired, "shape") {
		t.Fatalf("shape detector should fire on junk bridge, fired: %v", fired)
	}
}

func TestCorruptedVerificationValues(t *testing.T) {
	in := satInstance()
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := in.Solve(8)
	wit, err := gd.BuildWitness(seq)
	if err != nil {
		t.Fatal(err)
	}
	// Find two verification nodes (after the v edge) and duplicate a value.
	var verNodes []datagraph.NodeID
	snap := wit.Freeze()
	for _, e := range wit.Edges() {
		if e.Label == LabelVerify {
			// walk forward from e.To collecting letter targets
			cur, _ := wit.IndexOf(e.To)
			verNodes = append(verNodes, e.To)
			for {
				next := -1
				snap.EachSlot(cur, false, func(l datagraph.Label, succ []int32) {
					if name := snap.LabelName(l); next < 0 && (name == "a" || name == "b") {
						next = int(succ[0])
					}
				})
				if next < 0 {
					break
				}
				verNodes = append(verNodes, wit.Node(next).ID)
				cur = next
			}
		}
	}
	if len(verNodes) < 2 {
		t.Fatalf("expected verification chain, got %v", verNodes)
	}
	first, _ := wit.NodeByID(verNodes[0])
	corrupted := wit.Specialize(map[datagraph.NodeID]datagraph.Value{
		verNodes[1]: first.Value,
	})
	fired, err := gd.Errors(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(fired, "repeat") {
		t.Fatalf("repeat detector should fire on duplicated verification value, fired: %v", fired)
	}
}

func TestCorruptedCopyAdjacency(t *testing.T) {
	in := satInstance()
	gd, err := BuildGadget(in)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := in.Solve(8)
	wit, err := gd.BuildWitness(seq)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one id-copy value (set it to a fresh unknown value).
	for _, e := range wit.Edges() {
		if e.Label == LabelID {
			corrupted := wit.Specialize(map[datagraph.NodeID]datagraph.Value{
				e.To: datagraph.V("corrupted_copy"),
			})
			fired, err := gd.Errors(corrupted)
			if err != nil {
				t.Fatal(err)
			}
			if len(fired) == 0 {
				t.Fatalf("corrupting copy %s should trigger a detector", e.To)
			}
			return
		}
	}
	t.Fatal("no id edge found")
}

// The reduction, both ways, on a tiny decidable instance: enumerating all
// candidate sequences, the witness is error-free iff the sequence is a
// genuine PCP solution.
func TestReductionBothWaysExhaustive(t *testing.T) {
	instances := []Instance{
		{Tiles: []Tile{{U: "a", V: "ab"}, {U: "ba", V: "a"}}}, // satisfiable
		{Tiles: []Tile{{U: "a", V: "b"}}},                     // unsatisfiable
		{Tiles: []Tile{{U: "ab", V: "a"}, {U: "b", V: "bb"}}}, // unsat ≤ 3
	}
	for _, in := range instances {
		gd, err := BuildGadget(in)
		if err != nil {
			t.Fatal(err)
		}
		in.Sequences(3, func(seq []int) bool {
			wit, err := gd.BuildWitness(seq)
			if err != nil {
				t.Fatal(err)
			}
			fired, err := gd.Errors(wit)
			if err != nil {
				t.Fatal(err)
			}
			clean := len(fired) == 0
			if clean != in.IsSolution(seq) {
				t.Errorf("instance %v seq %v: clean=%v but IsSolution=%v (fired %v)",
					in, seq, clean, in.IsSolution(seq), fired)
			}
			return true
		})
	}
}

// CertainOnGadget must mirror the PCP solver on the decidable slice.
func TestCertainOnGadgetMirrorsSolver(t *testing.T) {
	instances := []Instance{
		{Tiles: []Tile{{U: "a", V: "ab"}, {U: "ba", V: "a"}}},
		{Tiles: []Tile{{U: "a", V: "b"}}},
		{Tiles: []Tile{{U: "a", V: "aa"}, {U: "aa", V: "a"}}},
		{Tiles: []Tile{{U: "ab", V: "a"}, {U: "b", V: "bb"}}},
	}
	const bound = 3
	for _, in := range instances {
		gd, err := BuildGadget(in)
		if err != nil {
			t.Fatal(err)
		}
		certain, wit, err := gd.CertainOnGadget(bound)
		if err != nil {
			t.Fatal(err)
		}
		_, solvable := in.Solve(bound)
		if certain != !solvable {
			t.Errorf("instance %v: certain=%v but solvable≤%d=%v", in, certain, bound, solvable)
		}
		if !certain {
			if wit == nil {
				t.Fatalf("instance %v: not-certain verdict needs a witness", in)
			}
			if ok, why := gd.Mapping.Check(gd.Source, wit); !ok {
				t.Fatalf("instance %v: witness is not a solution: %s", in, why)
			}
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestShapeRegexMentionsAllSections(t *testing.T) {
	gd, err := BuildGadget(satInstance())
	if err != nil {
		t.Fatal(err)
	}
	s := gd.ShapeRegex().String()
	for _, frag := range []string{"i", "t", "sep", "mbar", "id", "s", "v"} {
		if !strings.Contains(s, frag) {
			t.Errorf("shape regex missing %q: %s", frag, s)
		}
	}
}
