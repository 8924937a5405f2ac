package ra

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagraph"
)

// customCond is an externally-defined condition: the fast interned-id
// engine cannot evaluate it, so automata containing it take the generic
// string-key path.
type customCond struct{ reg int }

func (c customCond) Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	return set[c.reg] && mode.Eq(regs[c.reg], d)
}
func (c customCond) String() string { return "custom" }

// buildSameEndsSlow mirrors buildSameEnds but forces the slow path in two
// different ways.
func buildSameEndsCustomCond() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Eps(s2, s3, customCond{reg: 0}, nil)
	return b.Finish(s0, s3)
}

func buildSameEndsManyRegs() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	// Register 9 pushes NumRegs beyond the fast-path limit of 8.
	b.Eps(s0, s1, True{}, []int{9})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Eps(s2, s3, Eq{Reg: 9}, nil)
	return b.Finish(s0, s3)
}

func TestSlowPathAgreesWithFastPath(t *testing.T) {
	fast := buildSameEnds(false)
	if !fast.fastOK() {
		t.Fatal("reference automaton should take the fast path")
	}
	for name, slow := range map[string]*Automaton{
		"custom-cond": buildSameEndsCustomCond(),
		"many-regs":   buildSameEndsManyRegs(),
	} {
		if slow.fastOK() {
			t.Fatalf("%s: expected the slow path", name)
		}
		paths := []datagraph.DataPath{
			dp([]string{"1", "1"}, "a"),
			dp([]string{"1", "2"}, "a"),
			dp([]string{"1", "1"}, "b"),
			dp([]string{"1"}),
			datagraph.NewDataPath([]datagraph.Value{datagraph.Null(), datagraph.Null()}, []string{"a"}),
		}
		for _, w := range paths {
			for _, mode := range []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls} {
				if got, want := slow.MatchDataPath(w, mode), fast.MatchDataPath(w, mode); got != want {
					t.Errorf("%s: MatchDataPath(%v, %v) = %v, want %v", name, w, mode, got, want)
				}
			}
		}
	}
}

func TestSlowPathGraphEvaluation(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("s", v("7"))
	g.MustAddNode("good", v("7"))
	g.MustAddNode("bad", v("8"))
	g.MustAddEdge("s", "a", "good")
	g.MustAddEdge("s", "a", "bad")
	fast := buildSameEnds(false)
	si, _ := g.IndexOf("s")
	want := fast.EvalFrom(g, si, datagraph.MarkedNulls)
	sort.Ints(want)
	for name, slow := range map[string]*Automaton{
		"custom-cond": buildSameEndsCustomCond(),
		"many-regs":   buildSameEndsManyRegs(),
	} {
		got := slow.EvalFrom(g, si, datagraph.MarkedNulls)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("%s: EvalFrom = %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: EvalFrom = %v, want %v", name, got, want)
			}
		}
		// Cycle termination on the slow path too.
		g2 := datagraph.New()
		g2.MustAddNode("x", v("1"))
		g2.MustAddEdge("x", "a", "x")
		_ = slow.EvalFrom(g2, 0, datagraph.MarkedNulls) // must terminate
	}
}

// AnyLabel handling through the slow path. Note: external Cond types are
// invisible to the Builder's register inference, so the register must be
// established by a store somewhere in the automaton.
func TestSlowPathLabelHandling(t *testing.T) {
	b := &Builder{}
	s0, sMid, s1 := b.State(), b.State(), b.State()
	b.Eps(s0, sMid, True{}, []int{0})
	b.Letter(sMid, s1, "", true, customCond{reg: 0}, nil)
	a := b.Finish(s0, s1)
	if a.fastOK() {
		t.Fatal("custom condition should force the slow path")
	}
	// AnyLabel matches any label; condition is d2 = d1 via the custom cond.
	if !a.MatchDataPath(dp([]string{"1", "1"}, "zzz"), datagraph.MarkedNulls) {
		t.Fatal("any-label with matching values should accept")
	}
	if a.MatchDataPath(dp([]string{"1", "2"}, "zzz"), datagraph.MarkedNulls) {
		t.Fatal("custom condition should reject distinct values")
	}
}

// buildLoopSameEnds builds a* with equal first and last values — a
// recursive automaton — storing into register reg, so reg ≥ maxFastRegs
// forces the generic path.
func buildLoopSameEnds(reg int, neq bool) *Automaton {
	b := &Builder{}
	s0, s1, s2 := b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{reg})
	b.Letter(s1, s1, "a", false, True{}, nil)
	var cond Cond = Eq{Reg: reg}
	if neq {
		cond = Neq{Reg: reg}
	}
	b.Eps(s1, s2, cond, nil)
	return b.Finish(s0, s2)
}

// randomNullGraph builds a random graph with a fraction of null nodes.
func randomNullGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		val := v(fmt.Sprintf("d%d", rng.Intn(3)))
		if rng.Intn(4) == 0 {
			val = datagraph.Null()
		}
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), val)
	}
	for k := 0; k < e; k++ {
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))), []string{"a", "b"}[rng.Intn(2)],
			datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))))
	}
	return g
}

// enumerateMatches is the path-enumeration oracle: every pair joined by a
// path of at most maxLen edges (taken from g.Edges()) whose data path the
// automaton accepts.
func enumerateMatches(g *datagraph.Graph, a *Automaton, mode datagraph.CompareMode, maxLen int) *datagraph.PairSet {
	type step struct {
		label string
		to    int
	}
	adj := make([][]step, g.NumNodes())
	for _, e := range g.Edges() {
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		adj[from] = append(adj[from], step{e.Label, to})
	}
	out := datagraph.NewPairSet()
	var walk func(start int, nodes []int, labels []string)
	walk = func(start int, nodes []int, labels []string) {
		vals := make([]datagraph.Value, len(nodes))
		for i, n := range nodes {
			vals[i] = g.Value(n)
		}
		if a.MatchDataPath(datagraph.NewDataPath(vals, labels), mode) {
			out.Add(start, nodes[len(nodes)-1])
		}
		if len(labels) == maxLen {
			return
		}
		for _, st := range adj[nodes[len(nodes)-1]] {
			walk(start, append(nodes, st.to), append(labels, st.label))
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		walk(u, []int{u}, nil)
	}
	return out
}

// TestSlowPathGraphEvalMatchesOracle runs the generic path over whole
// graphs with nulls, under both compare modes: the non-recursive automata
// must equal the path-enumeration oracle exactly, and the recursive one
// must equal its interned-path twin (which differs only in the register
// number).
func TestSlowPathGraphEvalMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomNullGraph(seed, 3+int(seed), 4+int(seed*3)%25)
		for _, mode := range []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls} {
			for name, slow := range map[string]*Automaton{
				"custom-cond": buildSameEndsCustomCond(),
				"many-regs":   buildSameEndsManyRegs(),
			} {
				got := slow.Eval(g, mode)
				want := enumerateMatches(g, buildSameEnds(false), mode, 2)
				if !got.Equal(want) {
					t.Fatalf("seed %d %s mode %v: eval %v, oracle %v", seed, name, mode, got.Sorted(), want.Sorted())
				}
			}
			for _, neq := range []bool{false, true} {
				slow, fast := buildLoopSameEnds(maxFastRegs+1, neq), buildLoopSameEnds(0, neq)
				if slow.fastOK() || !fast.fastOK() {
					t.Fatal("register numbers must split the two paths")
				}
				got, want := slow.Eval(g, mode), fast.Eval(g, mode)
				if !got.Equal(want) {
					t.Fatalf("seed %d loop neq=%v mode %v: generic %v, interned %v",
						seed, neq, mode, got.Sorted(), want.Sorted())
				}
				if bounded := enumerateMatches(g, slow, mode, 3); !bounded.SubsetOf(got) {
					t.Fatalf("seed %d loop neq=%v mode %v: generic path missed enumerated pairs", seed, neq, mode)
				}
			}
		}
	}
}

// TestProgramSurvivesValueRefreeze pins the program cache to the graph's
// topology: a SetValue followed by Freeze yields a new snapshot but must
// reuse the lowered transitions and the scratch pool, FreezeFull of the
// same topology too, while a topology change must lower afresh. The
// evaluation must still see the new value.
func TestProgramSurvivesValueRefreeze(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("s", v("7"))
	g.MustAddNode("t", v("7"))
	g.MustAddEdge("s", "a", "t")
	a := buildSameEnds(false)
	s1 := g.Freeze()
	p1 := a.program(s1)
	if got := a.EvalFrom(g, 0, datagraph.MarkedNulls); len(got) != 1 {
		t.Fatalf("EvalFrom before SetValue = %v, want [1]", got)
	}
	g.SetValue(1, v("8"))
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("SetValue must invalidate the snapshot")
	}
	for _, snap := range []*datagraph.Snapshot{s2, g.FreezeFull()} {
		p := a.program(snap)
		if p != p1 || &p.trans[0] != &p1.trans[0] || &p.scratch != &p1.scratch {
			t.Fatal("a snapshot of the same topology must reuse the lowered program and its scratch pool")
		}
	}
	if got := a.EvalFrom(g, 0, datagraph.MarkedNulls); len(got) != 0 {
		t.Fatalf("EvalFrom after SetValue = %v, want none", got)
	}
	g.MustAddNode("u", v("7"))
	if a.program(g.Freeze()) == p1 {
		t.Fatal("a topology change must lower the automaton afresh")
	}
}
