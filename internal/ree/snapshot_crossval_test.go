package ree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagraph"
)

// Cross-validation of the snapshot register-automaton kernel (interned
// labels and values, shared scratch) against a naive configuration search
// over adjacency built from g.Edges(), on randomized graphs with null
// nodes, under both comparison modes.

// randomNullGraph is randomGraph with a fraction of null-valued nodes, so
// the SQL-null special cases of the interned condition evaluator are
// exercised.
func randomNullGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		v := datagraph.V(fmt.Sprintf("v%d", rng.Intn(3)))
		if rng.Intn(4) == 0 {
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

// oracleEval is the reference register-automaton semantics: from every
// start node, a breadth-first search over configurations (state, node,
// register contents) with registers holding data values, conditions
// evaluated through ra.Cond, and adjacency taken from g.Edges().
func oracleEval(q *Query, g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet {
	a := q.Automaton()
	adj := edgeLists(g)
	type config struct {
		state, node int
		regs        []datagraph.Value
		set         []bool
	}
	key := func(c config) string { return fmt.Sprintf("%d/%d/%v/%v", c.state, c.node, c.regs, c.set) }
	step := func(c config, state, node int, store []int) config {
		next := config{state: state, node: node,
			regs: append([]datagraph.Value(nil), c.regs...), set: append([]bool(nil), c.set...)}
		for _, r := range store {
			next.regs[r], next.set[r] = g.Value(node), true
		}
		return next
	}
	out := datagraph.NewPairSet()
	for u := 0; u < g.NumNodes(); u++ {
		start := config{state: a.Start, node: u,
			regs: make([]datagraph.Value, a.NumRegs), set: make([]bool, a.NumRegs)}
		seen := map[string]bool{key(start): true}
		queue := []config{start}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if c.state == a.Accept {
				out.Add(u, c.node)
			}
			for _, t := range a.Trans[c.state] {
				var nexts []config
				if t.Eps {
					if t.Cond.Eval(c.regs, c.set, g.Value(c.node), mode) {
						nexts = append(nexts, step(c, t.To, c.node, t.Store))
					}
				} else {
					for _, he := range adj[c.node] {
						if (t.AnyLabel || he.label == t.Label) && t.Cond.Eval(c.regs, c.set, g.Value(he.to), mode) {
							nexts = append(nexts, step(c, t.To, he.to, t.Store))
						}
					}
				}
				for _, next := range nexts {
					if k := key(next); !seen[k] {
						seen[k] = true
						queue = append(queue, next)
					}
				}
			}
		}
	}
	return out
}

func TestSnapshotGraphEvalMatchesLegacy(t *testing.T) {
	queries := []string{
		"a",
		"(a)=",
		"(a b)!=",
		"(a+)= b*",
		"((a | b)=)+",
		"(a (b)!=)= | b",
		".* (.+)= .*",
		"(c)=", // label absent: dead transitions
		// Nine registers: the generic (non-interned) configuration search.
		"(((((((((a | b)=)=)=)=)=)=)=)=)=",
		"(((((((((a (b)!=)=)=)=)=)=)=)=)=)+",
	}
	for seed := int64(0); seed < 12; seed++ {
		g := randomNullGraph(seed, 3+int(seed%9), 4+int(seed*3)%30)
		for _, qs := range queries {
			q := MustParseQuery(qs)
			if strings.HasPrefix(qs, "(((((((((") && q.Automaton().NumRegs != 9 {
				t.Fatalf("%s: %d registers, want 9", qs, q.Automaton().NumRegs)
			}
			for _, mode := range []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls} {
				got := q.Eval(g, mode) // freezes g, snapshot kernel
				want := oracleEval(q, g, mode)
				if !got.Equal(want) {
					t.Fatalf("seed %d query %q mode %v: snapshot %v, oracle %v",
						seed, qs, mode, got.Sorted(), want.Sorted())
				}
				// EvalRange over a sub-range must agree with the full result
				// restricted to that range (the engine's frontier-shard path).
				lo, hi := g.NumNodes()/3, 2*g.NumNodes()/3+1
				ranged := datagraph.NewPairSet()
				q.EvalRange(g, lo, hi, mode, ranged.Add)
				want.Each(func(p datagraph.Pair) {
					if p.From >= lo && p.From < hi && !ranged.Has(p.From, p.To) {
						t.Fatalf("seed %d query %q mode %v: EvalRange missed %v", seed, qs, mode, p)
					}
				})
				if !ranged.SubsetOf(want) {
					t.Fatalf("seed %d query %q mode %v: EvalRange produced extra pairs", seed, qs, mode)
				}
			}
		}
	}
}
