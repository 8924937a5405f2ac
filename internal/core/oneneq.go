package core

import (
	"context"
	"fmt"

	"repro/internal/datagraph"
	"repro/internal/ree"
)

// This file implements the tractable certain-answer algorithm of
// Proposition 4: for relational GSMs and data path queries (paths with
// tests) with at most one inequality, query answering is in NLogspace.
//
// The algorithm is a forced-merge fixpoint over value classes of the
// universal solution U (see DESIGN.md for the correctness argument):
//
//   - Adversarial solutions can be taken to be value specializations of U,
//     because data RPQs are closed under value-preserving homomorphisms.
//   - Merging two value classes is monotone for '=' tests and anti-monotone
//     for the single '≠' test. A *threat* is a label-matching path from x
//     to y whose '=' tests already hold; the only way an adversary can kill
//     it is to merge the endpoints of its '≠' test.
//   - So: repeatedly merge the forced pairs. If a threat has no '≠' test, or
//     its '≠' endpoints are distinct source constants (unmergeable), the
//     answer is certain. If the closure terminates with every threat dead,
//     the final specialization is a counterexample solution.

// OneNeqOptions bounds the match enumeration.
type OneNeqOptions struct {
	// MaxExpansions caps the number of DFS steps while enumerating
	// label-matching paths in the universal solution. Default 1 << 20.
	MaxExpansions int
}

// Normalized validates the options once: a negative MaxExpansions is
// ErrBadOptions, zero selects the default.
func (o OneNeqOptions) Normalized() (OneNeqOptions, error) {
	if o.MaxExpansions < 0 {
		return o, badOptionf("MaxExpansions %d is negative", o.MaxExpansions)
	}
	if o.MaxExpansions == 0 {
		o.MaxExpansions = 1 << 20
	}
	return o, nil
}

// CertainOneInequality decides whether (from, to) ∈ 2_M(Q, Gs) for a
// relational GSM and a path-with-tests Q with at most one inequality.
func CertainOneInequality(m *Mapping, gs *datagraph.Graph, q *ree.Query,
	from, to datagraph.NodeID, opts OneNeqOptions) (bool, error) {

	mat, err := throwaway(m, gs)
	if err != nil {
		return false, err
	}
	return mat.CertainOneInequality(context.Background(), q, from, to, opts)
}

// CertainOneInequality is the materialization variant of the package-level
// CertainOneInequality, sharing the memoized universal solution. ctx is
// honored during path enumeration and the merge fixpoint (returning an
// ErrCanceled wrap).
func (mat *Materialization) CertainOneInequality(ctx context.Context, q *ree.Query,
	from, to datagraph.NodeID, opts OneNeqOptions) (bool, error) {

	opts, err := opts.Normalized()
	if err != nil {
		return false, err
	}
	labels, tests, ok := ree.FlattenPathWithTests(q.Expr())
	if !ok {
		return false, fmt.Errorf("core: query %s is not a path with tests", q)
	}
	if n := ree.CountNeq(q.Expr()); n > 1 {
		return false, fmt.Errorf("core: query %s has %d inequalities; at most one allowed", q, n)
	}
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		return false, err
	}
	xi, okX := u.IndexOf(from)
	yi, okY := u.IndexOf(to)
	if !okX || !okY {
		// Some solution omits the node entirely, so the pair cannot be
		// certain.
		return false, nil
	}
	paths, err := matchingPaths(ctx, u, xi, yi, labels, opts.MaxExpansions)
	if err != nil {
		return false, err
	}
	if len(paths) == 0 {
		// Not even the universal solution has a matching path.
		return false, nil
	}
	uf := newValueUF(u)
	for {
		if err := ctx.Err(); err != nil {
			return false, Canceled(err)
		}
		progress := false
		for _, p := range paths {
			live := true
			var neq *ree.PosTest
			for i := range tests {
				t := tests[i]
				if t.Neq {
					neq = &tests[i]
					continue
				}
				if !uf.same(p[t.Start], p[t.End]) {
					live = false
					break
				}
			}
			if !live {
				continue
			}
			if neq == nil {
				// '='-only threat holds in every specialization.
				return true, nil
			}
			a, b := p[neq.Start], p[neq.End]
			if uf.same(a, b) {
				continue // threat already dead: ≠ is false
			}
			merged, conflict := uf.merge(a, b)
			if conflict {
				// Two distinct source constants would have to be equal:
				// no adversary can kill this threat.
				return true, nil
			}
			if merged {
				progress = true
			}
		}
		if !progress {
			return false, nil
		}
	}
}

// CertainOneInequalityAll computes all certain pairs over dom(M, Gs)²; used
// by tests and experiments on small instances.
func CertainOneInequalityAll(m *Mapping, gs *datagraph.Graph, q *ree.Query,
	opts OneNeqOptions) (*Answers, error) {

	dom := Dom(m, gs)
	out := NewAnswers()
	for _, a := range dom {
		for _, b := range dom {
			ok, err := CertainOneInequality(m, gs, q, a.ID, b.ID, opts)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Add(Answer{From: a, To: b})
			}
		}
	}
	return out, nil
}

// matchingPaths enumerates node sequences of the universal solution
// spelling the given label word from x to y.
func matchingPaths(ctx context.Context, u *datagraph.Graph, x, y int, labels []string, budget int) ([][]int, error) {
	snap := u.Freeze()
	word := make([]datagraph.Label, len(labels))
	for i, name := range labels {
		word[i], _ = snap.LabelID(name) // NoLabel when absent: no edge matches
	}
	var out [][]int
	steps := 0
	cur := make([]int, 0, len(labels)+1)
	var walk func(node, pos int) error
	walk = func(node, pos int) error {
		steps++
		if steps > budget {
			return budgetErrf("core: path enumeration exceeded %d expansions", budget)
		}
		if steps&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return Canceled(err)
			}
		}
		cur = append(cur, node)
		defer func() { cur = cur[:len(cur)-1] }()
		if pos == len(labels) {
			if node == y {
				out = append(out, append([]int(nil), cur...))
			}
			return nil
		}
		for _, to := range snap.OutLabeled(node, word[pos]) {
			if err := walk(int(to), pos+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(x, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// valueUF is a union-find over value slots of a graph: every null node is
// its own mergeable slot; every distinct constant value is an immutable
// slot. Merging two slots with different constants is a conflict.
type valueUF struct {
	parent []int
	// constant[i] is the constant value pinned to the class root i, if any.
	constant []datagraph.Value
	hasConst []bool
	slotOf   []int // node index → slot
}

func newValueUF(g *datagraph.Graph) *valueUF {
	uf := &valueUF{slotOf: make([]int, g.NumNodes())}
	constSlot := make(map[datagraph.Value]int)
	newSlot := func() int {
		uf.parent = append(uf.parent, len(uf.parent))
		uf.constant = append(uf.constant, datagraph.Value{})
		uf.hasConst = append(uf.hasConst, false)
		return len(uf.parent) - 1
	}
	for i := 0; i < g.NumNodes(); i++ {
		v := g.Value(i)
		if v.IsNull() {
			uf.slotOf[i] = newSlot()
			continue
		}
		s, ok := constSlot[v]
		if !ok {
			s = newSlot()
			uf.constant[s] = v
			uf.hasConst[s] = true
			constSlot[v] = s
		}
		uf.slotOf[i] = s
	}
	return uf
}

func (uf *valueUF) find(s int) int {
	for uf.parent[s] != s {
		uf.parent[s] = uf.parent[uf.parent[s]]
		s = uf.parent[s]
	}
	return s
}

// same reports whether the value slots of two nodes are in one class.
func (uf *valueUF) same(nodeA, nodeB int) bool {
	return uf.find(uf.slotOf[nodeA]) == uf.find(uf.slotOf[nodeB])
}

// merge unifies the classes of two nodes' slots. It returns merged=true if
// the classes were distinct, and conflict=true if both classes carry
// distinct constants (impossible merge).
func (uf *valueUF) merge(nodeA, nodeB int) (merged, conflict bool) {
	ra, rb := uf.find(uf.slotOf[nodeA]), uf.find(uf.slotOf[nodeB])
	if ra == rb {
		return false, false
	}
	if uf.hasConst[ra] && uf.hasConst[rb] {
		return false, true // distinct constants by slot construction
	}
	// Attach the non-constant root under the constant one (if any).
	if uf.hasConst[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	return true, false
}
