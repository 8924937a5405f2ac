package gxpath

import "repro/internal/datagraph"

// This file implements Figure 1 of the paper: the semantics of
// GXPath_core^~ path expressions ([[α]]_G ⊆ V×V) and node expressions
// ([[φ]]_G ⊆ V), computed bottom-up with explicit relations. The public
// entry points freeze the graph once and evaluate over the interned
// snapshot; relations are pair sets sized to the graph, dense bitmaps
// (word-wise composition, closure and boolean algebra) whenever they fit
// the dense budget and sparse sets otherwise.

// EvalPath computes [[α]]_G under the given data-comparison mode.
func EvalPath(g *datagraph.Graph, p PathExpr, mode datagraph.CompareMode) *datagraph.PairSet {
	return evalPath(g.Freeze(), p, mode)
}

// newRel returns an empty relation over the snapshot's nodes.
func newRel(snap *datagraph.Snapshot) *datagraph.PairSet {
	return datagraph.NewPairSetSized(snap.NumNodes())
}

func evalPath(snap *datagraph.Snapshot, p PathExpr, mode datagraph.CompareMode) *datagraph.PairSet {
	switch t := p.(type) {
	case PEps:
		// [[ε]] = {(v, v) | v ∈ V}
		out := newRel(snap)
		for v := 0; v < snap.NumNodes(); v++ {
			out.Add(v, v)
		}
		return out
	case PLabel:
		// [[a]] = {(v, v′) | (v, a, v′) ∈ E}; [[a⁻]] swaps the pair. The
		// per-label edge list yields exactly the matching edges.
		out := newRel(snap)
		if l, ok := snap.LabelID(t.Label); ok {
			if t.Inverse {
				snap.EachLabelEdge(l, func(from, to int32) { out.Add(int(to), int(from)) })
			} else {
				snap.EachLabelEdge(l, func(from, to int32) { out.Add(int(from), int(to)) })
			}
		}
		return out
	case PStar:
		// [[a*]] = reflexive-transitive closure of [[a]].
		return starClosure(snap, t.Label, t.Inverse)
	case PConcat:
		// [[α·β]] = [[α]] ∘ [[β]] (word-wise row union when dense)
		return datagraph.ComposePairs(evalPath(snap, t.L, mode), evalPath(snap, t.R, mode))
	case PUnion:
		// [[α∪β]] = [[α]] ∪ [[β]]
		return evalPath(snap, t.L, mode).Union(evalPath(snap, t.R, mode))
	case PEq:
		// [[α=]] = {(v, v′) ∈ [[α]] | δ(v) = δ(v′)}
		return filterData(snap, evalPath(snap, t.Inner, mode), mode, false)
	case PNeq:
		// [[α≠]] = {(v, v′) ∈ [[α]] | δ(v) ≠ δ(v′)}
		return filterData(snap, evalPath(snap, t.Inner, mode), mode, true)
	case PTest:
		// [[[φ]]] = {(v, v) | v ∈ [[φ]]}
		sat := evalNode(snap, t.Cond, mode)
		out := newRel(snap)
		for v, ok := range sat {
			if ok {
				out.Add(v, v)
			}
		}
		return out
	default:
		if rel, ok := evalRegular(snap, p, mode); ok {
			return rel
		}
		panic("gxpath: unknown path expression")
	}
}

// EvalNode computes [[φ]]_G as a membership vector indexed by node index.
func EvalNode(g *datagraph.Graph, n NodeExpr, mode datagraph.CompareMode) []bool {
	return evalNode(g.Freeze(), n, mode)
}

func evalNode(snap *datagraph.Snapshot, n NodeExpr, mode datagraph.CompareMode) []bool {
	switch t := n.(type) {
	case NNot:
		// [[¬φ]] = V − [[φ]]
		inner := evalNode(snap, t.Inner, mode)
		out := make([]bool, len(inner))
		for i, b := range inner {
			out[i] = !b
		}
		return out
	case NAnd:
		l, r := evalNode(snap, t.L, mode), evalNode(snap, t.R, mode)
		out := make([]bool, len(l))
		for i := range l {
			out[i] = l[i] && r[i]
		}
		return out
	case NOr:
		l, r := evalNode(snap, t.L, mode), evalNode(snap, t.R, mode)
		out := make([]bool, len(l))
		for i := range l {
			out[i] = l[i] || r[i]
		}
		return out
	case NExists:
		// [[⟨α⟩]] = {v | ∃v′ (v, v′) ∈ [[α]]}
		rel := evalPath(snap, t.Path, mode)
		out := make([]bool, snap.NumNodes())
		if rel.Dense() {
			for u := range out {
				out[u] = rel.RowNonEmpty(u)
			}
			return out
		}
		rel.Each(func(p datagraph.Pair) { out[p.From] = true })
		return out
	default:
		panic("gxpath: unknown node expression")
	}
}

// NodesSatisfying returns the node indices in [[φ]]_G, ascending.
func NodesSatisfying(g *datagraph.Graph, n NodeExpr, mode datagraph.CompareMode) []int {
	sat := EvalNode(g, n, mode)
	var out []int
	for i, ok := range sat {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Satisfies reports whether the node with the given id is in [[φ]]_G.
func Satisfies(g *datagraph.Graph, id datagraph.NodeID, n NodeExpr, mode datagraph.CompareMode) bool {
	i, ok := g.IndexOf(id)
	if !ok {
		return false
	}
	return EvalNode(g, n, mode)[i]
}

// closureRows computes the reflexive-transitive closure of the adjacency
// relation presented by adj: one bitset BFS per source, each reachable set
// published as a (word-wise, when dense) row union into out. The label
// star and the generalized star share it and differ only in their
// adjacency callback.
func closureRows(n int, out *datagraph.PairSet, adj func(v int, visit func(int))) *datagraph.PairSet {
	seen := datagraph.NewNodeSet(n)
	var stack []int
	for u := 0; u < n; u++ {
		seen.Clear()
		seen.Add(u)
		stack = append(stack[:0], u)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			adj(v, func(to int) {
				if seen.Add(to) {
					stack = append(stack, to)
				}
			})
		}
		out.AddRowSet(u, seen)
	}
	return out
}

func starClosure(snap *datagraph.Snapshot, label string, inverse bool) *datagraph.PairSet {
	out := newRel(snap)
	n := snap.NumNodes()
	l, ok := snap.LabelID(label)
	if !ok {
		// No such edges: the closure is the identity.
		for u := 0; u < n; u++ {
			out.Add(u, u)
		}
		return out
	}
	return closureRows(n, out, func(v int, visit func(int)) {
		adj := snap.OutLabeled(v, l)
		if inverse {
			adj = snap.InLabeled(v, l)
		}
		for _, to := range adj {
			visit(int(to))
		}
	})
}

// filterData keeps the pairs of rel whose endpoint values compare equal
// (unequal when neq is set) under mode. Interned ids are equal exactly
// when the values are, and the null id is excluded under SQL-null
// semantics.
func filterData(snap *datagraph.Snapshot, rel *datagraph.PairSet, mode datagraph.CompareMode, neq bool) *datagraph.PairSet {
	out := newRel(snap)
	nullID := snap.NullValueID()
	rel.Each(func(p datagraph.Pair) {
		dv, dw := snap.ValueID(p.From), snap.ValueID(p.To)
		if mode == datagraph.SQLNulls && (dv == nullID || dw == nullID) {
			return
		}
		if (dv != dw) == neq {
			out.AddPair(p)
		}
	})
	return out
}
