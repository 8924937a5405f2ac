package datagraph

// This file implements homomorphisms between data graphs, in the two flavours
// the paper uses:
//
//   - Section 6: a homomorphism h : N → N such that for each edge
//     ((n₁,d₁), a, (n₂,d₂)) of G, the edge ((h(n₁),d₁), a, (h(n₂),d₂)) is in
//     G′. Data values are preserved exactly.
//   - Section 7 (graphs with null nodes): as above except that a null data
//     value may be mapped onto any value; non-null values are preserved.
//
// FindHomomorphism is a backtracking search used as a test oracle for
// Lemma 1 (the universal solution maps homomorphically into every solution)
// and for the Theorem 7 constructions.

// homMode distinguishes the two flavours above.
type homMode int

const (
	homExact homMode = iota // Section 6: values preserved
	homNulls                // Section 7: nulls may map to anything
)

// valueCompatible reports whether a node of the source graph with value dv
// may be mapped to a node of the target graph with value tv.
func valueCompatible(mode homMode, dv, tv Value) bool {
	if mode == homNulls && dv.IsNull() {
		return true
	}
	return dv == tv
}

// FindHomomorphism searches for a homomorphism from g to h in the Section 6
// sense (data values preserved exactly, including null-as-constant). fixed
// maps node ids of g that must be sent to specific node ids of h (e.g. the
// identity on dom(M, Gs) in Lemma 1); it may be nil. It returns the mapping
// on node ids and whether one exists.
//
// The search is exponential in the worst case (graph homomorphism is
// NP-complete); it is used on small instances in tests and experiments.
func FindHomomorphism(g, h *Graph, fixed map[NodeID]NodeID) (map[NodeID]NodeID, bool) {
	return findHom(g, h, fixed, homExact)
}

// FindHomomorphismNulls searches for a homomorphism from g to h in the
// Section 7 sense: null-valued nodes of g may be mapped to nodes with any
// value, while non-null values must be preserved.
func FindHomomorphismNulls(g, h *Graph, fixed map[NodeID]NodeID) (map[NodeID]NodeID, bool) {
	return findHom(g, h, fixed, homNulls)
}

func findHom(g, h *Graph, fixed map[NodeID]NodeID, mode homMode) (map[NodeID]NodeID, bool) {
	n := g.NumNodes()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Pre-assign fixed nodes.
	for from, to := range fixed {
		fi, ok := g.IndexOf(from)
		if !ok {
			return nil, false
		}
		ti, ok := h.IndexOf(to)
		if !ok {
			return nil, false
		}
		if !valueCompatible(mode, g.Value(fi), h.Value(ti)) {
			return nil, false
		}
		assign[fi] = ti
	}

	// Candidate targets per source node, as bitsets: target nodes grouped
	// by value once, then pruned per source node by label-degree
	// requirements (a target must offer at least one out-/in-edge for every
	// label the source node uses) with word-wise intersections.
	hn := h.NumNodes()
	byValue := make(map[Value]*NodeSet)
	for j := 0; j < hn; j++ {
		v := h.Value(j)
		s := byValue[v]
		if s == nil {
			s = NewNodeSet(hn)
			byValue[v] = s
		}
		s.Add(j)
	}
	var full *NodeSet
	if mode == homNulls {
		full = NewNodeSet(hn)
		for j := 0; j < hn; j++ {
			full.Add(j)
		}
	}
	// Both graphs are read through their snapshots; hLabel translates g's
	// label ids into h's (NoLabel when h has no such edge).
	gs, hs := g.Freeze(), h.Freeze()
	hLabel := make([]Label, gs.NumLabels())
	for l := range hLabel {
		hLabel[l], _ = hs.LabelID(gs.LabelName(Label(l)))
	}
	// Per-label bitsets of target nodes with at least one matching edge,
	// built on first demand.
	outHas := make(map[Label]*NodeSet)
	inHas := make(map[Label]*NodeSet)
	labelSet := func(cache map[Label]*NodeSet, l Label, incoming bool) *NodeSet {
		if s, ok := cache[l]; ok {
			return s
		}
		s := NewNodeSet(hn)
		if l != NoLabel {
			hs.EachLabelEdge(l, func(from, to int32) {
				if incoming {
					s.Add(int(to))
				} else {
					s.Add(int(from))
				}
			})
		}
		cache[l] = s
		return s
	}
	candidates := make([][]int, n)
	cs := NewNodeSet(hn)
	for i := 0; i < n; i++ {
		if assign[i] >= 0 {
			candidates[i] = []int{assign[i]}
			continue
		}
		base := byValue[g.Value(i)]
		if mode == homNulls && g.Value(i).IsNull() {
			base = full
		}
		if base == nil {
			return nil, false
		}
		cs.CopyFrom(base)
		gs.EachSlot(i, false, func(l Label, _ []int32) {
			cs.IntersectWith(labelSet(outHas, hLabel[l], false))
		})
		gs.EachSlot(i, true, func(l Label, _ []int32) {
			cs.IntersectWith(labelSet(inHas, hLabel[l], true))
		})
		candidates[i] = cs.AppendTo(nil)
		if len(candidates[i]) == 0 {
			return nil, false
		}
	}

	// Order unassigned nodes by fewest candidates first (fail fast).
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if assign[i] < 0 {
			order = append(order, i)
		}
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && len(candidates[order[b]]) < len(candidates[order[b-1]]); b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}

	// consistent checks every edge of g between already-assigned nodes.
	// Self-loops are covered since assign[i] is set temporarily by the
	// caller before recursing.
	consistent := func(i, target int) bool {
		ok := true
		gs.EachSlot(i, false, func(l Label, succ []int32) {
			for _, v := range succ {
				if t := assign[v]; ok && t >= 0 && !hs.HasEdge(target, hLabel[l], t) {
					ok = false
				}
			}
		})
		gs.EachSlot(i, true, func(l Label, pred []int32) {
			for _, v := range pred {
				if s := assign[v]; ok && s >= 0 && !hs.HasEdge(s, hLabel[l], target) {
					ok = false
				}
			}
		})
		return ok
	}

	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return true
		}
		i := order[k]
		for _, t := range candidates[i] {
			assign[i] = t
			if consistent(i, t) && rec(k+1) {
				return true
			}
			assign[i] = -1
		}
		return false
	}

	// Check consistency among the fixed nodes themselves first.
	for i := 0; i < n; i++ {
		if assign[i] >= 0 && !consistent(i, assign[i]) {
			return nil, false
		}
	}
	if !rec(0) {
		return nil, false
	}
	out := make(map[NodeID]NodeID, n)
	for i := 0; i < n; i++ {
		out[g.Node(i).ID] = h.Node(assign[i]).ID
	}
	return out, true
}

// IsHomomorphism verifies that m is a homomorphism from g to h in the
// Section 6 sense. It is the checking counterpart of FindHomomorphism.
func IsHomomorphism(g, h *Graph, m map[NodeID]NodeID) bool {
	return isHom(g, h, m, homExact)
}

// IsHomomorphismNulls verifies m in the Section 7 sense.
func IsHomomorphismNulls(g, h *Graph, m map[NodeID]NodeID) bool {
	return isHom(g, h, m, homNulls)
}

func isHom(g, h *Graph, m map[NodeID]NodeID, mode homMode) bool {
	for _, n := range g.Nodes() {
		tid, ok := m[n.ID]
		if !ok {
			return false
		}
		tn, ok := h.NodeByID(tid)
		if !ok {
			return false
		}
		if !valueCompatible(mode, n.Value, tn.Value) {
			return false
		}
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(m[e.From], e.Label, m[e.To]) {
			return false
		}
	}
	return true
}
