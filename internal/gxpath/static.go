package gxpath

import (
	"fmt"
	"sort"

	"repro/internal/datagraph"
)

// This file implements the Theorem 7 machinery: the formulas ϕ_G and ϕ_δ
// that "pin" a data tree G inside any satisfying graph, and a bounded model
// search used to exercise the (undecidable in general) satisfiability
// problem on small instances.

// child is a tree edge seen from its parent.
type child struct {
	label string
	to    int
}

// treeChildren returns the children of node v in g viewed as a tree, sorted
// by label; children under one label keep their insertion order.
func treeChildren(snap *datagraph.Snapshot, v int) []child {
	var out []child
	snap.EachSlot(v, false, func(l datagraph.Label, succ []int32) {
		for _, to := range succ {
			out = append(out, child{label: snap.LabelName(l), to: int(to)})
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// ValidateTree checks that g is a tree rooted at root: every non-root node
// must have exactly one incoming edge, the root none, and all nodes must be
// reachable from the root.
func ValidateTree(g *datagraph.Graph, root datagraph.NodeID) error {
	ri, ok := g.IndexOf(root)
	if !ok {
		return fmt.Errorf("gxpath: root %q not in graph", string(root))
	}
	snap := g.Freeze()
	if len(snap.InAll(ri)) != 0 {
		return fmt.Errorf("gxpath: root %q has incoming edges", string(root))
	}
	seen := make([]bool, g.NumNodes())
	seen[ri] = true
	stack := []int{ri}
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range treeChildren(snap, v) {
			if parents := len(snap.InAll(c.to)); parents != 1 {
				return fmt.Errorf("gxpath: node %q has %d parents", string(g.Node(c.to).ID), parents)
			}
			if seen[c.to] {
				return fmt.Errorf("gxpath: node %q reached twice (cycle or dag)", string(g.Node(c.to).ID))
			}
			seen[c.to] = true
			count++
			stack = append(stack, c.to)
		}
	}
	if count != g.NumNodes() {
		return fmt.Errorf("gxpath: %d of %d nodes unreachable from root", g.NumNodes()-count, g.NumNodes())
	}
	return nil
}

// HasNonRepeatingProperty reports whether no label occurs on two different
// out-edges of the same node (Lemma 2's non-repeating property for trees).
func HasNonRepeatingProperty(g *datagraph.Graph) bool {
	snap := g.Freeze()
	ok := true
	for v := 0; v < g.NumNodes() && ok; v++ {
		snap.EachSlot(v, false, func(_ datagraph.Label, succ []int32) {
			if len(succ) > 1 {
				ok = false
			}
		})
	}
	return ok
}

// PhiG builds the Theorem 7 formula ϕ_G for the tree g rooted at root: a
// single-node tree yields ⟨ε⟩; a tree whose root has children labelled
// a₁…aₙ with subtrees G₁…Gₙ yields ⟨a₁·[ϕ_G₁]⟩ ∧ … ∧ ⟨aₙ·[ϕ_Gₙ]⟩. Any graph
// node satisfying ϕ_G is the root of a homomorphic image of g's topology.
func PhiG(g *datagraph.Graph, root datagraph.NodeID) (NodeExpr, error) {
	if err := ValidateTree(g, root); err != nil {
		return nil, err
	}
	ri, _ := g.IndexOf(root)
	return phiG(g.Freeze(), ri), nil
}

func phiG(snap *datagraph.Snapshot, v int) NodeExpr {
	children := treeChildren(snap, v)
	if len(children) == 0 {
		return NExists{Path: PEps{}}
	}
	conjuncts := make([]NodeExpr, len(children))
	for i, c := range children {
		conjuncts[i] = NExists{Path: PConcat{
			L: PLabel{Label: c.label},
			R: PTest{Cond: phiG(snap, c.to)},
		}}
	}
	return AndAll(conjuncts...)
}

// PhiDelta builds the Theorem 7 formula ϕ_δ for the tree g rooted at root:
// ⋀ {¬⟨w_y · (w_y⁻ · w_z)=⟩ | y ≠ z nodes of g}, where w_x is the label of
// the unique root-to-x path. At a node satisfying ϕ_G, ϕ_δ forces the data
// values along the embedded copy of g to be pairwise distinct, which pins g
// inside the model up to renaming.
func PhiDelta(g *datagraph.Graph, root datagraph.NodeID) (NodeExpr, error) {
	if err := ValidateTree(g, root); err != nil {
		return nil, err
	}
	ri, _ := g.IndexOf(root)
	words := rootWords(g, ri)
	var conjuncts []NodeExpr
	for y := 0; y < g.NumNodes(); y++ {
		for z := 0; z < g.NumNodes(); z++ {
			if y == z {
				continue
			}
			wy, wz := words[y], words[z]
			inner := PConcat{L: InverseWord(wy...), R: Word(wz...)}
			conjuncts = append(conjuncts, NNot{Inner: NExists{Path: PConcat{
				L: Word(wy...),
				R: PEq{Inner: inner},
			}}})
		}
	}
	if len(conjuncts) == 0 {
		// Single-node tree: no pair to distinguish; ϕ_δ is vacuous. Encode
		// the tautology ¬⟨ε≠⟩... ε≠ is always empty, so ⟨ε≠⟩ is false.
		return NNot{Inner: NExists{Path: PNeq{Inner: PEps{}}}}, nil
	}
	return AndAll(conjuncts...), nil
}

// rootWords returns for each node index the label word of the unique path
// from the root.
func rootWords(g *datagraph.Graph, root int) [][]string {
	snap := g.Freeze()
	words := make([][]string, g.NumNodes())
	words[root] = []string{}
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range treeChildren(snap, v) {
			words[c.to] = append(append([]string(nil), words[v]...), c.label)
			stack = append(stack, c.to)
		}
	}
	return words
}

// PhiPrime assembles the Theorem 7 satisfiability formula
// ϕ′ = ϕ_G ∧ ϕ_δ ∧ ¬ϕ: satisfiable iff some data graph G′ ⊇ G (up to
// renaming) has a node avoiding ϕ at g's root position.
func PhiPrime(g *datagraph.Graph, root datagraph.NodeID, phi NodeExpr) (NodeExpr, error) {
	pg, err := PhiG(g, root)
	if err != nil {
		return nil, err
	}
	pd, err := PhiDelta(g, root)
	if err != nil {
		return nil, err
	}
	return NAnd{L: NAnd{L: pg, R: pd}, R: NNot{Inner: phi}}, nil
}

// ContainedWithin reports whether [[φ]]_G ⊆ [[ψ]]_G for every graph G up to
// the given bounds — the bounded slice of the containment problem, which
// Theorem 7 proves undecidable in general. It searches for a countermodel
// of φ ∧ ¬ψ; (found, witness) semantics mirror SearchModel: contained=false
// comes with the separating graph.
func ContainedWithin(phi, psi NodeExpr, maxNodes int, labels []string, maxCandidates int) (contained bool, counter *datagraph.Graph) {
	counterexample := NAnd{L: phi, R: NNot{Inner: psi}}
	g, found := SearchModel(counterexample, maxNodes, labels, maxCandidates)
	if found {
		return false, g
	}
	return true, nil
}

// SearchModel enumerates small data graphs looking for one in which φ is
// satisfied by at least one node. It explores graphs with up to maxNodes
// nodes over the given labels, with data values drawn canonically (value i
// of node i, merged according to set partitions), and gives up after
// maxCandidates graphs. Satisfiability of GXPath_core^~ is undecidable
// (Theorem 7), so this is necessarily a semi-decision helper for the
// experiments.
func SearchModel(phi NodeExpr, maxNodes int, labels []string, maxCandidates int) (*datagraph.Graph, bool) {
	tried := 0
	for n := 1; n <= maxNodes; n++ {
		slots := n * n * len(labels)
		if slots > 20 {
			return nil, false // too many edge subsets to enumerate
		}
		partitions := valuePartitions(n)
		for mask := 0; mask < 1<<uint(slots); mask++ {
			for _, part := range partitions {
				if tried >= maxCandidates {
					return nil, false
				}
				tried++
				g := buildCandidate(n, labels, mask, part)
				if sat := EvalNode(g, phi, datagraph.MarkedNulls); anyTrue(sat) {
					return g, true
				}
			}
		}
	}
	return nil, false
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// valuePartitions returns canonical value-class assignments for n nodes
// (restricted growth strings), so value equality patterns are enumerated
// without renaming duplicates.
func valuePartitions(n int) [][]int {
	var out [][]int
	var rec func(prefix []int, maxUsed int)
	rec = func(prefix []int, maxUsed int) {
		if len(prefix) == n {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for c := 0; c <= maxUsed+1; c++ {
			next := maxUsed
			if c > maxUsed {
				next = c
			}
			rec(append(prefix, c), next)
		}
	}
	rec([]int{}, -1)
	return out
}

func buildCandidate(n int, labels []string, mask int, part []int) *datagraph.Graph {
	g := datagraph.New()
	for i := 0; i < n; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("m%d", i)), datagraph.V(fmt.Sprintf("v%d", part[i])))
	}
	slot := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for _, l := range labels {
				if mask&(1<<uint(slot)) != 0 {
					g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("m%d", u)), l, datagraph.NodeID(fmt.Sprintf("m%d", v)))
				}
				slot++
			}
		}
	}
	return g
}
