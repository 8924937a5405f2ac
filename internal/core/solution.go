package core

import (
	"strconv"

	"repro/internal/datagraph"
)

// This file implements the solution-building procedures of Sections 7 and 8:
// dom(M, Gs), universal solutions populated with SQL-null nodes, and least
// informative solutions populated with fresh distinct data values.

// throwaway builds a single-use materialization for the legacy free
// functions, which recompute everything per call by design.
func throwaway(m *Mapping, gs *datagraph.Graph) (*Materialization, error) {
	cm, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return NewMaterialization(cm, gs), nil
}

// Dom computes dom(M, Gs): all source nodes appearing in some query result
// q(Gs) for (q, q′) ∈ M, in dense-index order of Gs. An invalid mapping
// (nil, or nil rule queries) panics, matching the pre-session behavior of
// evaluating a nil query.
func Dom(m *Mapping, gs *datagraph.Graph) []datagraph.Node {
	mat, err := throwaway(m, gs)
	if err != nil {
		panic(err)
	}
	return mat.DomNodes()
}

// DomIDs returns the ids of Dom as a set.
func DomIDs(m *Mapping, gs *datagraph.Graph) map[datagraph.NodeID]struct{} {
	mat, err := throwaway(m, gs)
	if err != nil {
		panic(err)
	}
	return mat.DomIDs()
}

// freshIDs hands out node ids that cannot collide with ids already present
// in a graph.
type freshIDs struct {
	prefix string
	n      int
}

func newFreshIDs(g *datagraph.Graph, base string) *freshIDs {
	prefix := base
	for {
		collision := false
		for _, n := range g.Nodes() {
			if len(n.ID) >= len(prefix) && string(n.ID[:len(prefix)]) == prefix {
				collision = true
				break
			}
		}
		if !collision {
			return &freshIDs{prefix: prefix}
		}
		prefix += "_"
	}
}

func (f *freshIDs) next() datagraph.NodeID {
	f.n++
	return datagraph.NodeID(f.prefix + strconv.Itoa(f.n))
}

// freshValues hands out data values distinct from every value in a graph
// and from each other.
type freshValues struct {
	prefix string
	n      int
}

func newFreshValues(g *datagraph.Graph, base string) *freshValues {
	prefix := base
	for {
		collision := false
		for _, v := range g.Values() {
			raw := v.Raw()
			if len(raw) >= len(prefix) && raw[:len(prefix)] == prefix {
				collision = true
				break
			}
		}
		if !collision {
			return &freshValues{prefix: prefix}
		}
		prefix += "_"
	}
}

func (f *freshValues) next() datagraph.Value {
	f.n++
	return datagraph.V(f.prefix + strconv.Itoa(f.n))
}

// UniversalSolution builds the Section 7 universal solution for a relational
// GSM: dom(M, Gs) is copied, and for each rule (q, a₁…aₖ) and each pair
// (v, v′) ∈ q(Gs), a path v a₁ n₁ a₂ … aₖ v′ is added whose k−1 intermediate
// nodes are fresh null nodes (value n). It errors with ErrInfinite if the
// mapping is not relational, or with ErrNoSolution if a rule with target ε
// demands v = v′ for a pair with v ≠ v′ (in which case no solution exists at
// all).
func UniversalSolution(m *Mapping, gs *datagraph.Graph) (*datagraph.Graph, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.Universal()
}

// LeastInformativeSolution builds the Section 8 least informative solution:
// identical to the universal solution except that the fresh intermediate
// nodes carry fresh, pairwise distinct data values instead of nulls.
func LeastInformativeSolution(m *Mapping, gs *datagraph.Graph) (*datagraph.Graph, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.LeastInformative()
}

type solutionStyle int

const (
	solutionNulls solutionStyle = iota
	solutionFresh
)

// NullNodes returns the ids of null nodes in a graph (universal-solution
// intermediates).
func NullNodes(g *datagraph.Graph) []datagraph.NodeID {
	var out []datagraph.NodeID
	for _, n := range g.Nodes() {
		if n.IsNullNode() {
			out = append(out, n.ID)
		}
	}
	return out
}
