package gxpath

import "repro/internal/datagraph"

// This file extends the core fragment with the *regular* GXPath operators
// the paper deliberately excludes from GXPath_core^~ (Section 9): negation
// of path expressions ¬α, intersection α∩β, and transitive closure α* over
// arbitrary path expressions. [26] proved static-analysis undecidability
// for the regular language; the paper's Theorem 7 sharpens this to the core
// fragment. Keeping the regular operators behind distinct AST nodes lets
// UsesOnlyCore delimit exactly the fragment each theorem speaks about.
//
// Concrete syntax (ParsePath): prefix '~' for complement, infix '&' for
// intersection, and postfix '*' after a parenthesised group for the
// generalised closure.

// PNeg is ¬α: the complement of [[α]] within V × V.
type PNeg struct{ Inner PathExpr }

// PAnd is α∩β.
type PAnd struct{ L, R PathExpr }

// PStarAny is α* for an arbitrary path expression (regular GXPath; core
// GXPath only closes single labels, see PStar).
type PStarAny struct{ Inner PathExpr }

func (PNeg) isPath()     {}
func (PAnd) isPath()     {}
func (PStarAny) isPath() {}

func (p PNeg) String() string     { return "~" + pathGroup(p.Inner) }
func (p PAnd) String() string     { return pathGroup(p.L) + " & " + pathGroup(p.R) }
func (p PStarAny) String() string { return "(" + p.Inner.String() + ")*" }

// evalRegular handles the non-core operators; called from evalPath.
func evalRegular(snap *datagraph.Snapshot, p PathExpr, mode datagraph.CompareMode) (*datagraph.PairSet, bool) {
	switch t := p.(type) {
	case PNeg:
		inner := evalPath(snap, t.Inner, mode)
		return datagraph.ComplementPairs(inner, snap.NumNodes()), true
	case PAnd:
		return evalPath(snap, t.L, mode).Intersect(evalPath(snap, t.R, mode)), true
	case PStarAny:
		rel := evalPath(snap, t.Inner, mode)
		return reflexiveTransitiveClosure(snap, rel), true
	default:
		return nil, false
	}
}

func reflexiveTransitiveClosure(snap *datagraph.Snapshot, rel *datagraph.PairSet) *datagraph.PairSet {
	n := snap.NumNodes()
	out := newRel(snap)
	if rel.Dense() {
		// The relation's bitmap rows double as adjacency.
		return closureRows(n, out, func(v int, visit func(int)) {
			rel.EachInRow(v, visit)
		})
	}
	adj := make(map[int][]int)
	rel.Each(func(p datagraph.Pair) { adj[p.From] = append(adj[p.From], p.To) })
	return closureRows(n, out, func(v int, visit func(int)) {
		for _, w := range adj[v] {
			visit(w)
		}
	})
}
