package datagraph

import (
	"math/bits"
	"sort"
)

// Pair is an ordered pair of dense node indices, the unit of binary query
// answers (the paper's queries are mainly binary: q(G) ⊆ V × V).
type Pair struct {
	From, To int
}

// densePairBudgetWords caps the dense representation at 16 MiB of bitmap
// per set; above it NewPairSetSized falls back to the hash representation.
const densePairBudgetWords = 1 << 21

// PairSet is a set of node-index pairs. It has two representations:
//
//   - sparse (NewPairSet): a hash set of pairs, usable without knowing the
//     node universe, as the general-purpose answer container;
//   - dense (NewPairSetSized): one bitmap row of ⌈n/64⌉ words per source
//     node. Add/Has are two shifts and a mask, Union/Intersect/SubsetOf/
//     Equal are word-wise loops, and rows double as adjacency bitmaps for
//     the relational algebra of the evaluators (compose, closure).
//
// The two representations are interchangeable through the common API, with
// one constraint: a dense set only holds pairs inside its universe (Add
// panics outside it), so producers choose NewPairSetSized only when every
// index is bounded by the graph size. The set algebra picks word-wise fast
// paths when both operands are dense over the same universe and returns
// sparse results for mixed operands. The zero value is not usable; create
// with NewPairSet or NewPairSetSized.
//
// Concurrency: a dense PairSet may be written by multiple goroutines
// concurrently as long as each goroutine only Adds pairs with sources it
// owns (rows are disjoint word ranges; the engine's frontier shards rely on
// this). The sparse representation requires external locking.
type PairSet struct {
	m map[Pair]struct{} // sparse mode; nil in dense mode

	// Dense mode: rows[f*w : (f+1)*w] is the bitmap of targets of f.
	n    int
	w    int
	rows []uint64
}

// NewPairSet returns an empty sparse pair set.
func NewPairSet() *PairSet { return &PairSet{m: make(map[Pair]struct{})} }

// NewPairSetSized returns an empty pair set over the node universe
// {0, …, n−1}, dense when the bitmap fits the memory budget and sparse
// otherwise. Evaluators that know the graph size use it so answer sets
// become flat bitmaps instead of hash tables.
func NewPairSetSized(n int) *PairSet {
	if n <= 0 {
		return NewPairSet()
	}
	w := (n + 63) / 64
	if int64(n)*int64(w) > densePairBudgetWords {
		return NewPairSet()
	}
	return &PairSet{n: n, w: w, rows: make([]uint64, n*w)}
}

// PairSetOf returns the set of the pairs in runs over the node universe
// {0, …, n−1}: dense when NewPairSetSized(n) would be, otherwise a hash set
// sized for the pairs up front.
func PairSetOf(n int, runs ...[]Pair) *PairSet {
	s := NewPairSetSized(n)
	if s.m != nil {
		total := 0
		for _, run := range runs {
			total += len(run)
		}
		s.m = make(map[Pair]struct{}, total)
	}
	for _, run := range runs {
		for _, p := range run {
			s.AddPair(p)
		}
	}
	return s
}

// Dense reports whether the set uses the bitmap representation.
func (s *PairSet) Dense() bool { return s.m == nil }

// Universe returns the dense universe size, or 0 for sparse sets.
func (s *PairSet) Universe() int {
	if s.m != nil {
		return 0
	}
	return s.n
}

// Add inserts the pair. A dense set holds pairs over its fixed universe
// only; inserting an index outside [0, Universe()) panics (silently
// corrupting a neighbouring row would be far worse).
func (s *PairSet) Add(from, to int) {
	if s.m != nil {
		s.m[Pair{from, to}] = struct{}{}
		return
	}
	if from < 0 || from >= s.n || to < 0 || to >= s.n {
		panic("datagraph: pair outside the dense PairSet universe")
	}
	s.rows[from*s.w+to>>6] |= uint64(1) << (to & 63)
}

// AddPair inserts the pair.
func (s *PairSet) AddPair(p Pair) { s.Add(p.From, p.To) }

// Has reports membership.
func (s *PairSet) Has(from, to int) bool {
	if s.m != nil {
		_, ok := s.m[Pair{from, to}]
		return ok
	}
	if from < 0 || from >= s.n || to < 0 || to >= s.n {
		return false
	}
	return s.rows[from*s.w+to>>6]&(uint64(1)<<(to&63)) != 0
}

// Len returns the number of pairs.
func (s *PairSet) Len() int {
	if s.m != nil {
		return len(s.m)
	}
	total := 0
	for _, w := range s.rows {
		total += bits.OnesCount64(w)
	}
	return total
}

// AddRowSet unions a NodeSet (over the same universe) into the target row
// of from: afterwards (from, v) ∈ s for every v ∈ t. It is how BFS closures
// publish a reachable set in one word-wise pass.
func (s *PairSet) AddRowSet(from int, t *NodeSet) {
	if s.m == nil && t.n == s.n {
		row := s.rows[from*s.w : (from+1)*s.w]
		for i, w := range t.words {
			row[i] |= w
		}
		return
	}
	t.Each(func(v int) { s.Add(from, v) })
}

// EachInRow calls f for every v with (from, v) ∈ s, ascending for dense
// sets. Sparse sets scan the whole table; dense callers use it as adjacency
// iteration.
func (s *PairSet) EachInRow(from int, f func(v int)) {
	if s.m != nil {
		for p := range s.m {
			if p.From == from {
				f(p.To)
			}
		}
		return
	}
	row := s.rows[from*s.w : (from+1)*s.w]
	for wi, w := range row {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// RowNonEmpty reports whether from has any target in s.
func (s *PairSet) RowNonEmpty(from int) bool {
	if s.m != nil {
		for p := range s.m {
			if p.From == from {
				return true
			}
		}
		return false
	}
	for _, w := range s.rows[from*s.w : (from+1)*s.w] {
		if w != 0 {
			return true
		}
	}
	return false
}

// Sorted returns the pairs in deterministic order.
func (s *PairSet) Sorted() []Pair {
	if s.m == nil {
		// Dense iteration is already (From, To)-ascending.
		out := make([]Pair, 0, s.Len())
		s.Each(func(p Pair) { out = append(out, p) })
		return out
	}
	out := make([]Pair, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Each calls f for every pair; dense sets iterate in ascending order,
// sparse sets in unspecified order.
func (s *PairSet) Each(f func(Pair)) {
	if s.m != nil {
		for p := range s.m {
			f(p)
		}
		return
	}
	for from := 0; from < s.n; from++ {
		row := s.rows[from*s.w : (from+1)*s.w]
		for wi, w := range row {
			base := wi << 6
			for w != 0 {
				f(Pair{From: from, To: base + bits.TrailingZeros64(w)})
				w &= w - 1
			}
		}
	}
}

// sameDense reports whether both sets are dense over the same universe, in
// which case the set algebra can run word-wise.
func (s *PairSet) sameDense(t *PairSet) bool {
	return s.m == nil && t.m == nil && s.n == t.n
}

// Equal reports whether two sets contain the same pairs.
func (s *PairSet) Equal(t *PairSet) bool {
	if s.sameDense(t) {
		for i, w := range s.rows {
			if w != t.rows[i] {
				return false
			}
		}
		return true
	}
	if s.Len() != t.Len() {
		return false
	}
	return s.SubsetOf(t)
}

// SubsetOf reports s ⊆ t.
func (s *PairSet) SubsetOf(t *PairSet) bool {
	if s.sameDense(t) {
		for i, w := range s.rows {
			if w&^t.rows[i] != 0 {
				return false
			}
		}
		return true
	}
	ok := true
	s.Each(func(p Pair) {
		if ok && !t.Has(p.From, p.To) {
			ok = false
		}
	})
	return ok
}

// Intersect returns s ∩ t.
func (s *PairSet) Intersect(t *PairSet) *PairSet {
	if s.sameDense(t) {
		out := NewPairSetSized(s.n)
		if out.m == nil {
			for i, w := range s.rows {
				out.rows[i] = w & t.rows[i]
			}
			return out
		}
	}
	out := s.emptyLike()
	s.Each(func(p Pair) {
		if t.Has(p.From, p.To) {
			out.AddPair(p)
		}
	})
	return out
}

// Union returns s ∪ t. Mixed-representation (or differently-sized)
// operands produce a sparse result, since t may hold pairs outside s's
// dense universe.
func (s *PairSet) Union(t *PairSet) *PairSet {
	if s.sameDense(t) {
		out := NewPairSetSized(s.n)
		if out.m == nil {
			for i, w := range s.rows {
				out.rows[i] = w | t.rows[i]
			}
			return out
		}
	}
	out := NewPairSet()
	s.Each(out.AddPair)
	t.Each(out.AddPair)
	return out
}

// emptyLike returns an empty set with the receiver's representation.
func (s *PairSet) emptyLike() *PairSet {
	if s.m == nil {
		return NewPairSetSized(s.n)
	}
	return NewPairSet()
}

// ComposePairs returns the relational composition a ∘ b =
// {(u, t) | ∃v (u, v) ∈ a ∧ (v, t) ∈ b}. When both sets are dense over the
// same universe the composition is a word-wise row union: out-row(u) is the
// OR of b's rows across a's targets of u.
func ComposePairs(a, b *PairSet) *PairSet {
	if a.sameDense(b) {
		out := NewPairSetSized(a.n)
		if out.m == nil {
			w := a.w
			for u := 0; u < a.n; u++ {
				dst := out.rows[u*w : (u+1)*w]
				a.EachInRow(u, func(v int) {
					src := b.rows[v*w : (v+1)*w]
					for i, word := range src {
						dst[i] |= word
					}
				})
			}
			return out
		}
	}
	// Index b by source, then join. The result is sparse: b's targets may
	// lie outside a's dense universe.
	byFrom := make(map[int][]int)
	b.Each(func(p Pair) { byFrom[p.From] = append(byFrom[p.From], p.To) })
	out := NewPairSet()
	a.Each(func(p Pair) {
		for _, t := range byFrom[p.To] {
			out.Add(p.From, t)
		}
	})
	return out
}

// ComplementPairs returns (V × V) \ s over the universe {0, …, n−1}.
// Whenever the output is dense the complement is word-wise: a dense operand
// over the same universe is negated row by row, and any other operand
// (sparse, or dense over a different universe) is first materialized into
// the dense output with one pass over its members, then negated in place —
// O(n²/64 + |s|) instead of the n² hash probes of the naive loop. The tail
// bits of each row beyond the universe are masked off. Only when the
// universe exceeds the dense budget does the naive membership loop remain.
func ComplementPairs(s *PairSet, n int) *PairSet {
	out := NewPairSetSized(n)
	if out.m == nil {
		var tail uint64 = ^uint64(0)
		if n&63 != 0 {
			tail = (uint64(1) << (n & 63)) - 1
		}
		if s.m == nil && s.n == n {
			for f := 0; f < n; f++ {
				row := out.rows[f*out.w : (f+1)*out.w]
				src := s.rows[f*s.w : (f+1)*s.w]
				for i := range row {
					row[i] = ^src[i]
				}
				row[len(row)-1] &= tail
			}
			return out
		}
		// Mark the operand's members (ignoring pairs outside the
		// universe, which cannot affect the complement), then negate.
		s.Each(func(p Pair) {
			if p.From >= 0 && p.From < n && p.To >= 0 && p.To < n {
				out.Add(p.From, p.To)
			}
		})
		for f := 0; f < n; f++ {
			row := out.rows[f*out.w : (f+1)*out.w]
			for i := range row {
				row[i] = ^row[i]
			}
			row[len(row)-1] &= tail
		}
		return out
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if !s.Has(u, v) {
				out.Add(u, v)
			}
		}
	}
	return out
}

// IDPair is a pair of node ids with their values, the API-boundary form of a
// query answer: the paper's answers are pairs of nodes (id, value).
type IDPair struct {
	From, To Node
}

// IDPairs resolves the dense indices against g, sorted deterministically.
func (s *PairSet) IDPairs(g *Graph) []IDPair {
	pairs := s.Sorted()
	out := make([]IDPair, len(pairs))
	for i, p := range pairs {
		out[i] = IDPair{From: g.Node(p.From), To: g.Node(p.To)}
	}
	return out
}
