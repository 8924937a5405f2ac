package core

import (
	"fmt"
	"iter"
	"slices"
	"strings"

	"repro/internal/datagraph"
)

// Answer is one certain-answer tuple: a pair of source nodes (id, value).
type Answer struct {
	From, To datagraph.Node
}

func (a Answer) String() string {
	return fmt.Sprintf("(%s, %s)", a.From, a.To)
}

// compareAnswers orders answers by (from, to) id.
func compareAnswers(x, y Answer) int {
	if c := strings.Compare(string(x.From.ID), string(y.From.ID)); c != 0 {
		return c
	}
	return strings.Compare(string(x.To.ID), string(y.To.ID))
}

// Answers is a set of certain answers, held as one slice sorted by
// (from, to) id with no two entries on the same id pair. The producers
// build it in one pass from the evaluator's pair runs (see
// answersFromRuns); Add, Has and the set algebra keep the order.
type Answers struct {
	s []Answer
}

// NewAnswers returns an empty answer set.
func NewAnswers() *Answers { return &Answers{} }

// find returns the position of the id pair, or where it would be inserted.
func (a *Answers) find(from, to datagraph.NodeID) (int, bool) {
	return slices.BinarySearchFunc(a.s, Answer{From: datagraph.Node{ID: from}, To: datagraph.Node{ID: to}}, compareAnswers)
}

// Add inserts an answer; an answer already present on the same id pair is
// replaced.
func (a *Answers) Add(ans Answer) {
	i, ok := a.find(ans.From.ID, ans.To.ID)
	if ok {
		a.s[i] = ans
		return
	}
	a.s = slices.Insert(a.s, i, ans)
}

// Has reports whether the pair of ids is present.
func (a *Answers) Has(from, to datagraph.NodeID) bool {
	_, ok := a.find(from, to)
	return ok
}

// Len returns the number of answers.
func (a *Answers) Len() int { return len(a.s) }

// Sorted returns a copy of the answers ordered by (from, to) id.
func (a *Answers) Sorted() []Answer { return slices.Clone(a.s) }

// All yields the answers ordered by (from, to) id without copying them.
func (a *Answers) All() iter.Seq[Answer] {
	return func(yield func(Answer) bool) {
		for _, ans := range a.s {
			if !yield(ans) {
				return
			}
		}
	}
}

// Equal reports set equality on id pairs.
func (a *Answers) Equal(b *Answers) bool {
	return slices.EqualFunc(a.s, b.s, func(x, y Answer) bool { return compareAnswers(x, y) == 0 })
}

// SubsetOf reports a ⊆ b on id pairs.
func (a *Answers) SubsetOf(b *Answers) bool {
	j := 0
	for _, x := range a.s {
		for j < len(b.s) && compareAnswers(b.s[j], x) < 0 {
			j++
		}
		if j == len(b.s) || compareAnswers(b.s[j], x) != 0 {
			return false
		}
	}
	return true
}

// Intersect keeps only answers also present in b.
func (a *Answers) Intersect(b *Answers) {
	out, j := a.s[:0], 0
	for _, x := range a.s {
		for j < len(b.s) && compareAnswers(b.s[j], x) < 0 {
			j++
		}
		if j < len(b.s) && compareAnswers(b.s[j], x) == 0 {
			out = append(out, x)
		}
	}
	clear(a.s[len(out):])
	a.s = out
}

func (a *Answers) String() string {
	parts := make([]string, 0, a.Len())
	for _, ans := range a.s {
		parts = append(parts, ans.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// answersFromRuns builds the answer set of the index pairs in runs over g
// whose two endpoints pass keep. It is the one constructor every producer
// goes through, and it is linear plus the id sorts when the runs are what
// the engine emits: each start node's pairs in one stretch, start nodes
// ascending. Other orders are first sorted by start index.
//
// The pairs are grouped into rows, one per start node; the rows are sorted
// by the start node's id and each row by the target's id. Duplicate pairs
// collapse to one answer.
func answersFromRuns(g *datagraph.Graph, keep func(i int) bool, runs [][]datagraph.Pair) *Answers {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	if total == 0 {
		return NewAnswers()
	}
	kept := make([]datagraph.Pair, 0, total)
	ascending, last, lastOK := true, -1, false
	for _, run := range runs {
		for _, p := range run {
			if p.From != last {
				ascending = ascending && p.From > last
				last, lastOK = p.From, keep(p.From)
			}
			if lastOK && keep(p.To) {
				kept = append(kept, p)
			}
		}
	}
	if !ascending {
		// Counting sort by start index: a hash-ordered pair set arrives
		// here, and this is linear where a comparison sort is not.
		at := make([]int, g.NumNodes()+1)
		for _, p := range kept {
			at[p.From+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		sorted := make([]datagraph.Pair, len(kept))
		for _, p := range kept {
			sorted[at[p.From]] = p
			at[p.From]++
		}
		kept = sorted
	}

	// A row is one start node's stretch of kept, a cell one target in a
	// row; each carries its node's id for sorting.
	type row struct {
		id     datagraph.NodeID
		lo, hi int
	}
	type cell struct {
		id datagraph.NodeID
		to int
	}
	var rows []row
	for lo := 0; lo < len(kept); {
		hi := lo + 1
		for hi < len(kept) && kept[hi].From == kept[lo].From {
			hi++
		}
		rows = append(rows, row{id: g.Node(kept[lo].From).ID, lo: lo, hi: hi})
		lo = hi
	}
	slices.SortFunc(rows, func(x, y row) int { return strings.Compare(string(x.id), string(y.id)) })

	out := make([]Answer, 0, len(kept))
	var cells []cell
	for _, r := range rows {
		cells = cells[:0]
		for _, p := range kept[r.lo:r.hi] {
			cells = append(cells, cell{id: g.Node(p.To).ID, to: p.To})
		}
		slices.SortFunc(cells, func(x, y cell) int { return strings.Compare(string(x.id), string(y.id)) })
		from := g.Node(kept[r.lo].From)
		for i, c := range cells {
			if i == 0 || c.to != cells[i-1].to {
				out = append(out, Answer{From: from, To: g.Node(c.to)})
			}
		}
	}
	return &Answers{s: out}
}

// NullAnswers builds the answers of the pair runs over the universal
// solution u whose endpoints are non-null nodes: the final step of the
// Theorem 4 algorithm.
func NullAnswers(u *datagraph.Graph, runs [][]datagraph.Pair) *Answers {
	return answersFromRuns(u, func(i int) bool { return !u.Value(i).IsNull() }, runs)
}

// DomAnswers builds the answers of the pair runs over g whose endpoints
// lie in dom: the final step of the Theorem 5 algorithm.
func DomAnswers(g *datagraph.Graph, dom map[datagraph.NodeID]struct{}, runs [][]datagraph.Pair) *Answers {
	return answersFromRuns(g, func(i int) bool {
		_, ok := dom[g.Node(i).ID]
		return ok
	}, runs)
}
