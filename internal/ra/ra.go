// Package ra implements register automata over data paths (Kaminski &
// Francez; used by the paper in Section 3 as the automaton model underlying
// data RPQs). A register automaton reads a data path d₁a₁d₂…aₙdₙ₊₁,
// maintaining a finite set of registers holding data values. Transitions are
// either ε-moves or letter moves; both may test a condition against the
// *current* data value and then store the current value into registers.
//
// This engine is the common compilation target for regular expressions with
// memory (package rem) and with equality (package ree): the paper's ↓x̄.e
// becomes an ε-move that stores, e[c] an ε-move that tests, and e=/e≠ a
// store-on-entry/test-on-exit pair around the fragment of e.
//
// Conditions are evaluated under a datagraph.CompareMode, which is how the
// SQL-null semantics of Section 7 reaches query evaluation: in SQLNulls
// mode no comparison involving the null value is true.
package ra

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/datagraph"
)

// Cond is a condition evaluated against a register assignment and the
// current data value (the pair (σ, d) of the paper's Section 3).
type Cond interface {
	// Eval returns the truth value of the condition. regs[i] is valid only
	// where set[i] is true; comparisons against unset registers are false
	// (the paper excludes such pathological expressions; we evaluate them
	// harmlessly).
	Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool
	String() string
}

// True is the always-true condition.
type True struct{}

// Eq is the atomic condition x= : σ(x) = d.
type Eq struct{ Reg int }

// Neq is the atomic condition x≠ : σ(x) ≠ d.
type Neq struct{ Reg int }

// And is conjunction.
type And struct{ L, R Cond }

// Or is disjunction.
type Or struct{ L, R Cond }

func (True) Eval([]datagraph.Value, []bool, datagraph.Value, datagraph.CompareMode) bool {
	return true
}

func (c Eq) Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	return set[c.Reg] && mode.Eq(regs[c.Reg], d)
}

func (c Neq) Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	return set[c.Reg] && mode.Neq(regs[c.Reg], d)
}

func (c And) Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	return c.L.Eval(regs, set, d, mode) && c.R.Eval(regs, set, d, mode)
}

func (c Or) Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	return c.L.Eval(regs, set, d, mode) || c.R.Eval(regs, set, d, mode)
}

func (True) String() string  { return "true" }
func (c Eq) String() string  { return fmt.Sprintf("r%d=", c.Reg) }
func (c Neq) String() string { return fmt.Sprintf("r%d!=", c.Reg) }
func (c And) String() string { return fmt.Sprintf("(%s & %s)", c.L, c.R) }
func (c Or) String() string  { return fmt.Sprintf("(%s | %s)", c.L, c.R) }

// HasNeq reports whether the condition contains an inequality atom; used to
// classify REM= (Section 8).
func HasNeq(c Cond) bool {
	switch t := c.(type) {
	case Neq:
		return true
	case And:
		return HasNeq(t.L) || HasNeq(t.R)
	case Or:
		return HasNeq(t.L) || HasNeq(t.R)
	default:
		return false
	}
}

// Transition is a move of the automaton. ε-moves test Cond against the
// current data value and then store it into Store registers. Letter moves
// first consume a label matching Label/AnyLabel, making the *next* data
// value current, then test Cond against it and store it.
type Transition struct {
	To       int
	Eps      bool
	Label    string
	AnyLabel bool
	Cond     Cond
	Store    []int
}

// Automaton is a register automaton with a single start and accept state
// (an invariant of the expression compilers).
type Automaton struct {
	NumStates int
	NumRegs   int
	Start     int
	Accept    int
	Trans     [][]Transition // indexed by source state

	// fast caches whether the interned-id engine applies (few registers,
	// known condition node types): 0 unknown, 1 yes, -1 no. Resolved eagerly
	// by Finish so evaluation never mutates the automaton (workers share it).
	fast int8

	// Start-frontier metadata, precomputed by Finish (see
	// computeStartInfo); the graph kernel prunes start nodes with it.
	startLabels []string
	startAny    bool
	emptyOK     bool

	// progCache holds the automaton lowered onto the most recent graph
	// topology (transition labels interned, dead transitions dropped); see
	// snapshot.go.
	progCache atomic.Pointer[prog]
}

func (a *Automaton) fastOK() bool {
	if a.fast == 0 {
		if a.supportsFast() {
			a.fast = 1
		} else {
			a.fast = -1
		}
	}
	return a.fast == 1
}

// computeStartInfo fills the start-frontier metadata: walk ε-transitions
// from the start state (ignoring conditions — an over-approximation) and
// collect the consuming transitions encountered. startLabels is then a
// superset of the labels able to begin a nonempty match (exhaustive unless
// startAny), and emptyOK over-approximates acceptance of a single-node
// path, so skipping a start node with none of the labels is always sound.
func (a *Automaton) computeStartInfo() {
	seen := make([]bool, a.NumStates)
	stack := []int{a.Start}
	seen[a.Start] = true
	labelSet := map[string]struct{}{}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == a.Accept {
			a.emptyOK = true
		}
		for _, t := range a.Trans[s] {
			if t.Eps {
				if !seen[t.To] {
					seen[t.To] = true
					stack = append(stack, t.To)
				}
				continue
			}
			if t.AnyLabel {
				a.startAny = true
				continue
			}
			labelSet[t.Label] = struct{}{}
		}
	}
	for l := range labelSet {
		a.startLabels = append(a.startLabels, l)
	}
	sort.Strings(a.startLabels)
}

// Builder incrementally constructs an Automaton.
type Builder struct {
	trans   [][]Transition
	numRegs int
}

// State allocates a fresh state and returns its index.
func (b *Builder) State() int {
	b.trans = append(b.trans, nil)
	return len(b.trans) - 1
}

// Eps adds an ε-move.
func (b *Builder) Eps(from, to int, cond Cond, store []int) {
	b.noteRegs(cond, store)
	b.trans[from] = append(b.trans[from], Transition{To: to, Eps: true, Cond: cond, Store: store})
}

// Letter adds a letter move on the given label (or any label).
func (b *Builder) Letter(from, to int, label string, anyLabel bool, cond Cond, store []int) {
	b.noteRegs(cond, store)
	b.trans[from] = append(b.trans[from], Transition{
		To: to, Label: label, AnyLabel: anyLabel, Cond: cond, Store: store,
	})
}

func (b *Builder) noteRegs(cond Cond, store []int) {
	for _, r := range store {
		if r+1 > b.numRegs {
			b.numRegs = r + 1
		}
	}
	var walk func(Cond)
	walk = func(c Cond) {
		switch t := c.(type) {
		case Eq:
			if t.Reg+1 > b.numRegs {
				b.numRegs = t.Reg + 1
			}
		case Neq:
			if t.Reg+1 > b.numRegs {
				b.numRegs = t.Reg + 1
			}
		case And:
			walk(t.L)
			walk(t.R)
		case Or:
			walk(t.L)
			walk(t.R)
		}
	}
	walk(cond)
}

// Finish seals the automaton. All lazily-derivable metadata (fast-path
// eligibility, start-frontier labels) is resolved here so the finished
// automaton is never written to again and can be shared across goroutines.
func (b *Builder) Finish(start, accept int) *Automaton {
	a := &Automaton{
		NumStates: len(b.trans),
		NumRegs:   b.numRegs,
		Start:     start,
		Accept:    accept,
		Trans:     b.trans,
	}
	a.fastOK()
	a.computeStartInfo()
	return a
}

// regSnapshot encodes a register assignment as a compact string key for
// visited-set deduplication.
func regSnapshot(regs []datagraph.Value, set []bool) string {
	var sb strings.Builder
	for i := range regs {
		if !set[i] {
			sb.WriteByte('u')
		} else if regs[i].IsNull() {
			sb.WriteByte('n')
		} else {
			s := regs[i].Raw()
			fmt.Fprintf(&sb, "v%d:%s", len(s), s)
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// config is a search state shared by the data-path and graph evaluators.
type config struct {
	state int
	pos   int // data-path position, or graph node index
	regs  []datagraph.Value
	set   []bool
}

func (c config) key() string {
	return fmt.Sprintf("%d.%d.%s", c.state, c.pos, regSnapshot(c.regs, c.set))
}

func applyStore(c config, store []int, d datagraph.Value) config {
	if len(store) == 0 {
		return c
	}
	regs := append([]datagraph.Value(nil), c.regs...)
	set := append([]bool(nil), c.set...)
	for _, r := range store {
		regs[r] = d
		set[r] = true
	}
	c.regs, c.set = regs, set
	return c
}

// MatchDataPath reports whether the automaton accepts the data path under
// the given comparison mode. The search explores configurations
// (state, position, registers); since register contents range over the
// values of the path, the configuration space is finite and membership
// terminates (polynomial for a fixed number of registers, NP-complete in
// combined complexity for REM as the paper notes).
func (a *Automaton) MatchDataPath(w datagraph.DataPath, mode datagraph.CompareMode) bool {
	if a.fastOK() {
		return a.matchDataPathFast(w, mode)
	}
	start := config{
		state: a.Start,
		pos:   0,
		regs:  make([]datagraph.Value, a.NumRegs),
		set:   make([]bool, a.NumRegs),
	}
	visited := map[string]struct{}{start.key(): {}}
	queue := []config{start}
	lastPos := len(w.Labels)
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if c.state == a.Accept && c.pos == lastPos {
			return true
		}
		cur := w.Values[c.pos]
		for _, t := range a.Trans[c.state] {
			var next config
			if t.Eps {
				if !t.Cond.Eval(c.regs, c.set, cur, mode) {
					continue
				}
				next = config{state: t.To, pos: c.pos, regs: c.regs, set: c.set}
				next = applyStore(next, t.Store, cur)
			} else {
				if c.pos >= len(w.Labels) {
					continue
				}
				if !t.AnyLabel && w.Labels[c.pos] != t.Label {
					continue
				}
				nv := w.Values[c.pos+1]
				if !t.Cond.Eval(c.regs, c.set, nv, mode) {
					continue
				}
				next = config{state: t.To, pos: c.pos + 1, regs: c.regs, set: c.set}
				next = applyStore(next, t.Store, nv)
			}
			k := next.key()
			if _, dup := visited[k]; !dup {
				visited[k] = struct{}{}
				queue = append(queue, next)
			}
		}
	}
	return false
}

// EvalFrom returns the node indices v such that some path from u to v has a
// data path accepted by the automaton. This is the graph-product evaluation
// underlying the NLogspace data-complexity claims (Theorems 3 and 5): the
// configuration space is nodes × states × register contents, with register
// contents drawn from the graph's values. It freezes the graph (cheap when
// already frozen) and runs the snapshot kernel.
func (a *Automaton) EvalFrom(g *datagraph.Graph, u int, mode datagraph.CompareMode) []int {
	snap := g.Freeze()
	p := a.program(snap)
	sc := p.getScratch()
	var out []int
	a.evalFrom(p, snap, u, mode, sc, func(v int) { out = append(out, v) })
	p.scratch.Put(sc)
	return out
}

// Eval returns all pairs (u, v) such that some path from u to v matches.
func (a *Automaton) Eval(g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet {
	n := g.NumNodes()
	out := datagraph.NewPairSetSized(n)
	a.EvalRange(g, 0, n, mode, out.Add)
	return out
}
