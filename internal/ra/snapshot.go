package ra

import (
	"sync"

	"repro/internal/datagraph"
)

// This file is the snapshot evaluation kernel: the automaton compiled
// against one graph snapshot's label interner, evaluated over interned
// values with reusable scratch. Where the per-call fast path of fast.go
// re-interns every node value on every EvalFrom (O(V) per start node), the
// snapshot kernel resolves labels and values exactly once per (automaton,
// snapshot) pair and shares them across all start nodes of a batch.

// prog is the automaton lowered onto one snapshot: transition labels
// interned, transitions on labels absent from the graph dropped (they can
// never fire), start-frontier labels interned for pruning.
type prog struct {
	snap        *datagraph.Snapshot
	trans       [][]progTrans
	startLabels []datagraph.Label
	// scratch pools kernel scratch sized for snap, so each engine worker
	// reuses one across the chunks it evaluates instead of allocating one
	// per chunk.
	scratch sync.Pool
}

type progTrans struct {
	to    int32
	eps   bool
	any   bool
	label datagraph.Label
	cond  Cond
	store []int
}

// program returns the automaton lowered onto snap, cached on the automaton.
// Concurrent callers sharing one snapshot (the engine's workers) hit the
// cache; alternating snapshots rebuild, which is only wasted work.
func (a *Automaton) program(snap *datagraph.Snapshot) *prog {
	if p := a.progCache.Load(); p != nil && p.snap == snap {
		return p
	}
	p := &prog{snap: snap, trans: make([][]progTrans, a.NumStates)}
	p.scratch.New = func() any { return newSnapScratch(snap.NumNodes()) }
	for s, ts := range a.Trans {
		for _, t := range ts {
			pt := progTrans{to: int32(t.To), eps: t.Eps, any: t.AnyLabel, cond: t.Cond, store: t.Store}
			if !t.Eps && !t.AnyLabel {
				l, ok := snap.LabelID(t.Label)
				if !ok {
					continue // label absent from the graph: dead transition
				}
				pt.label = l
			}
			p.trans[s] = append(p.trans[s], pt)
		}
	}
	for _, name := range a.startLabels {
		if l, ok := snap.LabelID(name); ok {
			p.startLabels = append(p.startLabels, l)
		}
	}
	a.progCache.Store(p)
	return p
}

// canSkipStart reports whether u cannot begin any match: the start-label
// set is exhaustive, the automaton cannot accept a single-node path, and u
// has no out-edge carrying a start label.
func (p *prog) canSkipStart(a *Automaton, u int) bool {
	if a.startAny || a.emptyOK {
		return false
	}
	for _, l := range p.startLabels {
		if p.snap.HasOutLabeled(u, l) {
			return false
		}
	}
	return true
}

// snapScratch is the reusable per-batch state of the snapshot kernel.
type snapScratch struct {
	visited  map[fastKey]struct{}
	queue    []fastCfg
	accepted *datagraph.NodeSet
}

func newSnapScratch(n int) *snapScratch {
	return &snapScratch{
		visited:  make(map[fastKey]struct{}),
		queue:    make([]fastCfg, 0, 64),
		accepted: datagraph.NewNodeSet(n),
	}
}

// getScratch takes a scratch from the program's pool; callers put it back
// with p.scratch.Put when done.
func (p *prog) getScratch() *snapScratch { return p.scratch.Get().(*snapScratch) }

// evalFromProg runs the configuration BFS from start node u over the
// snapshot, emitting each accepted target once.
func (a *Automaton) evalFromProg(p *prog, u int, mode datagraph.CompareMode, sc *snapScratch, emit func(v int)) {
	snap := p.snap
	nullID := snap.NullValueID()
	clear(sc.visited)
	sc.queue = sc.queue[:0]
	sc.accepted.Clear()
	start := fastCfg{state: int32(a.Start), pos: int32(u)}
	sc.visited[start.key()] = struct{}{}
	sc.queue = append(sc.queue, start)
	for len(sc.queue) > 0 {
		c := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		if int(c.state) == a.Accept && sc.accepted.Add(int(c.pos)) {
			emit(int(c.pos))
		}
		cur := snap.ValueID(int(c.pos))
		for ti := range p.trans[c.state] {
			t := &p.trans[c.state][ti]
			if t.eps {
				ok, _ := evalCondID(t.cond, c.regs[:maxFastRegs], cur, nullID, mode)
				if !ok {
					continue
				}
				next := c
				next.state = t.to
				for _, r := range t.store {
					next.regs[r] = cur
				}
				k := next.key()
				if _, dup := sc.visited[k]; !dup {
					sc.visited[k] = struct{}{}
					sc.queue = append(sc.queue, next)
				}
				continue
			}
			var targets []int32
			if t.any {
				targets = snap.OutAll(int(c.pos))
			} else {
				targets = snap.OutLabeled(int(c.pos), t.label)
			}
			for _, to := range targets {
				nv := snap.ValueID(int(to))
				ok, _ := evalCondID(t.cond, c.regs[:maxFastRegs], nv, nullID, mode)
				if !ok {
					continue
				}
				next := c
				next.state = t.to
				next.pos = to
				for _, r := range t.store {
					next.regs[r] = nv
				}
				k := next.key()
				if _, dup := sc.visited[k]; !dup {
					sc.visited[k] = struct{}{}
					sc.queue = append(sc.queue, next)
				}
			}
		}
	}
}

// EvalRange evaluates the automaton from every start node in [lo, hi),
// emitting each answer pair once. It freezes the graph (cheap when already
// frozen), lowers the automaton onto the snapshot once, prunes start nodes
// by interned start labels, and reuses one pooled scratch across the whole
// range — the engine's workers call this with their chunk bounds.
func (a *Automaton) EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int)) {
	if !a.fastOK() {
		for u := lo; u < hi; u++ {
			for _, v := range a.EvalFrom(g, u, mode) {
				emit(u, v)
			}
		}
		return
	}
	snap := g.Freeze()
	p := a.program(snap)
	sc := p.getScratch()
	for u := lo; u < hi; u++ {
		if p.canSkipStart(a, u) {
			continue
		}
		a.evalFromProg(p, u, mode, sc, func(v int) { emit(u, v) })
	}
	p.scratch.Put(sc)
}
