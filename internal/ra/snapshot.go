package ra

import (
	"sync"

	"repro/internal/datagraph"
)

// This file is the graph evaluation kernel: the automaton lowered onto one
// graph topology's label interner, evaluated from each start node over the
// snapshot's interned values with reusable scratch. Labels are resolved
// once per (automaton, topology) and values once per snapshot, and both
// are shared across all start nodes of a batch.

// prog is the automaton lowered onto one graph topology: transition labels
// interned, transitions on labels absent from the graph dropped (they can
// never fire), start-frontier labels interned for pruning. It holds no
// snapshot: every snapshot with the same TopoKey shares its label ids, so
// a value-only refreeze (the SetValue specialization search) reuses the
// program and its scratch pool.
type prog struct {
	topo        datagraph.TopoKey
	trans       [][]progTrans
	startLabels []datagraph.Label
	// scratch pools kernel scratch sized for the topology, so each engine
	// worker reuses one across the chunks it evaluates instead of
	// allocating one per chunk.
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

// targets returns the nodes a letter transition can move to from u.
func (t *progTrans) targets(snap *datagraph.Snapshot, u int) []int32 {
	if t.any {
		return snap.OutAll(u)
	}
	return snap.OutLabeled(u, t.label)
}

// program returns the automaton lowered onto snap's topology, cached on the
// automaton. Concurrent callers sharing one topology (the engine's
// workers) hit the cache; alternating topologies rebuild, which is only
// wasted work.
func (a *Automaton) program(snap *datagraph.Snapshot) *prog {
	topo := snap.TopoKey()
	if p := a.progCache.Load(); p != nil && p.topo == topo {
		return p
	}
	p := &prog{topo: topo, trans: make([][]progTrans, a.NumStates)}
	n := snap.NumNodes() // the closure must not pin this snapshot
	p.scratch.New = func() any { return newSnapScratch(n) }
	// One backing array for every state's transitions.
	total := 0
	for _, ts := range a.Trans {
		total += len(ts)
	}
	all := make([]progTrans, 0, total)
	for s, ts := range a.Trans {
		lo := len(all)
		for _, t := range ts {
			pt := progTrans{to: int32(t.To), eps: t.Eps, any: t.AnyLabel, cond: t.Cond, store: t.Store}
			if !t.Eps && !t.AnyLabel {
				l, ok := snap.LabelID(t.Label)
				if !ok {
					continue // label absent from the graph: dead transition
				}
				pt.label = l
			}
			all = append(all, pt)
		}
		p.trans[s] = all[lo:len(all):len(all)]
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
func (p *prog) canSkipStart(a *Automaton, snap *datagraph.Snapshot, u int) bool {
	if a.startAny || a.emptyOK {
		return false
	}
	for _, l := range p.startLabels {
		if snap.HasOutLabeled(u, l) {
			return false
		}
	}
	return true
}

// snapScratch is the reusable per-batch state of the kernel. Accepted
// nodes are stamped with the current epoch, so starting the next start
// node costs O(1) instead of clearing a V-bit set.
type snapScratch struct {
	visited  map[fastKey]struct{}
	queue    []fastCfg
	epoch    uint32
	accepted []uint32
}

func newSnapScratch(n int) *snapScratch {
	return &snapScratch{
		visited:  make(map[fastKey]struct{}),
		queue:    make([]fastCfg, 0, 64),
		accepted: make([]uint32, n),
	}
}

// nextEpoch starts a fresh accepted generation.
func (sc *snapScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.accepted)
		sc.epoch = 1
	}
	return sc.epoch
}

// accept reports whether v is accepted for the first time in this epoch.
func (sc *snapScratch) accept(v int, epoch uint32) bool {
	if sc.accepted[v] == epoch {
		return false
	}
	sc.accepted[v] = epoch
	return true
}

// getScratch takes a scratch from the program's pool; callers put it back
// with p.scratch.Put when done.
func (p *prog) getScratch() *snapScratch { return p.scratch.Get().(*snapScratch) }

// evalFrom runs the configuration search from start node u, emitting each
// accepted target once: over interned ids when the automaton fits them
// (fastOK), with Value registers otherwise.
func (a *Automaton) evalFrom(p *prog, snap *datagraph.Snapshot, u int, mode datagraph.CompareMode, sc *snapScratch, emit func(v int)) {
	if a.fastOK() {
		a.evalFromProg(p, snap, u, mode, sc, emit)
	} else {
		a.evalFromGeneric(p, snap, u, mode, sc, emit)
	}
}

// evalFromProg runs the configuration BFS from start node u over interned
// value ids, with registers packed into a comparable fixed-width key.
func (a *Automaton) evalFromProg(p *prog, snap *datagraph.Snapshot, u int, mode datagraph.CompareMode, sc *snapScratch, emit func(v int)) {
	nullID := snap.NullValueID()
	epoch := sc.nextEpoch()
	clear(sc.visited)
	sc.queue = sc.queue[:0]
	start := fastCfg{state: int32(a.Start), pos: int32(u)}
	sc.visited[start.key()] = struct{}{}
	sc.queue = append(sc.queue, start)
	for len(sc.queue) > 0 {
		c := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		if int(c.state) == a.Accept && sc.accept(int(c.pos), epoch) {
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
			for _, to := range t.targets(snap, int(c.pos)) {
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

// evalFromGeneric is the configuration BFS for automata the interned path
// cannot run (more than maxFastRegs registers, or condition types it does
// not know): registers hold Values, conditions are evaluated through the
// Cond interface, and configurations are deduplicated by formatted keys.
// Query text can reach it — an REE nesting = nine deep needs nine
// registers — so it reads the same snapshot as the interned path.
func (a *Automaton) evalFromGeneric(p *prog, snap *datagraph.Snapshot, u int, mode datagraph.CompareMode, sc *snapScratch, emit func(v int)) {
	epoch := sc.nextEpoch()
	start := config{
		state: a.Start,
		pos:   u,
		regs:  make([]datagraph.Value, a.NumRegs),
		set:   make([]bool, a.NumRegs),
	}
	visited := map[string]struct{}{start.key(): {}}
	queue := []config{start}
	push := func(next config) {
		k := next.key()
		if _, dup := visited[k]; !dup {
			visited[k] = struct{}{}
			queue = append(queue, next)
		}
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if c.state == a.Accept && sc.accept(c.pos, epoch) {
			emit(c.pos)
		}
		cur := snap.Value(c.pos)
		for ti := range p.trans[c.state] {
			t := &p.trans[c.state][ti]
			if t.eps {
				if t.cond.Eval(c.regs, c.set, cur, mode) {
					push(applyStore(config{state: int(t.to), pos: c.pos, regs: c.regs, set: c.set}, t.store, cur))
				}
				continue
			}
			for _, to := range t.targets(snap, c.pos) {
				nv := snap.Value(int(to))
				if t.cond.Eval(c.regs, c.set, nv, mode) {
					push(applyStore(config{state: int(t.to), pos: int(to), regs: c.regs, set: c.set}, t.store, nv))
				}
			}
		}
	}
}

// EvalRange evaluates the automaton from every start node in [lo, hi),
// emitting each answer pair once. It freezes the graph (cheap when already
// frozen), lowers the automaton onto its topology once, prunes start nodes
// by interned start labels, and reuses one pooled scratch across the whole
// range — the engine's workers call this with their chunk bounds.
func (a *Automaton) EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int)) {
	snap := g.Freeze()
	p := a.program(snap)
	sc := p.getScratch()
	for u := lo; u < hi; u++ {
		if p.canSkipStart(a, snap, u) {
			continue
		}
		a.evalFrom(p, snap, u, mode, sc, func(v int) { emit(u, v) })
	}
	p.scratch.Put(sc)
}
