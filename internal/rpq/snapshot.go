package rpq

import (
	"sync"

	"repro/internal/datagraph"
)

// This file is the snapshot evaluation kernel for navigational RPQs: the
// query NFA lowered onto a graph snapshot's label interner (steps on labels
// absent from the graph dropped), evaluated by epoch-stamped product BFS
// over scratch that outlives a single call.

// snapProg is the NFA lowered onto one snapshot.
type snapProg struct {
	snap        *datagraph.Snapshot
	steps       [][]snapStep
	word        []datagraph.Label // interned word for word RPQs
	wordDead    bool              // a word label is absent: no nonempty match exists
	startLabels []datagraph.Label
	// scratch pools kernel scratch sized for snap. Each engine worker
	// takes one per chunk and puts it back, so a worker keeps reusing the
	// same O(V·states) arrays instead of allocating them per chunk.
	scratch sync.Pool
}

type snapStep struct {
	label     datagraph.Label
	any       bool
	toClosure []int // ε-closure of the step target, precomputed at compile time
}

// program returns the query lowered onto snap, cached on the query. The
// cache holds one entry: the snapshot evaluation last ran against.
func (q *Query) program(snap *datagraph.Snapshot) *snapProg {
	if p := q.progCache.Load(); p != nil && p.snap == snap {
		return p
	}
	p := &snapProg{snap: snap, steps: make([][]snapStep, q.nfa.NumStates)}
	p.scratch.New = func() any { return newRangeScratch(snap.NumNodes(), q.nfa.NumStates) }
	for s, steps := range q.nfa.Steps {
		for _, st := range steps {
			ns := snapStep{any: st.AnyLabel, toClosure: q.nfa.Closure(st.To)}
			if !st.AnyLabel {
				l, ok := snap.LabelID(st.Label)
				if !ok {
					continue // label absent from the graph: dead step
				}
				ns.label = l
			}
			p.steps[s] = append(p.steps[s], ns)
		}
	}
	if q.word != nil {
		p.word = make([]datagraph.Label, 0, len(q.word))
		for _, name := range q.word {
			l, ok := snap.LabelID(name)
			if !ok {
				p.wordDead = true
				break
			}
			p.word = append(p.word, l)
		}
	}
	for _, name := range q.startLabels {
		if l, ok := snap.LabelID(name); ok {
			p.startLabels = append(p.startLabels, l)
		}
	}
	q.progCache.Store(p)
	return p
}

// canSkipStart reports whether u cannot begin any nonempty match and the
// query does not accept the empty path.
func (q *Query) canSkipStart(p *snapProg, u int) bool {
	if q.startAny || q.emptyOK {
		return false
	}
	for _, l := range p.startLabels {
		if p.snap.HasOutLabeled(u, l) {
			return false
		}
	}
	return true
}

// rangeScratch is reusable kernel state: epoch-stamped visited arrays avoid
// both reallocation and O(size) clearing between start nodes. Every kernel
// stamps with the shared epoch, so all three arrays are cleared together
// on the rare wrap-around.
type rangeScratch struct {
	epoch    uint32
	visited  []uint32 // product states (node*numStates+state) for the NFA BFS
	seen     []uint32 // nodes, for word/reachability frontiers
	accepted []uint32 // nodes, result dedup
	queue    []int32
	frontier []int32
	next     []int32
}

func newRangeScratch(n, numStates int) *rangeScratch {
	return &rangeScratch{
		visited:  make([]uint32, n*numStates),
		seen:     make([]uint32, n),
		accepted: make([]uint32, n),
	}
}

// nextEpoch starts a fresh visited generation.
func (sc *rangeScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		clear(sc.seen)
		clear(sc.accepted)
		sc.epoch = 1
	}
	return sc.epoch
}

// getScratch takes a scratch from the program's pool; callers put it back
// with p.scratch.Put when done.
func (p *snapProg) getScratch() *rangeScratch { return p.scratch.Get().(*rangeScratch) }

// EvalRange evaluates the query from every start node in [lo, hi), emitting
// each answer pair once. The graph is frozen once (cheap when already
// frozen); the scratch comes from the program's pool and is returned to it.
func (q *Query) EvalRange(g *datagraph.Graph, lo, hi int, emit func(u, v int)) {
	snap := g.Freeze()
	p := q.program(snap)
	sc := p.getScratch()
	for u := lo; u < hi; u++ {
		q.evalFromSnap(p, u, sc, func(v int) { emit(u, v) })
	}
	p.scratch.Put(sc)
}

// evalFromSnap dispatches one start node to the appropriate kernel.
func (q *Query) evalFromSnap(p *snapProg, u int, sc *rangeScratch, emit func(v int)) {
	switch {
	case q.kind == KindReachability:
		q.reachableSnap(p, u, sc, emit)
	case q.word != nil:
		q.wordSnap(p, u, sc, emit)
	default:
		if q.canSkipStart(p, u) {
			return
		}
		q.productSnap(p, u, sc, emit)
	}
}

// productSnap is the product-BFS kernel over interned labels.
func (q *Query) productSnap(p *snapProg, u int, sc *rangeScratch, emit func(v int)) {
	snap := p.snap
	numStates := q.nfa.NumStates
	epoch := sc.nextEpoch()
	sc.queue = sc.queue[:0]
	push := func(node int32, state int) {
		id := int(node)*numStates + state
		if sc.visited[id] != epoch {
			sc.visited[id] = epoch
			sc.queue = append(sc.queue, int32(id))
		}
	}
	for _, s := range q.nfa.Closure(q.nfa.Start) {
		push(int32(u), s)
	}
	for len(sc.queue) > 0 {
		id := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		node, state := int(id)/numStates, int(id)%numStates
		if state == q.nfa.Accept && sc.accepted[node] != epoch {
			sc.accepted[node] = epoch
			emit(node)
		}
		for si := range p.steps[state] {
			st := &p.steps[state][si]
			var targets []int32
			if st.any {
				targets = snap.OutAll(node)
			} else {
				targets = snap.OutLabeled(node, st.label)
			}
			for _, to := range targets {
				for _, c := range st.toClosure {
					push(to, c)
				}
			}
		}
	}
}

// wordSnap walks a fixed interned word level by level with slice frontiers.
func (q *Query) wordSnap(p *snapProg, u int, sc *rangeScratch, emit func(v int)) {
	if p.wordDead {
		return
	}
	if len(p.word) == 0 {
		emit(u)
		return
	}
	snap := p.snap
	sc.frontier = append(sc.frontier[:0], int32(u))
	for _, l := range p.word {
		epoch := sc.nextEpoch()
		sc.next = sc.next[:0]
		for _, node := range sc.frontier {
			for _, to := range snap.OutLabeled(int(node), l) {
				if sc.seen[to] != epoch {
					sc.seen[to] = epoch
					sc.next = append(sc.next, to)
				}
			}
		}
		sc.frontier, sc.next = sc.next, sc.frontier
		if len(sc.frontier) == 0 {
			return
		}
	}
	for _, v := range sc.frontier {
		emit(int(v))
	}
}

// reachableSnap emits every node reachable from u (including u via ε).
func (q *Query) reachableSnap(p *snapProg, u int, sc *rangeScratch, emit func(v int)) {
	snap := p.snap
	epoch := sc.nextEpoch()
	sc.queue = append(sc.queue[:0], int32(u))
	sc.seen[u] = epoch
	for len(sc.queue) > 0 {
		node := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		emit(int(node))
		for _, to := range snap.OutAll(int(node)) {
			if sc.seen[to] != epoch {
				sc.seen[to] = epoch
				sc.queue = append(sc.queue, to)
			}
		}
	}
}
