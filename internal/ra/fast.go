package ra

import "repro/internal/datagraph"

// This file is the interned-id machinery behind MatchDataPath and the graph
// kernel (snapshot.go): data values are dense int32 ids — interned per call
// for a data path, taken from the snapshot for a graph — and
// configurations are deduplicated with comparable struct keys instead of
// formatted strings. Automata with more than maxFastRegs registers (or
// with condition types beyond True/Eq/Neq/And/Or) take the generic search
// with Value registers and string keys instead.

const maxFastRegs = 8

// interner maps data values to dense ids. Id 0 is reserved for "register
// unset"; the null value gets its own id like any other value, and the
// comparison helpers below special-case it per mode.
type interner struct {
	ids    map[datagraph.Value]int32
	nullID int32
}

func newInterner() *interner {
	return &interner{ids: make(map[datagraph.Value]int32), nullID: -1}
}

func (in *interner) id(v datagraph.Value) int32 {
	if id, ok := in.ids[v]; ok {
		return id
	}
	id := int32(len(in.ids) + 1)
	in.ids[v] = id
	if v.IsNull() {
		in.nullID = id
	}
	return id
}

// evalCondID evaluates a condition over interned ids. regs[r] == 0 means
// unset. Returns ok=false if the condition tree contains node types this
// fast path does not know (caller falls back to the slow path).
func evalCondID(c Cond, regs []int32, cur int32, nullID int32, mode datagraph.CompareMode) (val, ok bool) {
	switch t := c.(type) {
	case True:
		return true, true
	case Eq:
		r := regs[t.Reg]
		if r == 0 {
			return false, true
		}
		if mode == datagraph.SQLNulls && (r == nullID || cur == nullID) {
			return false, true
		}
		return r == cur, true
	case Neq:
		r := regs[t.Reg]
		if r == 0 {
			return false, true
		}
		if mode == datagraph.SQLNulls && (r == nullID || cur == nullID) {
			return false, true
		}
		return r != cur, true
	case And:
		l, ok := evalCondID(t.L, regs, cur, nullID, mode)
		if !ok {
			return false, false
		}
		if !l {
			return false, true
		}
		return evalCondID(t.R, regs, cur, nullID, mode)
	case Or:
		l, ok := evalCondID(t.L, regs, cur, nullID, mode)
		if !ok {
			return false, false
		}
		if l {
			return true, true
		}
		return evalCondID(t.R, regs, cur, nullID, mode)
	default:
		return false, false
	}
}

// supportsFast reports whether every condition in the automaton is made of
// the known node types.
func (a *Automaton) supportsFast() bool {
	if a.NumRegs > maxFastRegs {
		return false
	}
	var walk func(c Cond) bool
	walk = func(c Cond) bool {
		switch t := c.(type) {
		case True, Eq, Neq:
			return true
		case And:
			return walk(t.L) && walk(t.R)
		case Or:
			return walk(t.L) && walk(t.R)
		default:
			return false
		}
	}
	for _, ts := range a.Trans {
		for _, t := range ts {
			if !walk(t.Cond) {
				return false
			}
		}
	}
	return true
}

type fastKey struct {
	state int32
	pos   int32
	regs  [maxFastRegs]int32
}

type fastCfg struct {
	state int32
	pos   int32
	regs  [maxFastRegs]int32
}

func (c fastCfg) key() fastKey { return fastKey{c.state, c.pos, c.regs} }

// matchDataPathFast is MatchDataPath over interned ids.
func (a *Automaton) matchDataPathFast(w datagraph.DataPath, mode datagraph.CompareMode) bool {
	in := newInterner()
	vals := make([]int32, len(w.Values))
	for i, v := range w.Values {
		vals[i] = in.id(v)
	}
	start := fastCfg{state: int32(a.Start)}
	visited := map[fastKey]struct{}{start.key(): {}}
	queue := []fastCfg{start}
	lastPos := int32(len(w.Labels))
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if int(c.state) == a.Accept && c.pos == lastPos {
			return true
		}
		for _, t := range a.Trans[c.state] {
			next, fired := a.stepPath(c, t, w, vals, in.nullID, mode)
			if !fired {
				continue
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

func (a *Automaton) stepPath(c fastCfg, t Transition, w datagraph.DataPath,
	vals []int32, nullID int32, mode datagraph.CompareMode) (fastCfg, bool) {

	if t.Eps {
		cur := vals[c.pos]
		ok, _ := evalCondID(t.Cond, c.regs[:maxFastRegs], cur, nullID, mode)
		if !ok {
			return fastCfg{}, false
		}
		next := c
		next.state = int32(t.To)
		for _, r := range t.Store {
			next.regs[r] = cur
		}
		return next, true
	}
	if int(c.pos) >= len(w.Labels) {
		return fastCfg{}, false
	}
	if !t.AnyLabel && w.Labels[c.pos] != t.Label {
		return fastCfg{}, false
	}
	nv := vals[c.pos+1]
	ok, _ := evalCondID(t.Cond, c.regs[:maxFastRegs], nv, nullID, mode)
	if !ok {
		return fastCfg{}, false
	}
	next := c
	next.state = int32(t.To)
	next.pos = c.pos + 1
	for _, r := range t.Store {
		next.regs[r] = nv
	}
	return next, true
}
