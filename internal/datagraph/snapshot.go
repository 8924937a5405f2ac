package datagraph

import (
	"maps"
	"sort"
)

// Label is an interned edge label: a small dense integer assigned per
// snapshot in edge-insertion order. Interning happens once at Freeze time;
// evaluators then traverse by integer comparison and array offset instead
// of string hashing.
type Label int32

// NoLabel is the sentinel for "no such label in this snapshot".
const NoLabel Label = -1

// Snapshot is the frozen, interned read form of a Graph and the only one:
// CSR (compressed-sparse-row) out/in adjacency grouped by interned label,
// per-label edge lists, and interned node values. Every evaluator reads
// the topology through it. It is immutable and safe to share across
// goroutines; the engine freezes a graph once per batch and every worker
// evaluates against the same snapshot.
//
// Snapshots are maintained incrementally. The graph's topology mutations
// are pure appends (AddNode extends the node list, AddEdge extends the edge
// log), so a snapshot records a watermark — the prefix of the node list and
// edge log it was built from — and the next Freeze after a small append
// burst merges just the delta into the previous snapshot instead of
// rebuilding from scratch (see buildDelta). Storage is copy-on-write:
// untouched adjacency rows, per-label edge spans, the label interner and
// the value interner are shared with the previous snapshot.
type Snapshot struct {
	g *Graph
	n int

	// frozenNodes/frozenEdges is the watermark into the graph's append-only
	// node list and edge log: this snapshot reflects exactly
	// g.nodes[:frozenNodes] and g.seq[:frozenEdges].
	frozenNodes int
	frozenEdges int

	labels   []string
	labelIDs map[string]Label

	out csrDir
	in  csrDir

	// Per-label edge lists in insertion order, as chains of append-only
	// segments. A delta freeze extends a label's chain with one new span;
	// existing spans are shared with the previous snapshot.
	pairs []labelPairList

	// Interned node values: valueID[u] ≥ 1 for every node; all null nodes
	// share nullID (−1 when the graph has no nulls). Id 0 is reserved so
	// register-automaton kernels can use it for "register unset".
	valueID   []int32
	nullID    int32
	numValues int

	// valBase is the string→id interner built by the last full value pass;
	// valExtra overlays ids assigned by delta freezes since (checked first).
	// Both are immutable once the snapshot is published; a delta freeze that
	// meets a genuinely new value clones the overlay before extending it.
	valBase  map[string]int32
	valExtra map[string]int32
	valNext  int32

	topoVersion uint64
	valVersion  uint64
}

// csrSeg is one immutable storage segment of a CSR direction. A node's
// adjacency row lives entirely inside one segment: its label slots are
// consecutive in labels/slotOff and its targets consecutive in targets.
type csrSeg struct {
	labels  []Label // per slot, ascending within each row
	slotOff []int32 // len(labels)+1: target range per slot
	targets []int32
}

// csrRow locates one node's adjacency row: slot range [lo, hi) inside
// segment seg.
type csrRow struct {
	seg    int32
	lo, hi int32
}

// csrDir is one direction (out or in) of the label-grouped adjacency. A
// full build produces a single segment holding every row; each delta freeze
// appends one segment with the rebuilt rows of nodes touched by new
// half-edges (plus the rows of new nodes) and redirects only those rows —
// every other row keeps pointing into the older segments, which are shared
// between the snapshots.
type csrDir struct {
	rows []csrRow
	segs []*csrSeg

	// dead counts targets stored in older segments but no longer referenced
	// by any row (superseded by rewritten rows). It drives the compaction
	// heuristic: once garbage would exceed live edges, Freeze falls back to
	// a full rebuild.
	dead int
}

// pairSeg is one insertion-order span of a label's edge list.
type pairSeg struct {
	from, to []int32
}

// labelPairList is a label's edge list as a chain of spans in insertion
// order.
type labelPairList struct {
	segs  []pairSeg
	total int32
}

// TopoKey identifies a snapshot's topology. Snapshots of one graph with the
// same key — a value-only refreeze after SetValue, or FreezeFull — share
// the label ids and the CSR adjacency and differ at most in node values.
// Evaluators key what they lower onto the label interner by it.
type TopoKey struct {
	g       *Graph
	version uint64
}

// TopoKey returns the snapshot's topology key.
func (s *Snapshot) TopoKey() TopoKey { return TopoKey{g: s.g, version: s.topoVersion} }

// NumNodes returns the number of nodes.
func (s *Snapshot) NumNodes() int { return s.n }

// Watermark returns the prefix of the graph's append-only node list and
// edge log this snapshot was built from. Together with
// Graph.SnapshotBuilds it lets bulk loaders assert that batched appends
// take the delta-merge path: after each batch's Freeze the watermark must
// advance while the full-rebuild counter stays put.
func (s *Snapshot) Watermark() (nodes, edges int) {
	return s.frozenNodes, s.frozenEdges
}

// NumLabels returns the number of distinct edge labels.
func (s *Snapshot) NumLabels() int { return len(s.labels) }

// NumValues returns the number of distinct interned values (nulls count
// once).
func (s *Snapshot) NumValues() int { return s.numValues }

// Graph returns the graph this snapshot was frozen from.
func (s *Snapshot) Graph() *Graph { return s.g }

// LabelID resolves a label string to its interned id; it returns NoLabel
// and false when the label does not occur in the graph (so no edge can
// match it).
func (s *Snapshot) LabelID(name string) (Label, bool) {
	if l, ok := s.labelIDs[name]; ok {
		return l, true
	}
	return NoLabel, false
}

// LabelName returns the string form of an interned label.
func (s *Snapshot) LabelName(l Label) string { return s.labels[l] }

// ValueID returns the interned data value of node u (≥ 1; all nulls share
// NullValueID).
func (s *Snapshot) ValueID(u int) int32 { return s.valueID[u] }

// NullValueID returns the interned id of the SQL null value, or −1 when the
// graph has no null node.
func (s *Snapshot) NullValueID() int32 { return s.nullID }

// Value returns δ(u), delegating to the underlying graph.
func (s *Snapshot) Value(u int) Value { return s.g.Value(u) }

func (d *csrDir) labeled(u int, l Label) []int32 {
	r := d.rows[u]
	sg := d.segs[r.seg]
	lo, hi := r.lo, r.hi
	// Binary search for l among u's slots. The overflow-safe midpoint
	// matters: slot offsets are int32 and lo+hi can exceed MaxInt32 on
	// snapshots whose segments hold more than 2³⁰ slots.
	for lo < hi {
		mid := lo + (hi-lo)/2
		if sg.labels[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < r.hi && sg.labels[lo] == l {
		return sg.targets[sg.slotOff[lo]:sg.slotOff[lo+1]]
	}
	return nil
}

func (d *csrDir) all(u int) []int32 {
	r := d.rows[u]
	sg := d.segs[r.seg]
	return sg.targets[sg.slotOff[r.lo]:sg.slotOff[r.hi]]
}

// EachSlot calls f once per label on u's adjacency row — its out-edges, or
// its in-edges when in is set — in ascending label order, with the
// neighbours under that label in insertion order. It is the labelled view
// of OutAll/InAll for callers that need each edge's label.
func (s *Snapshot) EachSlot(u int, in bool, f func(l Label, nbrs []int32)) {
	d := &s.out
	if in {
		d = &s.in
	}
	r := d.rows[u]
	sg := d.segs[r.seg]
	for k := r.lo; k < r.hi; k++ {
		f(sg.labels[k], sg.targets[sg.slotOff[k]:sg.slotOff[k+1]])
	}
}

// OutLabeled returns the successors of u along edges labeled l (none for
// NoLabel).
func (s *Snapshot) OutLabeled(u int, l Label) []int32 { return s.out.labeled(u, l) }

// InLabeled returns the predecessors of u along edges labeled l.
func (s *Snapshot) InLabeled(u int, l Label) []int32 { return s.in.labeled(u, l) }

// OutAll returns all successors of u (with duplicates per parallel label).
func (s *Snapshot) OutAll(u int) []int32 { return s.out.all(u) }

// InAll returns all predecessors of u.
func (s *Snapshot) InAll(u int) []int32 { return s.in.all(u) }

// OutDegree returns the number of outgoing edges of u.
func (s *Snapshot) OutDegree(u int) int { return len(s.out.all(u)) }

// HasOutLabeled reports whether u has at least one outgoing edge labeled l.
func (s *Snapshot) HasOutLabeled(u int, l Label) bool { return len(s.out.labeled(u, l)) > 0 }

// NumLabelEdges returns the number of edges labeled l.
func (s *Snapshot) NumLabelEdges(l Label) int { return int(s.pairs[l].total) }

// EachLabelEdge calls f for every edge labeled l as a (from, to) pair of
// dense indices, in edge-insertion order. The edge list of a label is a
// chain of append-only spans (delta freezes extend it without copying), so
// iteration replaces the contiguous-slice accessor of earlier revisions.
func (s *Snapshot) EachLabelEdge(l Label, f func(from, to int32)) {
	for _, sp := range s.pairs[l].segs {
		for i := range sp.from {
			f(sp.from[i], sp.to[i])
		}
	}
}

// HasEdge reports whether (u, l, v) is an edge, scanning the shorter of the
// two per-label adjacency slices.
func (s *Snapshot) HasEdge(u int, l Label, v int) bool {
	outs := s.out.labeled(u, l)
	ins := s.in.labeled(v, l)
	if len(ins) < len(outs) {
		for _, x := range ins {
			if int(x) == u {
				return true
			}
		}
		return false
	}
	for _, x := range outs {
		if int(x) == v {
			return true
		}
	}
	return false
}

// Delta-freeze heuristics. A delta freeze is strictly better for small
// appends but loses to a full rebuild once the delta rivals the graph, the
// segment chain grows long (pointer-chasing and garbage) or rewritten rows
// have piled up too much garbage in old segments.
const (
	// maxCSRSegs caps the segment chain per direction.
	maxCSRSegs = 64
)

// canDeltaFreeze reports whether the cached snapshot prev can be extended
// to the current state of g by merging the appended suffix of the node list
// and edge log (the only topology mutation the Graph API allows).
func canDeltaFreeze(g *Graph, prev *Snapshot) bool {
	if prev == nil || prev.g != g {
		return false
	}
	// Defensive: the API keeps both logs append-only, so a cached snapshot
	// is always a prefix; never delta-merge if that invariant is broken.
	if prev.frozenNodes > len(g.nodes) || prev.frozenEdges > len(g.seq) {
		return false
	}
	if len(prev.out.segs) >= maxCSRSegs || len(prev.in.segs) >= maxCSRSegs {
		return false
	}
	if prev.out.dead+prev.in.dead > 2*len(g.seq) {
		return false
	}
	// A delta rivaling the live graph merges more than a rebuild costs.
	deltaN := len(g.nodes) - prev.frozenNodes
	deltaE := len(g.seq) - prev.frozenEdges
	return 4*(deltaN+deltaE) <= len(g.nodes)+len(g.seq)
}

// buildSnapshot compiles the graph into a snapshot. Three paths, cheapest
// first:
//
//   - prev matches the topology version exactly: only values changed
//     (SetValue), so every topology structure is reused and values are
//     re-interned;
//   - prev is a prefix of the current node list and edge log and the delta
//     is small: buildDelta merges the appended suffix into prev;
//   - otherwise: full rebuild.
func buildSnapshot(g *Graph, prev *Snapshot) *Snapshot {
	if prev != nil && prev.topoVersion == g.topoVersion && prev.g == g {
		s := &Snapshot{
			g: g, n: prev.n,
			frozenNodes: prev.frozenNodes, frozenEdges: prev.frozenEdges,
			labels: prev.labels, labelIDs: prev.labelIDs,
			out: prev.out, in: prev.in,
			pairs:       prev.pairs,
			topoVersion: g.topoVersion,
			valVersion:  g.valVersion,
		}
		s.internValuesFull()
		return s
	}
	if canDeltaFreeze(g, prev) {
		return buildDelta(g, prev)
	}
	return buildFull(g)
}

// buildFull compiles the graph from scratch: one CSR segment per direction,
// one span per label, fresh interners.
func buildFull(g *Graph) *Snapshot {
	g.snapFull.Add(1)
	n := len(g.nodes)
	s := &Snapshot{
		g: g, n: n,
		frozenNodes: n,
		frozenEdges: len(g.seq),
		labelIDs:    make(map[string]Label),
		topoVersion: g.topoVersion,
		valVersion:  g.valVersion,
	}
	// Intern labels in edge-insertion order (deterministic).
	for i := range g.seq {
		name := g.seq[i].label
		if _, ok := s.labelIDs[name]; !ok {
			s.labelIDs[name] = Label(len(s.labels))
			s.labels = append(s.labels, name)
		}
	}
	nl := len(s.labels)

	// Per-label edge lists: counting pass, then fill in insertion order,
	// then carve one span per label out of the two backing arrays.
	pairOff := make([]int32, nl+1)
	for i := range g.seq {
		pairOff[s.labelIDs[g.seq[i].label]+1]++
	}
	for l := 0; l < nl; l++ {
		pairOff[l+1] += pairOff[l]
	}
	pairFrom := make([]int32, len(g.seq))
	pairTo := make([]int32, len(g.seq))
	fill := make([]int32, nl)
	for i := range g.seq {
		e := &g.seq[i]
		l := s.labelIDs[e.label]
		at := pairOff[l] + fill[l]
		fill[l]++
		pairFrom[at] = e.from
		pairTo[at] = e.to
	}
	s.pairs = make([]labelPairList, nl)
	for l := 0; l < nl; l++ {
		lo, hi := pairOff[l], pairOff[l+1]
		s.pairs[l] = labelPairList{
			segs:  []pairSeg{{from: pairFrom[lo:hi:hi], to: pairTo[lo:hi:hi]}},
			total: hi - lo,
		}
	}

	s.out = csrFromPairs(n, nl, pairOff, pairFrom, pairTo)
	s.in = csrFromPairs(n, nl, pairOff, pairTo, pairFrom)
	s.internValuesFull()
	return s
}

// buildDelta extends prev to cover the appended suffix of the graph's node
// list and edge log: the label interner and per-label edge lists grow
// monotonically, only the CSR rows of nodes incident to new half-edges are
// rebuilt (into one fresh segment per direction), and everything untouched
// is shared with prev. Cost is O(V_rows + Δ + Σ deg(touched)) — the per-node
// row table and value-id array are copied, but none of the label slots,
// targets or pair spans of untouched nodes are.
func buildDelta(g *Graph, prev *Snapshot) *Snapshot {
	g.snapDelta.Add(1)
	n0, e0 := prev.frozenNodes, prev.frozenEdges
	n1, e1 := len(g.nodes), len(g.seq)
	delta := g.seq[e0:e1]

	s := &Snapshot{
		g: g, n: n1,
		frozenNodes: n1,
		frozenEdges: e1,
		labels:      prev.labels,
		labelIDs:    prev.labelIDs,
		topoVersion: g.topoVersion,
		valVersion:  g.valVersion,
	}

	// Extend the label interner monotonically: ids of existing labels are
	// stable, new labels take the next ids in first-appearance order —
	// exactly the ids a full rebuild over the whole log would assign. The
	// shared map and slice are cloned copy-on-write only if a new label
	// actually appears.
	internerCloned := false
	for i := range delta {
		name := delta[i].label
		if _, ok := s.labelIDs[name]; !ok {
			if !internerCloned {
				s.labelIDs = maps.Clone(s.labelIDs)
				s.labels = s.labels[:len(s.labels):len(s.labels)]
				internerCloned = true
			}
			s.labelIDs[name] = Label(len(s.labels))
			s.labels = append(s.labels, name)
		}
	}
	nl := len(s.labels)

	// Per-label edge lists: one new span per label that gained edges,
	// appended to the (shared) chain.
	cnt := make([]int32, nl)
	for i := range delta {
		cnt[s.labelIDs[delta[i].label]]++
	}
	off := make([]int32, nl+1)
	for l := 0; l < nl; l++ {
		off[l+1] = off[l] + cnt[l]
	}
	dFrom := make([]int32, len(delta))
	dTo := make([]int32, len(delta))
	fill := make([]int32, nl)
	for i := range delta {
		e := &delta[i]
		l := s.labelIDs[e.label]
		at := off[l] + fill[l]
		fill[l]++
		dFrom[at] = e.from
		dTo[at] = e.to
	}
	s.pairs = make([]labelPairList, nl)
	copy(s.pairs, prev.pairs)
	for l := 0; l < nl; l++ {
		if cnt[l] == 0 {
			continue
		}
		lo, hi := off[l], off[l+1]
		lp := s.pairs[l]
		lp.segs = append(lp.segs[:len(lp.segs):len(lp.segs)],
			pairSeg{from: dFrom[lo:hi:hi], to: dTo[lo:hi:hi]})
		lp.total += cnt[l]
		s.pairs[l] = lp
	}

	// Per-direction delta half-edges, grouped by the endpoint whose row they
	// extend, in log order.
	dOut := make(map[int32][]slotEdge)
	dIn := make(map[int32][]slotEdge)
	for i := range delta {
		e := &delta[i]
		l := s.labelIDs[e.label]
		dOut[e.from] = append(dOut[e.from], slotEdge{label: l, to: e.to})
		dIn[e.to] = append(dIn[e.to], slotEdge{label: l, to: e.from})
	}
	s.out = deltaCSR(&prev.out, n0, n1, dOut)
	s.in = deltaCSR(&prev.in, n0, n1, dIn)

	if prev.valVersion == g.valVersion {
		s.internValuesDelta(prev)
	} else {
		// Values were overwritten since prev; re-intern from scratch (the
		// same cost the SetValue-only reuse path already pays).
		s.internValuesFull()
	}
	return s
}

// deltaCSR extends one CSR direction: rows of old nodes with new half-edges
// are merged (old slots + delta, label order preserved) into one fresh
// segment, rows of new nodes are built there too, and every other row keeps
// pointing into the shared older segments.
func deltaCSR(prev *csrDir, n0, n1 int, deltaHE map[int32][]slotEdge) csrDir {
	seg := &csrSeg{}
	segIdx := int32(len(prev.segs))
	d := csrDir{
		rows: make([]csrRow, n1),
		segs: append(prev.segs[:len(prev.segs):len(prev.segs)], seg),
		dead: prev.dead,
	}
	copy(d.rows, prev.rows)

	// Touched old nodes, ascending for determinism.
	touched := make([]int32, 0, len(deltaHE))
	for u := range deltaHE {
		if int(u) < n0 {
			touched = append(touched, u)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })

	for _, u := range touched {
		r := prev.rows[u]
		src := prev.segs[r.seg]
		d.dead += int(src.slotOff[r.hi] - src.slotOff[r.lo])
		des := deltaHE[u]
		sortSlotEdges(des)
		lo := int32(len(seg.labels))
		mergeRow(seg, src, r, des)
		d.rows[u] = csrRow{seg: segIdx, lo: lo, hi: int32(len(seg.labels))}
	}
	for u := n0; u < n1; u++ {
		des := deltaHE[int32(u)]
		sortSlotEdges(des)
		lo := int32(len(seg.labels))
		appendRow(seg, des)
		d.rows[u] = csrRow{seg: segIdx, lo: lo, hi: int32(len(seg.labels))}
	}
	seg.slotOff = append(seg.slotOff, int32(len(seg.targets)))
	return d
}

// mergeRow appends to dst the merge of one old row (slots already ascending
// by label) with its label-sorted delta half-edges. Within a label, old
// targets precede delta targets — exactly the order a full rebuild over the
// whole log produces, since old edges precede delta edges in the log and
// the slot sort is stable.
func mergeRow(dst, src *csrSeg, r csrRow, des []slotEdge) {
	si := r.lo
	di := 0
	for si < r.hi || di < len(des) {
		var l Label
		switch {
		case di >= len(des):
			l = src.labels[si]
		case si >= r.hi:
			l = des[di].label
		case src.labels[si] < des[di].label:
			l = src.labels[si]
		default:
			l = des[di].label
		}
		dst.labels = append(dst.labels, l)
		dst.slotOff = append(dst.slotOff, int32(len(dst.targets)))
		if si < r.hi && src.labels[si] == l {
			dst.targets = append(dst.targets, src.targets[src.slotOff[si]:src.slotOff[si+1]]...)
			si++
		}
		for di < len(des) && des[di].label == l {
			dst.targets = append(dst.targets, des[di].to)
			di++
		}
	}
}

// appendRow appends one row built from label-sorted half-edges to the
// segment.
func appendRow(seg *csrSeg, des []slotEdge) {
	for i := 0; i < len(des); {
		l := des[i].label
		seg.labels = append(seg.labels, l)
		seg.slotOff = append(seg.slotOff, int32(len(seg.targets)))
		for i < len(des) && des[i].label == l {
			seg.targets = append(seg.targets, des[i].to)
			i++
		}
	}
}

// csrFromPairs builds one direction of the label-grouped CSR as a single
// segment, straight from the label-major edge lists: label l's edges are
// src[i] → dst[i] for i in [pairOff[l], pairOff[l+1]), in insertion order.
// A counting pass sizes every row's slots and targets; a fill pass in the
// same label-major order then leaves each row's slots in ascending label
// order, with targets in insertion order within a slot — the order a delta
// merge (mergeRow) preserves.
func csrFromPairs(n, nl int, pairOff, src, dst []int32) csrDir {
	// Counting pass: slots and targets per row, shifted by one so the
	// prefix sums below turn them into row starts.
	slotAt := make([]int32, n+1)
	tgtAt := make([]int32, n+1)
	last := make([]Label, n) // label of the row's most recent slot
	for u := range last {
		last[u] = NoLabel
	}
	for l := 0; l < nl; l++ {
		for i := pairOff[l]; i < pairOff[l+1]; i++ {
			u := src[i]
			tgtAt[u+1]++
			if last[u] != Label(l) {
				last[u] = Label(l)
				slotAt[u+1]++
			}
		}
	}
	d := csrDir{rows: make([]csrRow, n)}
	for u := 0; u < n; u++ {
		slotAt[u+1] += slotAt[u]
		tgtAt[u+1] += tgtAt[u]
		d.rows[u] = csrRow{lo: slotAt[u], hi: slotAt[u+1]}
	}
	seg := &csrSeg{
		labels:  make([]Label, slotAt[n]),
		slotOff: make([]int32, slotAt[n]+1),
		targets: make([]int32, len(src)),
	}
	seg.slotOff[slotAt[n]] = int32(len(src))
	d.segs = []*csrSeg{seg}

	// Fill pass: slotAt and tgtAt now serve as per-row cursors. Rows are
	// contiguous in targets, so a slot's offset is its row cursor at the
	// moment the slot opens.
	for u := range last {
		last[u] = NoLabel
	}
	for l := 0; l < nl; l++ {
		for i := pairOff[l]; i < pairOff[l+1]; i++ {
			u := src[i]
			if last[u] != Label(l) {
				last[u] = Label(l)
				k := slotAt[u]
				slotAt[u]++
				seg.labels[k] = Label(l)
				seg.slotOff[k] = tgtAt[u]
			}
			seg.targets[tgtAt[u]] = dst[i]
			tgtAt[u]++
		}
	}
	return d
}

type slotEdge struct {
	label Label
	to    int32
}

// sortSlotEdges stable-sorts a node's half-edges by label. Degrees are
// small in practice, so an insertion sort (stable, allocation-free) beats
// sort.Slice, whose reflection closure allocates per call; genuinely large
// adjacency lists fall back to the library sort.
func sortSlotEdges(s []slotEdge) {
	if len(s) > 128 {
		sort.SliceStable(s, func(i, j int) bool { return s[i].label < s[j].label })
		return
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for j > 0 && s[j-1].label > e.label {
			s[j] = s[j-1]
			j--
		}
		s[j] = e
	}
}

// internValuesFull assigns dense ids (starting at 1) to the distinct data
// values of the graph; all null nodes share one id.
func (s *Snapshot) internValuesFull() {
	g := s.g
	s.valueID = make([]int32, s.n)
	s.nullID = -1
	ids := make(map[string]int32, s.n)
	next := int32(1)
	for i := 0; i < s.n; i++ {
		v := g.nodes[i].Value
		if v.IsNull() {
			if s.nullID < 0 {
				s.nullID = next
				next++
			}
			s.valueID[i] = s.nullID
			continue
		}
		id, ok := ids[v.s]
		if !ok {
			id = next
			next++
			ids[v.s] = id
		}
		s.valueID[i] = id
	}
	s.valBase = ids
	s.valExtra = nil
	s.valNext = next
	s.numValues = int(next - 1)
}

// internValuesDelta extends prev's value interning to the appended nodes.
// Valid only when no SetValue happened since prev: existing ids are then
// stable, and new values take the next ids in node order — the same ids a
// full pass assigns. New values extend a copy-on-write overlay so prev's
// interner is never mutated.
func (s *Snapshot) internValuesDelta(prev *Snapshot) {
	g := s.g
	s.valueID = make([]int32, s.n)
	copy(s.valueID, prev.valueID)
	s.nullID = prev.nullID
	s.valBase = prev.valBase
	s.valExtra = prev.valExtra
	next := prev.valNext
	extraCloned := false
	for i := prev.frozenNodes; i < s.n; i++ {
		v := g.nodes[i].Value
		if v.IsNull() {
			if s.nullID < 0 {
				s.nullID = next
				next++
			}
			s.valueID[i] = s.nullID
			continue
		}
		id, ok := s.valExtra[v.s]
		if !ok {
			id, ok = s.valBase[v.s]
		}
		if !ok {
			if !extraCloned {
				if s.valExtra == nil {
					s.valExtra = make(map[string]int32)
				} else {
					s.valExtra = maps.Clone(s.valExtra)
				}
				extraCloned = true
			}
			id = next
			next++
			s.valExtra[v.s] = id
		}
		s.valueID[i] = id
	}
	s.valNext = next
	s.numValues = int(next - 1)
}
