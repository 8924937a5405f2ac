package datagraph

// This file is the byte-accounting layer behind the serving memory
// governor: SizeBytes estimates of the resident footprint of graphs,
// snapshots and pair sets. Estimates are deterministic and
// intentionally approximate — slice headers, map buckets and allocator
// slack are folded into flat per-entry constants — but they grow
// monotonically with the real footprint, which is all budget enforcement
// needs.

const (
	wordBytes      = 8  // one machine word: pointer, int, map value slot
	stringHeader   = 16 // string header (pointer + length)
	sliceHeader    = 24 // slice header (pointer + len + cap)
	mapEntryBytes  = 48 // rough per-entry bucket cost of a Go map
	mapBaseBytes   = 64 // fixed map header cost
	int32Bytes     = 4
	csrRowBytes    = 12 // csrRow: seg + lo + hi
	seqEdgeBytes   = 2*int32Bytes + stringHeader
	pairEntryBytes = 8 // Pair: two int32 dense indices
)

// stringBytes estimates a string's resident footprint: header plus
// content. Shared backing arrays (interned ids reused across structures)
// are deliberately counted at every holder — the estimate prefers
// overcounting to undercounting.
func stringBytes(s string) int64 { return stringHeader + int64(len(s)) }

// ValueBytes estimates a Value's footprint (string + null flag, padded).
// It is safe on the SQL null, which has no underlying string.
func ValueBytes(v Value) int64 { return stringBytes(v.s) + wordBytes }

// nodeBytes estimates one Node entry (id + value).
func nodeBytes(n Node) int64 { return stringBytes(string(n.ID)) + ValueBytes(n.Value) }

// SizeBytes estimates the resident footprint of the graph: the node list,
// the id index, the edge set and log, plus the snapshot cached on it. It
// is the unit of account the server's memory governor sums per backend.
func (g *Graph) SizeBytes() int64 {
	var b int64
	for _, n := range g.nodes {
		// Node entry + its index map entry (the id string is counted once
		// here; the index key shares its backing array).
		b += nodeBytes(n) + mapEntryBytes
	}
	for _, e := range g.seq {
		// One edge-log entry plus its edge-set entry (Edge holds three
		// string headers; label content counted via the log entry).
		b += seqEdgeBytes + stringBytes(e.label) + mapEntryBytes + 3*stringHeader
	}
	b += 2 * mapBaseBytes
	if s := g.snap.Load(); s != nil {
		b += s.SizeBytes()
	}
	return b
}

// SizeBytes estimates the snapshot's own storage: the CSR segments, the
// per-label edge spans, the interned labels and values. Delta freezes share
// segments with their predecessor; only the latest snapshot is cached on a
// graph, so summing segments here never double-counts within one graph.
func (s *Snapshot) SizeBytes() int64 {
	var b int64
	for _, l := range s.labels {
		b += stringBytes(l) + mapEntryBytes
	}
	b += csrDirBytes(&s.out) + csrDirBytes(&s.in)
	for _, lp := range s.pairs {
		b += sliceHeader
		for _, seg := range lp.segs {
			b += int64(len(seg.from)+len(seg.to)) * int32Bytes
		}
	}
	b += int64(len(s.valueID)) * int32Bytes
	b += 2 * mapBaseBytes
	for v := range s.valBase {
		b += mapEntryBytes + stringBytes(v)
	}
	for v := range s.valExtra {
		b += mapEntryBytes + stringBytes(v)
	}
	return b
}

func csrDirBytes(d *csrDir) int64 {
	b := int64(len(d.rows)) * csrRowBytes
	for _, seg := range d.segs {
		b += int64(len(seg.labels))*int32Bytes +
			int64(len(seg.slotOff))*int32Bytes +
			int64(len(seg.targets))*int32Bytes
	}
	return b
}

// SizeBytes estimates the pair set's footprint: map buckets in sparse
// mode, the bitmap in dense mode.
func (ps *PairSet) SizeBytes() int64 {
	if ps.m != nil {
		return mapBaseBytes + int64(len(ps.m))*(mapEntryBytes+pairEntryBytes)
	}
	return sliceHeader + int64(len(ps.rows))*wordBytes
}
