package core

// This file holds Flatten, the unconditional form of the fold every
// symbol table applies to itself inside Extend, and ResidentBytes, the
// artifact's storage estimate. The paged tables need no collapse: a
// child shares its parent's unchanged pages and owns its re-laid ones,
// so it never pins an ancestor's replaced pages. What an Extend chain
// accumulates is overlay links, at most MaxOverlayLinks per symbol
// domain before Extend folds them itself.

// Flatten returns the artifact with both symbol tables folded now
// rather than when their chains next reach MaxOverlayLinks: at most one
// overlay link per domain (or none, once that link would outgrow an
// eighth of the base map), so nothing in the result keeps an ancestor's
// links reachable. The pages are kept as they are, and Generation is
// preserved.
//
// The result is StructuralEqual to the receiver (identical symbol
// tables and per-row adjacency — Flatten renumbers nothing), and
// therefore to the cold Compile over the same database up to delta
// interning order. The receiver is not modified and stays fully usable.
// An artifact already folded (cold-compiled, decoded, or flattened) is
// returned as-is. Cost is what the chain added: the overlay entries
// since the last base rebuild, plus that rebuild, amortized O(1) per
// symbol — never a pass over the rows.
func (c *Compiled) Flatten() *Compiled {
	lid, rid := c.lid.fold(), c.rid.fold()
	if lid.ov == c.lid.ov && rid.ov == c.rid.ov {
		return c
	}
	f := *c
	f.lid, f.rid = lid, rid
	return &f
}

// mapEntryBytes is the estimator's cost of one map[string]int32 entry:
// a 16-byte string header and a 4-byte value in the bucket, bucket
// bookkeeping, and load-factor slack. Approximate by design.
const mapEntryBytes = 48

// stringHeaderBytes is the slice-element cost of one name (the header;
// the character bytes are counted separately).
const stringHeaderBytes = 16

// sliceHeaderBytes is the cost of one slice header: a name page in a
// table's directory, or the link overhead of one overlay map.
const sliceHeaderBytes = 24

// ResidentBytes estimates the storage this artifact keeps reachable:
// symbol tables (page directories, string headers, characters,
// interning maps, overlay chains), and the four adjacency graphs (page
// directories, offsets, arcs). It is a deterministic count of the
// artifact's own structure, not a heap measurement, and costs
// O(overlay links): every table keeps its totals as it grows. It
// equals a walk of the tables the artifact holds, with one bias, an
// undercount: cold pages — slices of one flat array per graph — are
// counted at their visible length, so the array's copy of a page an
// Extend has since re-laid is not counted while the array lives. On a
// cold artifact the estimate is exact.
func (c *Compiled) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	b := c.lNames.residentBytes() + c.rNames.residentBytes()
	b += c.lid.residentBytes() + c.rid.residentBytes()
	for _, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		b += g.residentBytes()
	}
	return b
}
