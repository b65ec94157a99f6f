package core

// This file is the chain-collapse layer: Flatten folds an Extend
// chain's symbol overlays back to the shape a cold Compile has, and
// ResidentBytes estimates how much storage an artifact keeps reachable
// — the two pieces a serving layer needs to keep a long-running
// append-heavy process memory-bounded. The paged tables need no
// collapse: a child shares its parent's unchanged pages and owns its
// re-laid ones, so it never pins an ancestor's replaced pages. What an
// Extend chain does accumulate is one overlay link per generation per
// symbol domain, each a map every lookup miss walks; Flatten folds them.

// Flatten collapses a delta-extended artifact into a self-contained
// one: the symbol-overlay chains are folded into at most one link per
// domain (or into fresh base maps, once that link outgrows an eighth
// of them), so nothing in the result keeps an ancestor's overlay links
// reachable, and the pages are kept as they are. Generation is
// preserved; DeltaDepth resets to 0, re-arming a serving layer's
// chain-depth budget.
//
// The result is StructuralEqual to the receiver (identical symbol
// tables and per-row adjacency — Flatten renumbers nothing), and
// therefore to the cold Compile over the same database up to delta
// interning order, exactly like the chain it replaces. The receiver is
// not modified and stays fully usable: in-flight queries keep
// evaluating the chain while its flattened replacement is published.
//
// An artifact at depth 0 (cold-compiled, decoded, or previously
// flattened) is returned as-is. Cost is what the chain added: the
// overlay entries since the last base rebuild, plus that rebuild,
// amortized O(1) per symbol — never a pass over the rows.
func (c *Compiled) Flatten() *Compiled {
	if c.depth == 0 {
		return c
	}
	f := *c
	f.depth = 0
	f.lid, f.lidOv = foldSyms(c.lid, c.lidOv)
	f.rid, f.ridOv = foldSyms(c.rid, c.ridOv)
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
// table's directory, a fact chunk of a shard's rope, or the link
// overhead of one overlay map.
const sliceHeaderBytes = 24

// ResidentBytes estimates the storage this artifact keeps reachable:
// symbol tables (page directories, string headers, characters,
// interning maps, overlay chains), and the four adjacency graphs (page
// directories, offsets, arcs). It is a deterministic count of the
// artifact's own structure, not a heap measurement, and costs
// O(overlay links): every table keeps its totals as it grows. It
// equals a walk of the tables the artifact holds, with one bias, in
// the direction a retention policy wants: cold pages — slices of one
// flat array per graph — are counted at their visible length, so the
// array's copy of a page an Extend has since re-laid is not counted
// while the array lives. On a cold artifact the estimate is exact.
func (c *Compiled) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	b := c.lNames.residentBytes() + c.rNames.residentBytes()
	b += int64(len(c.lid)+len(c.rid)) * mapEntryBytes
	for _, ov := range []*symOv{c.lidOv, c.ridOv} {
		for ; ov != nil; ov = ov.prev {
			b += int64(len(ov.m))*mapEntryBytes + sliceHeaderBytes
		}
	}
	for _, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		b += g.residentBytes()
	}
	return b
}
