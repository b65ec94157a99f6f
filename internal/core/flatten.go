package core

// This file is the chain-collapse layer: Flatten folds an Extend chain
// back into the self-contained form a cold Compile produces, and
// ResidentBytes estimates how much storage an artifact keeps reachable
// — the two pieces a serving layer needs to keep a long-running
// append-heavy process memory-bounded. An Extend chain aliases its
// parent's storage at every link, so the newest artifact pins every
// ancestor's re-laid rows, row-header tables, and symbol-overlay maps
// back to the last full compile; Flatten rebuilds exactly the arrays a
// cold compile would hold, after which the ancestors become garbage.

// Flatten collapses a delta-extended artifact into a self-contained
// one: the four adjacency graphs are rebuilt in flat CSR form (no
// per-row header tables, no rows aliasing an ancestor's storage) and
// the symbol-overlay chains are folded into fresh base interning maps
// — so nothing in the result keeps a parent artifact reachable.
// Generation is preserved; DeltaDepth resets to 0, re-arming a
// serving layer's chain-depth budget.
//
// The result is StructuralEqual to the receiver (identical symbol
// tables and per-row adjacency — Flatten renumbers nothing), and
// therefore to the cold Compile over the same database up to delta
// interning order, exactly like the chain it replaces. The receiver is
// not modified and stays fully usable: in-flight queries keep
// evaluating the chain while its flattened replacement is published.
//
// An artifact that is already self-contained (cold-compiled, decoded,
// or previously flattened) is returned as-is. Cost is O(nodes + arcs)
// — the same order as the cold compile's layout passes, without the
// interning and dedupe hashing.
func (c *Compiled) Flatten() *Compiled {
	if c.depth == 0 && c.lidOv == nil && c.ridOv == nil &&
		c.lOut.rows == nil && c.lIn.rows == nil && c.eOut.rows == nil && c.rOut.rows == nil {
		return c
	}
	nL, nR := len(c.lNames), len(c.rNames)
	f := &Compiled{
		Generation: c.Generation,
		// Fresh backing arrays: the chain's name slices share a backing
		// array with every ancestor (Extend appends to cap-clamped
		// views), so copying is what severs the alias.
		lNames: append(make([]string, 0, nL), c.lNames...),
		rNames: append(make([]string, 0, nR), c.rNames...),
		lid:    make(map[string]int32, nL),
		rid:    make(map[string]int32, nR),
	}
	// Fold the overlay chains away: the name tables list every symbol
	// (base and overlaid) in id order, so rebuilding the base maps from
	// them subsumes the whole chain.
	for i, name := range f.lNames {
		f.lid[name] = int32(i)
	}
	for i, name := range f.rNames {
		f.rid[name] = int32(i)
	}
	f.lOut = c.lOut.flatten(nL)
	f.lIn = c.lIn.flatten(nL)
	f.eOut = c.eOut.flatten(nL)
	f.rOut = c.rOut.flatten(nR)
	return f
}

// mapEntryBytes is the estimator's cost of one map[string]int32 entry:
// a 16-byte string header and a 4-byte value in the bucket, bucket
// bookkeeping, and load-factor slack. Approximate by design.
const mapEntryBytes = 48

// stringHeaderBytes is the slice-element cost of one name (the header;
// the character bytes are counted separately).
const stringHeaderBytes = 16

// sliceHeaderBytes is the cost of one []int32 row header in a
// rows-form adjacency table.
const sliceHeaderBytes = 24

// ResidentBytes estimates the storage this artifact keeps reachable:
// symbol tables (headers, characters, interning maps, overlay chains),
// and the four adjacency graphs. It is a deterministic
// walk of the artifact's own structure, not a heap measurement — rows
// that alias a slice of an ancestor's larger array are counted at
// their visible length, so a deep Extend chain's estimate understates
// the true pinned set. That bias is the useful direction for a
// retention policy: the flat form's estimate is exact, so when a
// chain's (understated) estimate exceeds a budget, collapsing to the
// flat form genuinely frees at least the difference.
func (c *Compiled) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	var b int64
	for _, names := range [][]string{c.lNames, c.rNames} {
		b += int64(len(names)) * stringHeaderBytes
		for _, s := range names {
			b += int64(len(s))
		}
	}
	b += int64(len(c.lid)+len(c.rid)) * mapEntryBytes
	for ov := c.lidOv; ov != nil; ov = ov.prev {
		b += int64(len(ov.m))*mapEntryBytes + sliceHeaderBytes
	}
	for ov := c.ridOv; ov != nil; ov = ov.prev {
		b += int64(len(ov.m))*mapEntryBytes + sliceHeaderBytes
	}
	for _, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		b += g.residentBytes()
	}
	return b
}

// residentBytes estimates one adjacency graph's storage: the two flat
// arrays, or the row-header table plus each row's visible arcs.
func (g *csr) residentBytes() int64 {
	if g.rows == nil {
		return int64(len(g.off)+len(g.arcs)) * 4
	}
	b := int64(len(g.rows)) * sliceHeaderBytes
	for _, row := range g.rows {
		b += int64(len(row)) * 4
	}
	return b
}
