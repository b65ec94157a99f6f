package core

import "fmt"

// This file is the delta-compilation layer: Extend patches a Compiled
// artifact with a fact delta instead of rebuilding it, the maintenance
// move the magic-set literature (Alviano et al.) justifies for fact
// insertion — derived structures indexed by source node stay valid
// for every node the delta does not reach, so only the touched rows
// need re-laying. Concretely:
//
//   - symbol tables grow append-only: new constants intern into a
//     small overlay map, the base maps (shared with the parent, which
//     concurrent queries may still be probing) are never rehashed;
//   - CSR adjacency is re-laid per row: only rows whose source node
//     carries a delta arc get fresh storage, every untouched row
//     aliases the parent's arc array, and a relation with no delta at
//     all aliases wholesale;
//   - the magic graph needs no step of its own: it is the lOut/lIn
//     tables, which classification reads in either form.
//
// The result compiles the same database as a cold Compile over the
// concatenated relations: identical up to the interning order of the
// delta's new symbols (Extend assigns them ids after every parent
// symbol; a cold build interleaves them in relation order), with
// per-row arc order preserved exactly. StructuralEqual checks that
// equivalence through the name bijection, and the equivalence tests
// and the mcbench -appendmix probe enforce it together with
// observational identity (same sorted answers, same Stats).

// DeltaDepth reports how many Extend steps separate this artifact
// from its last full Compile (0 for a cold-compiled or decoded one).
// Serving layers bound the chain: each step aliases the previous
// artifact's storage, so an unbounded chain would pin every
// generation's re-laid rows; a periodic full compile flattens it.
func (c *Compiled) DeltaDepth() int { return c.depth }

// Extend returns a new artifact covering the parent's relations plus
// the delta, reusing everything the delta does not touch. The parent
// is not modified and remains fully usable — in-flight queries keep
// evaluating it. The child's Generation is copied from the parent;
// callers that version artifacts stamp it afterwards, exactly as with
// Compile.
//
// Facts already present are ignored (relations are sets), matching
// Compile's deduplication, so Extend is idempotent over re-sent
// deltas. The cost is O(nodes) in slice-header copies plus O(delta)
// in real work — no hashing or sorting over the parent's facts.
func (c *Compiled) Extend(dL, dE, dR []Pair) *Compiled {
	child := &Compiled{
		Generation: c.Generation,
		lid:        c.lid,
		rid:        c.rid,
		depth:      c.depth + 1,
	}
	// Cap-clamp the shared name tables so the first append reallocates
	// instead of growing into the parent's backing array (two siblings
	// extended from one parent must not clobber each other). The
	// overlay chains are shared outright: the parent's links are
	// immutable, and the child's first new symbol prepends a fresh one.
	child.lNames = c.lNames[:len(c.lNames):len(c.lNames)]
	child.rNames = c.rNames[:len(c.rNames):len(c.rNames)]
	child.lidOv = c.lidOv
	child.ridOv = c.ridOv

	internL := func(name string) int32 {
		if id, ok := lookupSym(child.lid, child.lidOv, name); ok {
			return id
		}
		id := int32(len(child.lNames))
		if child.lidOv == c.lidOv {
			child.lidOv = &symOv{prev: c.lidOv, m: make(map[string]int32, 4)}
		}
		child.lidOv.m[name] = id
		child.lNames = append(child.lNames, name)
		return id
	}
	internR := func(name string) int32 {
		if id, ok := lookupSym(child.rid, child.ridOv, name); ok {
			return id
		}
		id := int32(len(child.rNames))
		if child.ridOv == c.ridOv {
			child.ridOv = &symOv{prev: c.ridOv, m: make(map[string]int32, 4)}
		}
		child.ridOv.m[name] = id
		child.rNames = append(child.rNames, name)
		return id
	}

	// Intern and dedupe the delta, interleaved exactly as Compile
	// would over the concatenated relations (dL's symbols before dE's,
	// dE's before dR's), so ids — and therefore every downstream
	// structure — come out identical to a cold build. Deduplication
	// against the parent probes the touched rows only (see rowProbe),
	// which avoids rebuilding the arc-set maps Compile uses.
	lArcs := dedupeDelta(dL, &c.lOut, internL, internL, false)
	eArcs := dedupeDelta(dE, &c.eOut, internL, internR, false)
	// Descent arcs are stored reversed, like Compile: (b, c) lands in
	// row c as arc b.
	rArcs := dedupeDelta(dR, &c.rOut, internR, internR, true)

	nL, nR := len(child.lNames), len(child.rNames)
	if len(lArcs) > 0 {
		child.lOut = extendCSR(&c.lOut, nL, lArcs, false)
		child.lIn = extendCSR(&c.lIn, nL, lArcs, true)
	} else {
		child.lOut, child.lIn = c.lOut, c.lIn
	}
	if len(eArcs) > 0 {
		child.eOut = extendCSR(&c.eOut, nL, eArcs, false)
	} else {
		child.eOut = c.eOut
	}
	if len(rArcs) > 0 {
		child.rOut = extendCSR(&c.rOut, nR, rArcs, false)
	} else {
		child.rOut = c.rOut
	}
	return child
}

// dedupeDelta interns a delta's endpoints and returns its arcs with
// duplicates removed — against the parent graph and within the delta
// itself. rev swaps each pair's endpoints before storing (the
// descent-graph convention). Interning runs on every pair, duplicates
// included, mirroring Compile.
func dedupeDelta(delta []Pair, parent *csr, internFrom, internTo func(string) int32, rev bool) []iarc {
	if len(delta) == 0 {
		return nil
	}
	arcs := make([]iarc, 0, len(delta))
	var seen map[iarc]bool
	var probe rowProbe
	for _, p := range delta {
		u, v := internFrom(p.From), internTo(p.To)
		if rev {
			u, v = v, u
		}
		a := iarc{u, v}
		if seen[a] || probe.has(parent.row(u), v) {
			continue
		}
		if seen == nil {
			seen = make(map[iarc]bool, len(delta))
		}
		seen[a] = true
		arcs = append(arcs, a)
	}
	return arcs
}

// rowProbe answers "does this row hold v" for one run of probes in
// O(probes + touched rows): a long row is scanned the first few times
// it is asked about and indexed once after that, so m delta arcs aimed
// at a hub of out-degree d cost O(m + d) where a scan per arc costs
// m·d. Rows are keyed by their first element: compiled rows are
// immutable and never overlap.
type rowProbe struct {
	scans map[*int32]int
	sets  map[*int32]map[int32]struct{}
}

const (
	probeShortRow = 16 // rows up to this length are always scanned
	probeScans    = 4  // scans of a longer row before it is indexed
)

func (rp *rowProbe) has(row []int32, v int32) bool {
	if len(row) <= probeShortRow {
		return rowHas(row, v)
	}
	key := &row[0]
	set := rp.sets[key]
	if set == nil {
		if rp.scans == nil {
			rp.scans, rp.sets = make(map[*int32]int), make(map[*int32]map[int32]struct{})
		}
		if rp.scans[key]++; rp.scans[key] <= probeScans {
			return rowHas(row, v)
		}
		set = make(map[int32]struct{}, len(row))
		for _, w := range row {
			set[w] = struct{}{}
		}
		rp.sets[key] = set
	}
	_, ok := set[v]
	return ok
}

// rowHas reports whether row contains v.
func rowHas(row []int32, v int32) bool {
	for _, w := range row {
		if w == v {
			return true
		}
	}
	return false
}

// extendCSR lays the delta over a parent graph in per-row form over n
// nodes: untouched rows alias the parent's storage (cap-clamped, so
// they can never be grown in place), touched rows get fresh storage
// holding the parent row followed by the delta arcs in delta order —
// the same per-row order a cold build's stable counting sort
// produces. rev swaps each arc's endpoints (the reverse graph).
//
// Invariant: every row of a rows-form table has cap == len. A flat
// parent's rows are clamped as they are sliced out; an extended
// parent already satisfies it (its touched rows are re-clamped
// below), so a chained Extend bulk-copies the header table — the
// dominant per-step cost on a long chain — instead of re-clamping
// row by row.
func extendCSR(parent *csr, n int, arcs []iarc, rev bool) csr {
	rows := make([][]int32, n)
	if parent.rows != nil {
		copy(rows, parent.rows)
	} else {
		for i := 0; i+1 < len(parent.off); i++ {
			lo, hi := parent.off[i], parent.off[i+1]
			rows[i] = parent.arcs[lo:hi:hi]
		}
	}
	// Every row starts at cap == len, so the first append per touched
	// row copies it out of the shared storage and later appends grow
	// the private copy — copy-on-write without tracking touched sets.
	src := func(a iarc) int32 {
		if rev {
			return a.v
		}
		return a.u
	}
	for _, a := range arcs {
		s, d := a.u, a.v
		if rev {
			s, d = a.v, a.u
		}
		rows[s] = append(rows[s], d)
	}
	// Re-clamp the touched rows to restore the invariant for the next
	// link of the chain.
	for _, a := range arcs {
		s := src(a)
		row := rows[s]
		rows[s] = row[:len(row):len(row)]
	}
	return csr{rows: rows, m: parent.m + len(arcs)}
}

// flatten returns the graph in flat off/arcs form over n nodes,
// rebuilding the two arrays from the row table when the graph is
// delta-extended, and padding the offset table when the graph was
// aliased from a parent with fewer interned nodes (the delta added
// symbols but no arcs to this relation — trailing rows are empty,
// exactly as a cold build lays them). The snapshot codec serializes
// through it so a persisted extended artifact is byte-identical to
// the cold-compiled equivalent.
func (c *csr) flatten(n int) csr {
	if c.rows == nil {
		if len(c.off) == n+1 {
			return *c
		}
		off := make([]int32, n+1)
		copy(off, c.off)
		for i := len(c.off); i <= n; i++ {
			off[i] = int32(len(c.arcs))
		}
		return csr{off: off, arcs: c.arcs, m: c.m}
	}
	off := make([]int32, n+1)
	arcs := make([]int32, 0, c.m)
	for i := 0; i < n; i++ {
		arcs = append(arcs, c.row(int32(i))...)
		off[i+1] = int32(len(arcs))
	}
	return csr{off: off, arcs: arcs, m: len(arcs)}
}

// StructuralEqual reports whether two artifacts compile the same
// database: same symbol sets, same per-row adjacency (contents and
// order) in all four graphs — the magic graph is two of them —
// regardless of how either was built (cold Compile, Extend chain, or
// snapshot decode).
// The comparison runs through the name bijection, not raw ids: an
// Extend interns the delta's new symbols after every parent symbol,
// while a cold compile over the concatenated relations interleaves
// them in relation order, so equivalent artifacts agree only up to
// that permutation. Row contents are mapped through the bijection and
// compared in sequence (per-row arc order follows fact order, which
// concatenation preserves, so order-sensitive equality is exact).
// Generations are not compared. Returns nil when equivalent and a
// descriptive error naming the first divergence otherwise; the delta
// equivalence tests and the appendmix probe gate on it.
func (c *Compiled) StructuralEqual(o *Compiled) error {
	// The overlaid symbol lookup must agree with the tables on both
	// sides: every name resolves to its table index through either
	// path. With that established, same-length tables whose names all
	// resolve across artifacts form a bijection.
	for _, side := range []struct {
		tag     string
		a       *Compiled
		names   []string
		base    map[string]int32
		overlay *symOv
	}{
		{"L", c, c.lNames, c.lid, c.lidOv},
		{"R", c, c.rNames, c.rid, c.ridOv},
		{"L", o, o.lNames, o.lid, o.lidOv},
		{"R", o, o.rNames, o.rid, o.ridOv},
	} {
		for i, name := range side.names {
			if id, ok := lookupSym(side.base, side.overlay, name); !ok || id != int32(i) {
				return fmt.Errorf("core: %s symbol %q resolves to %d (ok=%v), table says %d", side.tag, name, id, ok, i)
			}
		}
	}
	oToCL, err := tableBijection("L", o.lNames, c.lNames, c.lid, c.lidOv)
	if err != nil {
		return err
	}
	oToCR, err := tableBijection("R", o.rNames, c.rNames, c.rid, c.ridOv)
	if err != nil {
		return err
	}
	// cToOL inverts oToCL so c's rows can be looked up on o's side.
	cToOL := invertIDs(oToCL)
	cToOR := invertIDs(oToCR)

	nL, nR := len(c.lNames), len(c.rNames)
	graphs := []struct {
		name       string
		a, b       *csr
		n          int
		srcO, dstO []int32 // c-id -> o-id for rows; o-id -> c-id for arcs
	}{
		{"lOut", &c.lOut, &o.lOut, nL, cToOL, oToCL},
		{"lIn", &c.lIn, &o.lIn, nL, cToOL, oToCL},
		{"eOut", &c.eOut, &o.eOut, nL, cToOL, oToCR},
		{"rOut", &c.rOut, &o.rOut, nR, cToOR, oToCR},
	}
	for _, g := range graphs {
		if g.a.m != g.b.m {
			return fmt.Errorf("core: %s arc count %d != %d", g.name, g.a.m, g.b.m)
		}
		for x := 0; x < g.n; x++ {
			ra, rb := g.a.row(int32(x)), g.b.row(g.srcO[x])
			if len(ra) != len(rb) {
				return fmt.Errorf("core: %s row %d: %d arcs != %d", g.name, x, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != g.dstO[rb[i]] {
					return fmt.Errorf("core: %s row %d arc %d: %d != %d (mapped)", g.name, x, i, ra[i], g.dstO[rb[i]])
				}
			}
		}
	}
	return nil
}

// tableBijection maps each id of the names table into the (base,
// overlay) symbol maps of the other artifact, failing when a name is
// missing or the table sizes differ — same length plus total
// resolution of unique names is a bijection.
func tableBijection(tag string, names, otherNames []string, base map[string]int32, overlay *symOv) ([]int32, error) {
	if len(names) != len(otherNames) {
		return nil, fmt.Errorf("core: %s-table size %d != %d", tag, len(otherNames), len(names))
	}
	out := make([]int32, len(names))
	for id, name := range names {
		cid, ok := lookupSym(base, overlay, name)
		if !ok {
			return nil, fmt.Errorf("core: %s symbol %q present in one artifact only", tag, name)
		}
		out[id] = cid
	}
	return out, nil
}

// invertIDs inverts a bijection represented as a slice.
func invertIDs(m []int32) []int32 {
	out := make([]int32, len(m))
	for i, v := range m {
		out[v] = int32(i)
	}
	return out
}
