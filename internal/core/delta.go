package core

import (
	"fmt"
	"slices"
)

// This file is the delta-compilation layer: Extend patches a Compiled
// artifact with a fact delta instead of rebuilding it, the maintenance
// move the magic-set literature (Alviano et al.) justifies for fact
// insertion — derived structures indexed by source node stay valid
// for every node the delta does not reach, so only the touched rows
// need re-laying. Concretely:
//
//   - symbol tables grow append-only: new constants go into a small
//     overlay link the child owns, the shared maps (which concurrent
//     queries on the parent may still be probing) are never written,
//     and a chain of links folds itself once it reaches MaxOverlayLinks
//     (see symTable); the paged name tables append past the parent's
//     length — in place along a chain, onto a private copy of the last
//     page for a second child of one parent;
//   - CSR adjacency is re-laid per page: the child copies the page
//     directory and re-lays only the pages holding a delta arc's source
//     row (plus the last page when new nodes extend it); every other
//     page is the parent's, shared as is, and a relation with no delta
//     at all is shared wholesale;
//   - the magic graph needs no step of its own: it is the lOut/lIn
//     tables, which classification reads through row().
//
// The result compiles the same database as a cold Compile over the
// concatenated relations: identical up to the interning order of the
// delta's new symbols (Extend assigns them ids after every parent
// symbol; a cold build interleaves them in relation order), with
// per-row arc order preserved exactly. StructuralEqual checks that
// equivalence through the name bijection, and the equivalence tests
// and the mcbench -appendmix probe enforce it together with
// observational identity (same sorted answers, same Stats).

// DeltaDepth reports the longer of the two symbol tables' overlay
// chains: the links Extend steps that added symbols have left unfolded,
// at most MaxOverlayLinks (0 for a cold-compiled or decoded artifact, at
// most 1 after Flatten).
func (c *Compiled) DeltaDepth() int { return max(c.lid.links(), c.rid.links()) }

// Extend returns a new artifact covering the parent's relations plus
// the delta, reusing everything the delta does not touch. The parent
// is not modified and remains fully usable — in-flight queries keep
// evaluating it. The child's Generation is copied from the parent;
// callers that version artifacts stamp it afterwards, exactly as with
// Compile.
//
// Facts already present are ignored (relations are sets), matching
// Compile's deduplication, so Extend is idempotent over re-sent
// deltas. The cost is O(delta) in real work plus one page directory
// copy per touched table and one re-laid page per touched page — no
// hashing, sorting or copying over the parent's facts — plus, on every
// MaxOverlayLinks-th Extend that adds symbols, a symbol-table fold
// (see symTable.fold).
//
// A parent that holds no names has nothing to share, so its child is
// the cold Compile of the delta (same ids: both intern L, then E, then
// R), which costs less than laying every page through the delta path.
func (c *Compiled) Extend(dL, dE, dR []Pair) *Compiled {
	if c.lNames.n == 0 && c.rNames.n == 0 {
		child := Compile(dL, dE, dR)
		child.Generation = c.Generation
		return child
	}
	child := &Compiled{
		Generation: c.Generation,
		lNames:     c.lNames,
		rNames:     c.rNames,
		lid:        c.lid,
		rid:        c.rid,
	}
	// The parent's name pages and symbol maps are immutable: the child's
	// names go past the parent's length (see names.push) and into
	// overlay links of its own (see symTable.add), so two siblings
	// extended from one parent never see each other's symbols.
	internL := func(name string) int32 {
		if id, ok := child.lid.lookup(name); ok {
			return id
		}
		id := child.lNames.push(name)
		child.lid.add(&c.lid, name, id)
		return id
	}
	internR := func(name string) int32 {
		if id, ok := child.rid.lookup(name); ok {
			return id
		}
		id := child.rNames.push(name)
		child.rid.add(&c.rid, name, id)
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

	nL, nR := child.lNames.n, child.rNames.n
	child.lOut = c.lOut.extend(nL, lArcs, false)
	child.lIn = c.lIn.extend(nL, lArcs, true)
	child.eOut = c.eOut.extend(nL, eArcs, false)
	child.rOut = c.rOut.extend(nR, rArcs, false)
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

// extend returns the graph with arcs added, over n rows (n >= c.n).
// With no arcs the graph is shared as is: rows past its node count read
// empty anyway. Otherwise re-laid are exactly the pages holding an
// arc's source row plus the pages n adds rows to (the tail, and any
// page past it); every other page is the parent's. The directory is
// copied only when a full page changes or the tail fills up. rev swaps
// each arc's endpoints (the reverse graph).
func (c *csr) extend(n int, arcs []iarc, rev bool) csr {
	if len(arcs) == 0 {
		return *c
	}
	// Group by source row, keeping delta order inside a row: each row's
	// new arcs then follow its parent arcs in delta order, the order a
	// cold build's stable counting sort produces. Each key is a source
	// row over a delta index, so a plain sort keeps that order; the
	// sorted keys are then rewritten in place as source over target.
	bySrc := make([]uint64, len(arcs))
	for i, a := range arcs {
		if rev {
			a.u = a.v
		}
		bySrc[i] = uint64(a.u)<<32 | uint64(i)
	}
	slices.Sort(bySrc)
	for i, k := range bySrc {
		a := arcs[uint32(k)]
		if rev {
			a.v = a.u
		}
		bySrc[i] = k&^(1<<32-1) | uint64(a.v)
	}

	out := csr{pages: c.pages, n: n, m: c.m + len(arcs)}
	np := (n + pageMask) >> pageShift
	grow := np // the first page n adds rows to
	if n > c.n {
		grow = c.n >> pageShift
	}
	// Walk the pages to re-lay in ascending order: those with delta arcs
	// merged with the growing ones.
	copied := false
	for i := 0; i < len(bySrc) || grow < np; {
		p := grow
		if i < len(bySrc) {
			p = min(p, int(bySrc[i]>>(32+pageShift)))
		}
		j := i
		for j < len(bySrc) && int(bySrc[j]>>(32+pageShift)) == p {
			j++
		}
		page := relay(c.page(p), p, n, bySrc[i:j])
		i = j
		if p >= grow {
			grow = p + 1
		}
		if p == n>>pageShift {
			out.tail = page
			continue
		}
		if !copied {
			copied = true
			out.pages = make([][]int32, n>>pageShift)
			copy(out.pages, c.pages)
		}
		out.pages[p] = page
	}
	if n&pageMask != 0 && out.tail == nil {
		out.tail = c.tail
	}
	return out
}

// relay re-lays page p of a graph over n rows in one exact-size
// allocation: each row's arcs on old (nil when p is new) followed by
// its arcs in delta, in delta order. delta packs each arc as source
// over target (see csr.extend); its sources all lie on page p, in
// ascending order. The rows between two touched rows move as one
// block, their offsets shifted by a constant.
func relay(old []int32, p, n int, delta []uint64) []int32 {
	base := int32(p << pageShift)
	rows := min(pageRows, n-int(base))
	oldRows, oldArcs := 0, 0
	if len(old) > 0 {
		oldRows, oldArcs = int(old[0])-1, len(old)-int(old[0])
	}
	page := make([]int32, rows+1+oldArcs+len(delta))
	at := int32(rows + 1) // next free arc slot
	next := 0             // first row not laid yet
	// lay lays rows [next, to) as old has them: its rows as one block,
	// rows past its end empty.
	lay := func(to int) {
		if hi := min(to, oldRows); hi > next {
			shift := at - old[next]
			for r := next; r < hi; r++ {
				page[r] = old[r] + shift
			}
			at += int32(copy(page[at:], old[old[next]:old[hi]]))
			next = hi
		}
		for ; next < to; next++ {
			page[next] = at
		}
	}
	for k := 0; k < len(delta); {
		src := delta[k] >> 32
		lay(int(int32(src)-base) + 1)
		for ; k < len(delta) && delta[k]>>32 == src; k++ {
			page[at] = int32(uint32(delta[k]))
			at++
		}
	}
	lay(rows)
	page[rows] = at
	return page
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
		tag   string
		names []string
		syms  *symTable
	}{
		{"L", c.lNames.flat(), &c.lid},
		{"R", c.rNames.flat(), &c.rid},
		{"L", o.lNames.flat(), &o.lid},
		{"R", o.rNames.flat(), &o.rid},
	} {
		for i, name := range side.names {
			if id, ok := side.syms.lookup(name); !ok || id != int32(i) {
				return fmt.Errorf("core: %s symbol %q resolves to %d (ok=%v), table says %d", side.tag, name, id, ok, i)
			}
		}
	}
	oToCL, err := tableBijection("L", o.lNames.flat(), c.lNames.n, &c.lid)
	if err != nil {
		return err
	}
	oToCR, err := tableBijection("R", o.rNames.flat(), c.rNames.n, &c.rid)
	if err != nil {
		return err
	}
	// cToOL inverts oToCL so c's rows can be looked up on o's side.
	cToOL := invertIDs(oToCL)
	cToOR := invertIDs(oToCR)

	nL, nR := c.lNames.n, c.rNames.n
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

// tableBijection maps each id of the names table into the symbol table
// of the other artifact, failing when a name is missing or the table
// sizes differ — same length plus total resolution of unique names is
// a bijection.
func tableBijection(tag string, names []string, otherN int, syms *symTable) ([]int32, error) {
	if len(names) != otherN {
		return nil, fmt.Errorf("core: %s-table size %d != %d", tag, otherN, len(names))
	}
	out := make([]int32, len(names))
	for id, name := range names {
		cid, ok := syms.lookup(name)
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
