package core

import (
	"maps"
	"slices"
	"sync/atomic"
)

// This file holds the compiled-instance layer: the build-once,
// share-everywhere artifact behind every solver entry point. The
// paper's workload is many bound queries ?- P(a, Y) against one
// slowly-changing database, and the magic-sets literature treats the
// EDB as a compiled, indexed artifact reused across goal invocations;
// Compile is that artifact. A Compiled is immutable after
// construction, so any number of concurrent queries may share one.
//
// The four adjacency graphs and the two name tables share one paged
// layout: a directory of pages of pageRows rows (or names) each. Cold
// Compile and DecodeCompiled lay every page of a graph back to back in
// one array and write the arcs straight into it; Extend copies a
// directory and re-lays only the pages a delta touches, so an append
// costs O(delta + pages), never O(nodes) — the per-row maintenance rule
// the magic-set literature gives for fact insertion, at page grain.

// pageShift sets the page size of every paged table: pageRows rows of
// a graph, or pageRows names of a symbol table, per page.
const (
	pageShift = 8
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// csr is one adjacency graph in paged compressed-sparse-row form. A
// page is pageRows consecutive rows in one pointer-free []int32 — the
// rows' offsets, then their arcs — so the collector never traces
// inside one: for a page of r rows, entries 0..r are positions within
// the page, and row i is page[page[i]:page[i+1]]. Rows are contiguous
// inside a page, so a frontier expansion walks memory linearly.
//
// The full pages sit in a directory shared freely between an artifact
// and everything extended from it; the partial last page, the one new
// nodes grow, is the tail, held apart so that re-laying it never copies
// the directory. Pages are immutable once built.
type csr struct {
	pages [][]int32 // full pages, n>>pageShift of them
	tail  []int32   // the last n&pageMask rows; nil when there are none
	n     int       // rows covered; ids at or past n have no arcs
	m     int       // arc count
}

// row returns node x's arc list. Ids at or past the node count — the
// bound query constant when it occurs in no relation, or a node interned
// after this graph last gained an arc — have no arcs.
func (c *csr) row(x int32) []int32 {
	if int(x) >= c.n {
		return nil
	}
	p := c.tail
	if k := int(x >> pageShift); k < len(c.pages) {
		p = c.pages[k]
	}
	i := x & pageMask
	return p[p[i]:p[i+1]]
}

// page returns page p: a full page, the tail, or nil past the end.
func (c *csr) page(p int) []int32 {
	if p < len(c.pages) {
		return c.pages[p]
	}
	if p == len(c.pages) {
		return c.tail
	}
	return nil
}

// layCSR allocates the graph whose row x holds off[x+1]-off[x] arcs (off
// has one entry per row plus one): every page back to back in one
// array, each page's offsets filled in and its arcs left for the caller
// to write in row order.
func layCSR(off []int32) csr {
	n := len(off) - 1
	buf := make([]int32, n+(n+pageMask)>>pageShift+int(off[n]))
	c := csr{pages: make([][]int32, n>>pageShift), n: n, m: int(off[n])}
	at := 0
	for lo := 0; lo < n; lo += pageRows {
		hi := min(lo+pageRows, n)
		head := int32(hi - lo + 1)
		size := int(head + off[hi] - off[lo])
		page := buf[at : at+size : at+size]
		for x := lo; x <= hi; x++ {
			page[x-lo] = head + off[x] - off[lo]
		}
		if p := lo >> pageShift; p < len(c.pages) {
			c.pages[p] = page
		} else {
			c.tail = page
		}
		at += size
	}
	return c
}

// residentBytes is the graph's storage: page headers, every page's
// offsets (rows plus one) and its arcs.
func (c *csr) residentBytes() int64 {
	np := int64(len(c.pages))
	if c.tail != nil {
		np++
	}
	return np*sliceHeaderBytes + (int64(c.n)+np+int64(c.m))*4
}

// names is a paged symbol table: the full pages of pageRows names in a
// shared directory, and the partial last page, the tail. Tables built
// by Extend from one another share the tail's backing array; see push
// for who may write past whose length.
type names struct {
	pages [][]string // full pages
	tail  []string   // the last n&pageMask names
	// claimed counts the slots of tail's backing array some table has
	// written; nil when the array may not grow in place (a cold tail is
	// a clamped slice of the compile-time name list).
	claimed *atomic.Int32
	n       int   // names held
	chars   int64 // total name length, for ResidentBytes
}

// pagedNames slices a flat name list into pages without copying it.
func pagedNames(flat []string) names {
	t := names{pages: make([][]string, len(flat)>>pageShift), n: len(flat)}
	for p := range t.pages {
		t.pages[p] = flat[p<<pageShift : (p+1)<<pageShift : (p+1)<<pageShift]
	}
	t.tail = flat[len(t.pages)<<pageShift : len(flat) : len(flat)]
	for _, s := range flat {
		t.chars += int64(len(s))
	}
	return t
}

// at returns the name of id x.
func (t *names) at(x int32) string {
	if k := int(x >> pageShift); k < len(t.pages) {
		return t.pages[k][x&pageMask]
	}
	return t.tail[x&pageMask]
}

// page returns page p: a full page, or the tail.
func (t *names) page(p int) []string {
	if p < len(t.pages) {
		return t.pages[p]
	}
	return t.tail
}

// flat returns the table as one fresh slice, in id order.
func (t *names) flat() []string {
	out := make([]string, 0, t.n)
	for _, p := range t.pages {
		out = append(out, p...)
	}
	return append(out, t.tail...)
}

// push appends name to t, a copy of some table Extend grows, and
// returns its id. Every table is immutable below its own length, so
// the tail grows in place exactly when t is the first table to claim
// the next slot of the shared backing array — a linear chain of appends
// never copies it. A sibling that finds the slot taken copies the tail
// first, so tables sharing pages never see each other's names. A full
// tail moves into a fresh copy of the directory, once per pageRows
// names.
func (t *names) push(name string) int32 {
	if len(t.tail) == pageRows {
		t.pages = append(t.pages[:len(t.pages):len(t.pages)], t.tail)
		t.tail, t.claimed = nil, nil
	}
	k := int32(len(t.tail))
	if t.claimed == nil || !t.claimed.CompareAndSwap(k, k+1) {
		t.tail = append(make([]string, 0, pageRows), t.tail...)
		t.claimed = new(atomic.Int32)
		t.claimed.Store(k + 1)
	}
	t.tail = append(t.tail, name)
	t.chars += int64(len(name))
	t.n++
	return int32(t.n - 1)
}

// residentBytes is the table's storage: page headers, string headers
// and characters.
func (t *names) residentBytes() int64 {
	np := int64(len(t.pages))
	if len(t.tail) > 0 {
		np++
	}
	return np*sliceHeaderBytes + int64(t.n)*stringHeaderBytes + t.chars
}

// iarc is one deduplicated arc during compilation.
type iarc struct{ u, v int32 }

// buildCSR lays out arcs in paged CSR form over n nodes. rev swaps each
// arc's endpoints (the reverse graph). The counting sort is stable,
// so rows keep the relation's fact order like the old per-node
// append did.
func buildCSR(n int, arcs []iarc, rev bool) csr {
	off := make([]int32, n+1)
	src := func(a iarc) int32 {
		if rev {
			return a.v
		}
		return a.u
	}
	for _, a := range arcs {
		off[src(a)+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	c := layCSR(off)
	// off is spent: reuse it as each row's next free slot in its page.
	cur := off[:n]
	for x := range cur {
		cur[x] = c.page(x >> pageShift)[x&pageMask]
	}
	for _, a := range arcs {
		s := src(a)
		d := a.v
		if rev {
			d = a.u
		}
		c.page(int(s >> pageShift))[cur[s]] = d
		cur[s]++
	}
	return c
}

// Compiled is a query instance compiled once and shared read-only
// across queries: the interned symbol tables for the two node domains
// and the four adjacency graphs in CSR form. Only the bound constant
// of ?- P(a, Y) varies between queries, so everything here is
// source-independent; bind attaches a source in O(1).
//
// A Compiled is immutable after Compile returns and safe for any
// number of concurrent Solve calls.
type Compiled struct {
	// Generation is an optional caller-assigned tag identifying the
	// database version this artifact was compiled from. Compile leaves
	// it zero; the serving layer stamps it to pair the artifact with
	// its result-cache generation.
	Generation uint64

	lNames names
	rNames names
	// lid and rid intern the two domains' names to ids. Extend adds the
	// delta's new symbols to an overlay link of its own, folding the
	// links once there are MaxOverlayLinks of them, so concurrent
	// queries on the parent keep probing maps nothing writes to (see
	// symTable).
	lid symTable
	rid symTable

	// lOut and lIn are the magic graph G_L, the artifact's only copy of
	// it: per-query classification (method auto-selection, the SCC
	// Step 1) reads lOut's rows directly.
	lOut csr // G_L arcs: L-node -> L-nodes
	lIn  csr // reverse of lOut
	eOut csr // G_E arcs: L-node -> R-nodes
	rOut csr // descent arcs: rOut[c] = {b : (b, c) in R}
}

// Compile interns the three database relations into graph form once.
// L-nodes and R-nodes live in separate id spaces, as in the paper's
// query graph: the same constant occurring in L and in R yields two
// distinct nodes. Facts are deduplicated (relations are sets). The
// result is shared freely: Solve and its siblings bind a source to it
// without touching the tables.
func Compile(L, E, R []Pair) *Compiled {
	c := &Compiled{}
	lid := make(map[string]int32, len(L))
	rid := make(map[string]int32, len(R))
	var lNames, rNames []string
	internL := func(name string) int32 {
		if id, ok := lid[name]; ok {
			return id
		}
		id := int32(len(lNames))
		lid[name] = id
		lNames = append(lNames, name)
		return id
	}
	internR := func(name string) int32 {
		if id, ok := rid[name]; ok {
			return id
		}
		id := int32(len(rNames))
		rid[name] = id
		rNames = append(rNames, name)
		return id
	}
	dedupe := func(seen map[iarc]bool, u, v int32) bool {
		a := iarc{u, v}
		if seen[a] {
			return false
		}
		seen[a] = true
		return true
	}
	lArcs := make([]iarc, 0, len(L))
	lSeen := make(map[iarc]bool, len(L))
	for _, p := range L {
		u, v := internL(p.From), internL(p.To)
		if dedupe(lSeen, u, v) {
			lArcs = append(lArcs, iarc{u, v})
		}
	}
	eArcs := make([]iarc, 0, len(E))
	eSeen := make(map[iarc]bool, len(E))
	for _, p := range E {
		u, v := internL(p.From), internR(p.To)
		if dedupe(eSeen, u, v) {
			eArcs = append(eArcs, iarc{u, v})
		}
	}
	// Descent arcs are stored reversed up front: rOut[c] = {b : (b, c) in R}.
	rArcs := make([]iarc, 0, len(R))
	rSeen := make(map[iarc]bool, len(R))
	for _, p := range R {
		b, ch := internR(p.From), internR(p.To)
		if dedupe(rSeen, b, ch) {
			rArcs = append(rArcs, iarc{ch, b})
		}
	}
	nL, nR := len(lNames), len(rNames)
	c.lid, c.rid = symTable{base: lid}, symTable{base: rid}
	c.lNames, c.rNames = pagedNames(lNames), pagedNames(rNames)
	c.lOut = buildCSR(nL, lArcs, false)
	c.lIn = buildCSR(nL, lArcs, true)
	c.eOut = buildCSR(nL, eArcs, false)
	c.rOut = buildCSR(nR, rArcs, false)
	return c
}

// NumL and NumR report the interned domain sizes (excluding any
// virtual source node a bind may add).
func (c *Compiled) NumL() int { return c.lNames.n }

// NumR reports the R-domain size.
func (c *Compiled) NumR() int { return c.rNames.n }

// Arcs reports the deduplicated arc counts of G_L, G_E, and the
// descent graph.
func (c *Compiled) Arcs() (l, e, r int) {
	return c.lOut.m, c.eOut.m, c.rOut.m
}

// Facts returns the database the artifact compiles, read back from its
// rows through the name pages: L from lOut and lIn, E from eOut, and R
// from the descent rows (rOut[c] lists the b with (b, c) in R). Each
// relation comes out deduplicated and in an order that keeps every row
// of every graph in place, so Compile over the result lays the graphs
// out exactly as c does (StructuralEqual holds). The slices are fresh;
// the names are the artifact's own.
func (c *Compiled) Facts() (l, e, r []Pair) {
	return c.appendFacts(nil, nil, nil)
}

// appendFacts appends Facts' three relations to l, e and r.
func (c *Compiled) appendFacts(l, e, r []Pair) ([]Pair, []Pair, []Pair) {
	l = c.appendL(slices.Grow(l, c.lOut.m))
	e = slices.Grow(e, c.eOut.m)
	for x := int32(0); int(x) < c.lNames.n; x++ {
		from := c.lNames.at(x)
		for _, y := range c.eOut.row(x) {
			e = append(e, Pair{from, c.rNames.at(y)})
		}
	}
	r = slices.Grow(r, c.rOut.m)
	for ch := int32(0); int(ch) < c.rNames.n; ch++ {
		to := c.rNames.at(ch)
		for _, b := range c.rOut.row(ch) {
			r = append(r, Pair{c.rNames.at(b), to})
		}
	}
	return l, e, r
}

// appendL appends G_L's arcs to l in an order that keeps both the lOut
// and the lIn rows in place. Every artifact's rows were laid from one
// fact order (Compile's, then each Extend's delta after it), so such
// an order exists, and a merge finds it: an arc comes next once it
// heads the unread part of its lOut row and of its lIn row. Should the
// rows not agree (a payload that decoded but whose lIn is not lOut's
// reverse), the arcs the merge cannot place follow in lOut row order,
// so no fact is lost.
func (c *Compiled) appendL(l []Pair) []Pair {
	n := c.lNames.n
	doneOut := make([]int32, n) // arcs of lOut[u] emitted
	doneIn := make([]int32, n)  // arcs of lIn[v] emitted
	ready := func(u int32) bool {
		row := c.lOut.row(u)
		if int(doneOut[u]) == len(row) {
			return false
		}
		v := row[doneOut[u]]
		in := c.lIn.row(v)
		return int(doneIn[v]) < len(in) && in[doneIn[v]] == u
	}
	var stack []int32
	for u := int32(0); int(u) < n; u++ {
		if ready(u) {
			stack = append(stack, u)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ready(u) {
			v := c.lOut.row(u)[doneOut[u]]
			l = append(l, Pair{c.lNames.at(u), c.lNames.at(v)})
			doneOut[u]++
			doneIn[v]++
			if in := c.lIn.row(v); int(doneIn[v]) < len(in) && in[doneIn[v]] != u && ready(in[doneIn[v]]) {
				stack = append(stack, in[doneIn[v]])
			}
		}
	}
	for u := int32(0); int(u) < n; u++ {
		for _, v := range c.lOut.row(u)[doneOut[u]:] {
			l = append(l, Pair{c.lNames.at(u), c.lNames.at(v)})
		}
	}
	return l
}

// MaxOverlayLinks bounds a symTable's overlay chain: the Extend that
// adds a link past it folds the chain at once, so a lookup miss probes
// at most this many maps beyond the base.
const MaxOverlayLinks = 8

// symTable maps the names of one symbol domain to int32s: ids in a
// Compiled, home slots in the shard router. It grows append-only. The
// base map and every overlay link are immutable once the Extend that
// built them returns, so an artifact shares them with everything
// extended from it; a child adds its new names to a link of its own
// (see add). A name lives in exactly one map, so there is no shadowing
// and the probe order is a pure lookup-cost concern.
type symTable struct {
	base map[string]int32
	ov   *symOv // newest link first; nil when every name is in base
}

// symOv is one overlay link: the names one Extend added, or a fold of
// several links, and the link before it.
type symOv struct {
	prev *symOv
	m    map[string]int32
}

// lookup resolves name: the base map first (the common case, O(1)),
// then the links newest-first, where recently added names sit.
func (t *symTable) lookup(name string) (int32, bool) {
	if v, ok := t.base[name]; ok {
		return v, true
	}
	for ov := t.ov; ov != nil; ov = ov.prev {
		if v, ok := ov.m[name]; ok {
			return v, true
		}
	}
	return 0, false
}

// links counts the overlay links.
func (t *symTable) links() int {
	n := 0
	for ov := t.ov; ov != nil; ov = ov.prev {
		n++
	}
	return n
}

// add maps name, which t does not hold, to v. t started this Extend as
// a copy of parent, whose links may be shared with siblings: the first
// name an Extend adds opens a link the child owns, and a link past
// MaxOverlayLinks folds the whole chain into one the child owns (or
// into a fresh base, and then a fresh link).
func (t *symTable) add(parent *symTable, name string, v int32) {
	if t.ov == nil || t.ov == parent.ov {
		t.ov = &symOv{prev: t.ov, m: make(map[string]int32, 4)}
		if t.links() > MaxOverlayLinks {
			if *t = t.fold(); t.ov == nil {
				t.ov = &symOv{m: make(map[string]int32, 4)}
			}
		}
	}
	t.ov.m[name] = v
}

// fold returns t with its overlay chain folded into at most one link,
// so a lookup probes at most two maps. The link holds the union of the
// chain's maps; once it outgrows an eighth of the base, the base is
// rebuilt with everything instead, which amortizes to O(1) per name.
// An already folded t comes back unchanged (same link pointer), and no
// map of t is modified.
func (t symTable) fold() symTable {
	size := 0
	for ov := t.ov; ov != nil; ov = ov.prev {
		size += len(ov.m)
	}
	if size <= len(t.base)/8 {
		if t.ov == nil || t.ov.prev == nil {
			return t
		}
		m := make(map[string]int32, size)
		for ov := t.ov; ov != nil; ov = ov.prev {
			maps.Copy(m, ov.m)
		}
		return symTable{base: t.base, ov: &symOv{m: m}}
	}
	base := make(map[string]int32, len(t.base)+size)
	maps.Copy(base, t.base)
	for ov := t.ov; ov != nil; ov = ov.prev {
		maps.Copy(base, ov.m)
	}
	return symTable{base: base}
}

// residentBytes is the table's storage: every map entry, plus the link
// overhead of each overlay map.
func (t *symTable) residentBytes() int64 {
	b := int64(len(t.base)) * mapEntryBytes
	for ov := t.ov; ov != nil; ov = ov.prev {
		b += int64(len(ov.m))*mapEntryBytes + sliceHeaderBytes
	}
	return b
}

// bind attaches a source constant to the compiled instance, producing
// the small per-run state every solver entry point evaluates with. A
// source that occurs in no relation becomes a virtual L-node one past
// the interned table — it has no arcs, exactly as if it had been
// interned fresh — so bind never mutates the shared artifact.
func (c *Compiled) bind(source string) *instance {
	in := &instance{c: c, srcName: source, nL: c.lNames.n, nR: c.rNames.n}
	if id, ok := c.lid.lookup(source); ok {
		in.src = id
	} else {
		in.src = int32(c.lNames.n)
		in.nL++
	}
	return in
}
