package core

import "sync"

// This file holds the compiled-instance layer: the build-once,
// share-everywhere artifact behind every solver entry point. The
// paper's workload is many bound queries ?- P(a, Y) against one
// slowly-changing database, and the magic-sets literature treats the
// EDB as a compiled, indexed artifact reused across goal invocations;
// Compile is that artifact. A Compiled is immutable after
// construction, so any number of concurrent queries may share one.

// csr is one adjacency graph in compressed sparse row form: the arcs
// of node x occupy arcs[off[x]:off[x+1]]. One flat arc array plus one
// offset array per graph replaces the per-node [][]int32 slices of
// the old interned form — rows are contiguous, a frontier expansion
// walks memory linearly, and the whole graph is two allocations.
//
// A delta-extended graph (see Extend) trades the flat layout for a
// per-row table: rows[x] is node x's arc list, aliasing the parent
// artifact's storage for every row the delta did not touch and owning
// fresh storage for the re-laid rows. row() dispatches on which form
// is present, so solvers never see the difference.
type csr struct {
	off  []int32 // len = nodes + 1 (flat form)
	arcs []int32
	rows [][]int32 // non-nil on a delta-extended graph; overrides off/arcs
	m    int       // arc count, maintained across both forms
}

// row returns node x's arc list. Ids at or past the node count — the
// bound query constant when it occurs in no relation — have no arcs.
func (c *csr) row(x int32) []int32 {
	if c.rows != nil {
		if int(x) >= len(c.rows) {
			return nil
		}
		return c.rows[x]
	}
	if int(x)+1 >= len(c.off) {
		return nil
	}
	return c.arcs[c.off[x]:c.off[x+1]]
}

// iarc is one deduplicated arc during compilation.
type iarc struct{ u, v int32 }

// buildCSR lays out arcs in CSR form over n nodes. rev swaps each
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
	flat := make([]int32, len(arcs))
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, a := range arcs {
		s := src(a)
		d := a.v
		if rev {
			d = a.u
		}
		flat[cur[s]] = d
		cur[s]++
	}
	return csr{off: off, arcs: flat, m: len(flat)}
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

	lNames []string
	rNames []string
	lid    map[string]int32
	rid    map[string]int32
	// lidOv and ridOv are the delta overlays: symbols interned by
	// Extend since the last full Compile, as an immutable chain of
	// small per-generation maps. The base maps above are shared
	// read-only across a whole extend chain (concurrent queries on the
	// parent may be probing them), so a delta generation interns its
	// new constants into a fresh link instead of rehashing the base —
	// and instead of copying the accumulated overlay, which would make
	// a long append chain quadratic. nil on a cold-compiled artifact.
	lidOv *symOv
	ridOv *symOv

	// lOut and lIn are the magic graph G_L, the artifact's only copy of
	// it: per-query classification (method auto-selection, the SCC
	// Step 1) reads lOut's rows directly.
	lOut csr // G_L arcs: L-node -> L-nodes
	lIn  csr // reverse of lOut
	eOut csr // G_E arcs: L-node -> R-nodes
	rOut csr // descent arcs: rOut[c] = {b : (b, c) in R}

	// depth counts Extend steps since the last full Compile (see
	// DeltaDepth).
	depth int
}

// Compile interns the three database relations into graph form once.
// L-nodes and R-nodes live in separate id spaces, as in the paper's
// query graph: the same constant occurring in L and in R yields two
// distinct nodes. Facts are deduplicated (relations are sets). The
// result is shared freely: Solve and its siblings bind a source to it
// without touching the tables.
func Compile(L, E, R []Pair) *Compiled {
	c := &Compiled{
		lid: make(map[string]int32, len(L)),
		rid: make(map[string]int32, len(R)),
	}
	internL := func(name string) int32 {
		if id, ok := c.lid[name]; ok {
			return id
		}
		id := int32(len(c.lNames))
		c.lid[name] = id
		c.lNames = append(c.lNames, name)
		return id
	}
	internR := func(name string) int32 {
		if id, ok := c.rid[name]; ok {
			return id
		}
		id := int32(len(c.rNames))
		c.rid[name] = id
		c.rNames = append(c.rNames, name)
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
	nL, nR := len(c.lNames), len(c.rNames)
	c.lOut = buildCSR(nL, lArcs, false)
	c.lIn = buildCSR(nL, lArcs, true)
	c.eOut = buildCSR(nL, eArcs, false)
	c.rOut = buildCSR(nR, rArcs, false)
	return c
}

// NumL and NumR report the interned domain sizes (excluding any
// virtual source node a bind may add).
func (c *Compiled) NumL() int { return len(c.lNames) }

// NumR reports the R-domain size.
func (c *Compiled) NumR() int { return len(c.rNames) }

// Arcs reports the deduplicated arc counts of G_L, G_E, and the
// descent graph.
func (c *Compiled) Arcs() (l, e, r int) {
	return c.lOut.m, c.eOut.m, c.rOut.m
}

// symOv is one link of the overlay chain: the symbols one Extend
// generation interned, plus the previous generation's link. Links are
// immutable once their Extend returns, so siblings branch freely and
// in-flight queries on any ancestor stay safe — a name is interned in
// exactly one link (or the base), so there is no shadowing and walk
// order is a pure lookup-cost concern.
type symOv struct {
	prev *symOv
	m    map[string]int32
}

// lookupSym resolves name in a possibly-overlaid symbol table: the
// shared base map first (the common case, O(1)), then the overlay
// chain newest-first — symbols interned by recent deltas sit near the
// head, and a genuine miss costs one probe per link, bounded by the
// serving layer's chain-depth cap.
func lookupSym(base map[string]int32, overlay *symOv, name string) (int32, bool) {
	if id, ok := base[name]; ok {
		return id, true
	}
	for ov := overlay; ov != nil; ov = ov.prev {
		if id, ok := ov.m[name]; ok {
			return id, true
		}
	}
	return 0, false
}

// bind attaches a source constant to the compiled instance, producing
// the small per-run state every solver entry point evaluates with. A
// source that occurs in no relation becomes a virtual L-node one past
// the interned table — it has no arcs, exactly as if it had been
// interned fresh — so bind never mutates the shared artifact.
func (c *Compiled) bind(source string) *instance {
	in := &instance{c: c, srcName: source, nL: len(c.lNames), nR: len(c.rNames)}
	if id, ok := lookupSym(c.lid, c.lidOv, source); ok {
		in.src = id
	} else {
		in.src = int32(len(c.lNames))
		in.nL++
	}
	return in
}

// pairRows is the pooled scratch behind a run's P_M pair set: one
// denseSet row per L-node, the dominant per-query allocation once the
// graphs themselves are compiled. Rows go back to the pool reset but
// with their backing arrays intact, so a warm query reuses the
// previous run's capacity instead of growing from nil.
type pairRows struct {
	rows []denseSet
}

var pairRowsPool = sync.Pool{New: func() any { return new(pairRows) }}

// pooledPairSet returns a pairSet sized for this run from the pool.
// The caller releases it (once) when the derived pairs are consumed.
func (in *instance) pooledPairSet() *pairSet {
	pr := pairRowsPool.Get().(*pairRows)
	if cap(pr.rows) < in.nL {
		pr.rows = make([]denseSet, in.nL)
	} else {
		pr.rows = pr.rows[:in.nL]
	}
	return &pairSet{byX: pr.rows, pr: pr}
}

// release resets the pair set's rows and returns them to the pool.
// Safe to call on an unpooled or already-released set.
func (p *pairSet) release() {
	if p.pr == nil {
		return
	}
	for i := range p.pr.rows {
		p.pr.rows[i].reset()
	}
	pairRowsPool.Put(p.pr)
	p.pr = nil
	p.byX = nil
}
