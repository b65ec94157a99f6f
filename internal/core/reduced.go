package core

import (
	"fmt"

	"magiccounting/internal/graph"
)

// Strategy selects how Step 1 partitions the magic graph into the
// reduced counting set RC and the reduced magic set RM (§§6–9).
type Strategy uint8

const (
	// Basic: all-or-nothing. A regular magic graph gets RC = CS and
	// RM = ∅ (pure counting); any non-regular graph gets RM = MS.
	Basic Strategy = iota
	// Single: RC holds the single nodes below the first non-single
	// level i_x; RM holds everything from i_x up.
	Single
	// Multiple: RC holds exactly the single nodes; RM the multiple
	// and recurring ones.
	Multiple
	// Recurring: RC holds single and multiple nodes with their full
	// index sets; RM holds only the recurring nodes.
	Recurring
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Basic:
		return "basic"
	case Single:
		return "single"
	case Multiple:
		return "multiple"
	case Recurring:
		return "recurring"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Mode selects how Step 2 combines the counting and magic parts.
type Mode uint8

const (
	// Independent: the counting part (seeded by RC) and the magic part
	// (exit restricted to RM, recursion over all of MS) run separately
	// and their answers are unioned (§4).
	Independent Mode = iota
	// Integrated: the magic part runs first, confined to RM, and its
	// results are transferred into the counting descent at the RC/RM
	// boundary (§5, rule 3).
	Integrated
)

// String names the mode.
func (m Mode) String() string {
	if m == Integrated {
		return "integrated"
	}
	return "independent"
}

// ReducedSets is the outcome of Step 1 in the dense form the
// diagnostics read: masks over every L-node id. ReducedSetsFor builds
// it for the rewrite, oracle and explain callers, and
// SolveWithReducedSets evaluates with one; a query run never does, it
// holds its partition sized by the reach (see reduced).
type ReducedSets struct {
	// MS masks the full magic set over L-node ids.
	MS []bool
	// RM masks the reduced magic set.
	RM []bool
	// RC holds the reduced counting set as (index, node) pairs.
	RC *levelSet
	// Regular reports whether Step 1 saw only single nodes.
	Regular bool
	// Iterations counts Step 1 fixpoint rounds.
	Iterations int
}

// RCPair is one (index, node) member of the reduced counting set;
// Node indexes the name table returned by ReducedSetsFor.
type RCPair struct {
	Index int
	Node  int
}

// RCPairs lists the reduced counting set as (index, node) pairs in
// index order.
func (rs *ReducedSets) RCPairs() []RCPair {
	out := make([]RCPair, 0, rs.RC.pairs)
	for j := range rs.RC.levels {
		for _, v := range rs.RC.at(j) {
			out = append(out, RCPair{Index: j, Node: int(v)})
		}
	}
	return out
}

// reduced is Step 1's partition as a run holds it, sized by what the
// source reaches and never by the database: MS is the reached L-nodes
// numbered by position, RM a mark per position plus its member list,
// and RC the counting pairs.
type reduced struct {
	ms   *graph.NodeSet
	inRM []bool  // by MS position
	rm   []int32 // RM's members, in the order they were marked
	// inMS marks the positions in MS; nil when every position is.
	// Only caller-supplied sets (SolveWithReducedSets) can give RM
	// nodes outside MS a position.
	inMS       []bool
	rc         *levelSet
	regular    bool
	iterations int
}

// newReduced starts a partition whose MS holds only src.
func newReduced(src int32) *reduced {
	r := &reduced{ms: &graph.NodeSet{}, rc: newLevelSet(), regular: true}
	r.ms.Add(src)
	return r
}

// mark puts MS position p into RM. inRM must cover p.
func (r *reduced) mark(p int) {
	if !r.inRM[p] {
		r.inRM[p] = true
		r.rm = append(r.rm, r.ms.Members()[p])
	}
}

// rcIndexByNode inverts RC into per-node index lists (ascending).
func (r *reduced) rcIndexByNode() map[int32][]int {
	idx := make(map[int32][]int)
	for j := range r.rc.levels {
		for _, v := range r.rc.at(j) {
			idx[v] = append(idx[v], j)
		}
	}
	return idx
}

// dense returns the partition as masks over nL L-node ids.
func (r *reduced) dense(nL int) *ReducedSets {
	rs := &ReducedSets{MS: make([]bool, nL), RM: make([]bool, nL), RC: r.rc, Regular: r.regular, Iterations: r.iterations}
	for _, v := range r.ms.Members() {
		rs.MS[v] = true
	}
	for _, v := range r.rm {
		rs.RM[v] = true
	}
	return rs
}

// reducedFrom is dense's inverse. Caller-supplied sets need not satisfy
// the theorems, so RM nodes outside MS get positions after MS's, with
// inMS telling the two apart.
func reducedFrom(rs *ReducedSets) *reduced {
	r := &reduced{ms: &graph.NodeSet{}, rc: rs.RC, regular: rs.Regular, iterations: rs.Iterations}
	for v, in := range rs.MS {
		if in {
			r.ms.Add(int32(v))
		}
	}
	inMS := r.ms.Len()
	for v, in := range rs.RM {
		if in {
			r.ms.Add(int32(v))
		}
	}
	r.inRM = make([]bool, r.ms.Len())
	for v, in := range rs.RM {
		if in {
			r.mark(r.ms.Pos(int32(v)))
		}
	}
	if r.ms.Len() > inMS {
		r.inMS = make([]bool, r.ms.Len())
		for p := range inMS {
			r.inMS[p] = true
		}
	}
	return r
}

// flaggedBFS is the shared Step 1 fixpoint of the basic and single
// methods (§6): a breadth-first expansion of first occurrences only,
// recording for every reached node its first index and whether it was
// ever re-derived at a later level (the C = 2 flag) — both by MS
// position. A flag clears the partition's regular bit; ix is the
// smallest first index of a flagged node, nL+1 when none is. Cost
// Θ(m_L).
func (in *instance) flaggedBFS() (r *reduced, firstIdx []int, flagged []bool, ix int) {
	r = newReduced(in.src)
	firstIdx, flagged = []int{0}, []bool{false}
	level := []int32{in.src}
	ix = -1
	rt := roundTrace{in: in}
	for lvl := 0; len(level) > 0 && !in.stopped(); lvl++ {
		rt.begin(lvl, len(level))
		r.iterations++
		var next []int32
		for _, x := range level {
			in.charge(1 + int64(len(in.lOut(x))))
			for _, v := range in.lOut(x) {
				in.charge(1) // first-occurrence probe
				p, added := r.ms.Insert(v)
				switch {
				case added:
					firstIdx = append(firstIdx, lvl+1)
					flagged = append(flagged, false)
					next = append(next, v)
				case firstIdx[p] != lvl+1 && !flagged[p]:
					// Re-derived at a strictly later level: the node
					// has two walk lengths, so it is not single.
					flagged[p] = true
					r.regular = false
					if ix == -1 || firstIdx[p] < ix {
						ix = firstIdx[p]
					}
				}
			}
		}
		level = next
	}
	rt.done()
	if ix == -1 {
		ix = in.nL + 1 // regular: every level counts as below i_x
	}
	r.inRM = make([]bool, r.ms.Len())
	return r, firstIdx, flagged, ix
}

// step1Basic implements §6: detect any non-single node; use pure
// counting when none exists, pure magic otherwise.
func (in *instance) step1Basic(integrated bool) *reduced {
	r, firstIdx, _, _ := in.flaggedBFS()
	if r.regular {
		for p, v := range r.ms.Members() {
			r.rc.add(firstIdx[p], v)
		}
		return r
	}
	for p := range firstIdx {
		r.mark(p)
	}
	if integrated {
		r.rc.add(0, in.src)
	}
	return r
}

// step1Single implements §7: i_x is the first level at which a
// non-single node occurs; everything strictly below it is single and
// goes to RC, the rest to RM.
func (in *instance) step1Single(integrated bool) *reduced {
	r, firstIdx, _, ix := in.flaggedBFS()
	for p, v := range r.ms.Members() {
		if d := firstIdx[p]; d < ix {
			r.rc.add(d, v)
		} else {
			r.mark(p)
		}
	}
	if integrated && r.rc.pairs == 0 {
		r.rc.add(0, in.src)
	}
	return r
}

// step1Multiple implements §8: a bounded fixpoint that expands each
// node's first and second occurrences (at distinct levels) but never a
// third, terminating on cyclic graphs in Θ(m_L) while identifying
// exactly the non-single nodes. The two occurrence indices are held by
// MS position.
func (in *instance) step1Multiple(integrated bool) *reduced {
	r := newReduced(in.src)
	idx1, idx2 := []int{0}, []int{-1}
	level := []int32{in.src}
	rt := roundTrace{in: in}
	for lvl := 0; len(level) > 0 && !in.stopped(); lvl++ {
		rt.begin(lvl, len(level))
		r.iterations++
		var next []int32
		for _, x := range level {
			in.charge(1 + int64(len(in.lOut(x))))
			for _, v := range in.lOut(x) {
				in.charge(1) // not(MS(_, 2, X1)) guard probe
				p, added := r.ms.Insert(v)
				switch {
				case added:
					idx1, idx2 = append(idx1, lvl+1), append(idx2, -1)
					next = append(next, v)
				case idx2[p] >= 0:
					// Third occurrence suppressed.
				case idx1[p] != lvl+1:
					idx2[p] = lvl + 1
					next = append(next, v)
				}
			}
		}
		level = next
	}
	rt.done()
	r.inRM = make([]bool, r.ms.Len())
	for p, v := range r.ms.Members() {
		if idx2[p] >= 0 {
			r.mark(p)
			r.regular = false
		} else {
			r.rc.add(idx1[p], v)
		}
	}
	if integrated && r.rc.pairs == 0 {
		r.rc.add(0, in.src)
	}
	return r
}

// step1RecurringNaive implements §9's algorithm verbatim: the full
// counting fixpoint bounded by index < 2K−1 (K = nodes seen so far).
// A node holding an index >= K is recurring; all other nodes keep
// their complete index sets in RC. Cost Θ(n_L·m_L).
func (in *instance) step1RecurringNaive(integrated bool) *reduced {
	cs := newLevelSet()
	cs.add(0, in.src)
	r := newReduced(in.src)
	rt := roundTrace{in: in}
	for j := 0; len(cs.at(j)) > 0 && j < 2*r.ms.Len()-1 && !in.stopped(); j++ {
		rt.begin(j, len(cs.at(j)))
		r.iterations++
		for _, x := range cs.at(j) {
			in.charge(1 + int64(len(in.lOut(x))))
			for _, x1 := range in.lOut(x) {
				in.charge(1) // level dedup probe
				if cs.add(j+1, x1) {
					r.ms.Add(x1)
				}
			}
		}
	}
	rt.done()
	k := r.ms.Len()
	r.inRM = make([]bool, k)
	// RM(Y) :- CS(I, Y), I >= K.
	for j := k; j < len(cs.levels); j++ {
		for _, v := range cs.at(j) {
			r.mark(r.ms.Pos(v))
		}
	}
	occurrences := make([]int, k)
	for j := range cs.levels {
		for _, v := range cs.at(j) {
			p := r.ms.Pos(v)
			occurrences[p]++
			if !r.inRM[p] {
				r.rc.add(j, v)
			}
		}
	}
	r.regular = len(r.rm) == 0
	for _, n := range occurrences {
		if n > 1 {
			r.regular = false
		}
	}
	if integrated && r.rc.pairs == 0 {
		r.rc.add(0, in.src)
	}
	return r
}

// multiIndices collects the levels at which v occurs in cs.
func multiIndices(cs *levelSet, v int32) []int {
	var out []int
	for j := range cs.levels {
		if cs.levels[j].Has(v) {
			out = append(out, j)
		}
	}
	return out
}

// step1RecurringSCC is the improved Step 1 the paper sketches at the
// end of §9: recurring nodes are found in linear time with Tarjan's
// SCC algorithm and the index enumeration is confined to the
// non-recurring subgraph, for cost O(m_L + n_m·m_m). MS is the
// classifier's own reached set, positions included.
func (in *instance) step1RecurringSCC(integrated bool) *reduced {
	c := in.classify()
	r := &reduced{ms: c.Positions(), inRM: make([]bool, len(c.Reached)), rc: newLevelSet(), regular: c.Regular, iterations: 1}
	var reachM int64
	for p, v := range c.Reached {
		reachM += int64(len(in.lOut(v)))
		if c.Class[p] == graph.Recurring {
			r.mark(p)
			continue
		}
		for _, j := range c.Indices[p] {
			in.charge(1) // index enumeration work
			r.rc.add(j, v)
		}
	}
	// Charge the SCC + reachability sweeps: linear in the nodes and
	// arcs of the source-reachable region. The Tarjan run rooted at the
	// source retrieves exactly those rows (every out-neighbor of a
	// reachable node is reachable), so the method's cost — like every
	// other Step 1's — is confined to the query's region and does not
	// grow with unrelated parts of the database.
	in.charge(2 * (int64(len(c.Reached)) + reachM))
	if integrated && r.rc.pairs == 0 {
		r.rc.add(0, in.src)
	}
	return r
}
