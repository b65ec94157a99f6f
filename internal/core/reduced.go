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

// ReducedSets is the outcome of Step 1: the partition the magic
// counting methods evaluate with.
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

// rcIndexByNode inverts RC into per-node index lists (ascending).
func (rs *ReducedSets) rcIndexByNode() map[int32][]int {
	idx := make(map[int32][]int)
	for j := range rs.RC.levels {
		for _, v := range rs.RC.at(j) {
			idx[v] = append(idx[v], j)
		}
	}
	return idx
}

// rmList returns RM's members in id order.
func (rs *ReducedSets) rmList() []int32 {
	var out []int32
	for v, in := range rs.RM {
		if in {
			out = append(out, int32(v))
		}
	}
	return out
}

// counts returns |RM| and the number of RC pairs.
func (rs *ReducedSets) counts() (rm, rc int) {
	for _, in := range rs.RM {
		if in {
			rm++
		}
	}
	return rm, rs.RC.pairs
}

// flaggedBFS is the shared Step 1 fixpoint of the basic and single
// methods (§6): a breadth-first expansion of first occurrences only,
// recording for every node its first index and whether it was ever
// re-derived at a later level (the C = 2 flag). Cost Θ(m_L).
func (in *instance) flaggedBFS() (firstIdx []int, flagged []bool, ix int, iterations int) {
	n := in.nL
	firstIdx = make([]int, n)
	for i := range firstIdx {
		firstIdx[i] = -1
	}
	flagged = make([]bool, n)
	firstIdx[in.src] = 0
	level := []int32{in.src}
	ix = -1 // min first index of a flagged node; -1 = none flagged yet
	noteFlag := func(v int32) {
		if !flagged[v] {
			flagged[v] = true
			if ix == -1 || firstIdx[v] < ix {
				ix = firstIdx[v]
			}
		}
	}
	rt := roundTrace{in: in}
	for lvl := 0; len(level) > 0 && !in.stopped(); lvl++ {
		rt.begin(lvl, len(level))
		iterations++
		var next []int32
		for _, x := range level {
			in.charge(1 + int64(len(in.lOut(x))))
			for _, v := range in.lOut(x) {
				in.charge(1) // first-occurrence probe
				switch {
				case firstIdx[v] == -1:
					firstIdx[v] = lvl + 1
					next = append(next, v)
				case firstIdx[v] != lvl+1:
					// Re-derived at a strictly later level: the node
					// has two walk lengths, so it is not single.
					noteFlag(v)
				}
			}
		}
		level = next
	}
	rt.done()
	if ix == -1 {
		ix = n + 1 // regular: every level counts as below i_x
	}
	return firstIdx, flagged, ix, iterations
}

// msFromFirstIdx converts BFS first indices to a magic-set mask.
func msFromFirstIdx(firstIdx []int) []bool {
	ms := make([]bool, len(firstIdx))
	for v, d := range firstIdx {
		ms[v] = d >= 0
	}
	return ms
}

// step1Basic implements §6: detect any non-single node; use pure
// counting when none exists, pure magic otherwise.
func (in *instance) step1Basic(integrated bool) *ReducedSets {
	firstIdx, flagged, _, iters := in.flaggedBFS()
	rs := &ReducedSets{
		MS:         msFromFirstIdx(firstIdx),
		RM:         make([]bool, len(firstIdx)),
		RC:         newLevelSet(),
		Regular:    true,
		Iterations: iters,
	}
	for _, f := range flagged {
		if f {
			rs.Regular = false
			break
		}
	}
	if rs.Regular {
		for v, d := range firstIdx {
			if d >= 0 {
				rs.RC.add(d, int32(v))
			}
		}
		return rs
	}
	copy(rs.RM, rs.MS)
	if integrated {
		rs.RC.add(0, in.src)
	}
	return rs
}

// step1Single implements §7: i_x is the first level at which a
// non-single node occurs; everything strictly below it is single and
// goes to RC, the rest to RM.
func (in *instance) step1Single(integrated bool) *ReducedSets {
	firstIdx, flagged, ix, iters := in.flaggedBFS()
	rs := &ReducedSets{
		MS:         msFromFirstIdx(firstIdx),
		RM:         make([]bool, len(firstIdx)),
		RC:         newLevelSet(),
		Regular:    true,
		Iterations: iters,
	}
	for _, f := range flagged {
		if f {
			rs.Regular = false
			break
		}
	}
	for v, d := range firstIdx {
		switch {
		case d < 0:
			// unreachable
		case d < ix:
			rs.RC.add(d, int32(v))
		default:
			rs.RM[v] = true
		}
	}
	if integrated && rs.RC.pairs == 0 {
		rs.RC.add(0, in.src)
	}
	return rs
}

// step1Multiple implements §8: a bounded fixpoint that expands each
// node's first and second occurrences (at distinct levels) but never a
// third, terminating on cyclic graphs in Θ(m_L) while identifying
// exactly the non-single nodes.
func (in *instance) step1Multiple(integrated bool) *ReducedSets {
	n := in.nL
	idx1 := make([]int, n)
	idx2 := make([]int, n)
	for i := range idx1 {
		idx1[i], idx2[i] = -1, -1
	}
	idx1[in.src] = 0
	level := []int32{in.src}
	iterations := 0
	rt := roundTrace{in: in}
	for lvl := 0; len(level) > 0 && !in.stopped(); lvl++ {
		rt.begin(lvl, len(level))
		iterations++
		var next []int32
		for _, x := range level {
			in.charge(1 + int64(len(in.lOut(x))))
			for _, v := range in.lOut(x) {
				in.charge(1) // not(MS(_, 2, X1)) guard probe
				switch {
				case idx2[v] >= 0:
					// Third occurrence suppressed.
				case idx1[v] == -1:
					idx1[v] = lvl + 1
					next = append(next, v)
				case idx1[v] != lvl+1:
					idx2[v] = lvl + 1
					next = append(next, v)
				}
			}
		}
		level = next
	}
	rt.done()
	rs := &ReducedSets{
		MS:         make([]bool, n),
		RM:         make([]bool, n),
		RC:         newLevelSet(),
		Regular:    true,
		Iterations: iterations,
	}
	for v := 0; v < n; v++ {
		if idx1[v] < 0 {
			continue
		}
		rs.MS[v] = true
		if idx2[v] >= 0 {
			rs.RM[v] = true
			rs.Regular = false
		} else {
			rs.RC.add(idx1[v], int32(v))
		}
	}
	if integrated && rs.RC.pairs == 0 {
		rs.RC.add(0, in.src)
	}
	return rs
}

// step1RecurringNaive implements §9's algorithm verbatim: the full
// counting fixpoint bounded by index < 2K−1 (K = nodes seen so far).
// A node holding an index >= K is recurring; all other nodes keep
// their complete index sets in RC. Cost Θ(n_L·m_L).
func (in *instance) step1RecurringNaive(integrated bool) *ReducedSets {
	cs := newLevelSet()
	cs.add(0, in.src)
	seen := &denseSet{}
	seen.add(in.src)
	iterations := 0
	rt := roundTrace{in: in}
	for j := 0; len(cs.at(j)) > 0 && j < 2*seen.size()-1 && !in.stopped(); j++ {
		rt.begin(j, len(cs.at(j)))
		iterations++
		for _, x := range cs.at(j) {
			in.charge(1 + int64(len(in.lOut(x))))
			for _, x1 := range in.lOut(x) {
				in.charge(1) // level dedup probe
				if cs.add(j+1, x1) {
					seen.add(x1)
				}
			}
		}
	}
	rt.done()
	n := in.nL
	k := seen.size()
	rs := &ReducedSets{
		MS:         make([]bool, n),
		RM:         make([]bool, n),
		RC:         newLevelSet(),
		Regular:    true,
		Iterations: iterations,
	}
	for _, v := range seen.members() {
		rs.MS[v] = true
	}
	// RM(Y) :- CS(I, Y), I >= K.
	for j := k; j < len(cs.levels); j++ {
		for _, v := range cs.at(j) {
			rs.RM[v] = true
		}
	}
	for j := 0; j < len(cs.levels); j++ {
		for _, v := range cs.at(j) {
			if !rs.RM[v] {
				rs.RC.add(j, v)
			}
		}
	}
	for _, v := range seen.members() {
		if rs.RM[v] || len(multiIndices(cs, v)) > 1 {
			rs.Regular = false
			break
		}
	}
	if integrated && rs.RC.pairs == 0 {
		rs.RC.add(0, in.src)
	}
	return rs
}

// multiIndices collects the levels at which v occurs in cs.
func multiIndices(cs *levelSet, v int32) []int {
	var out []int
	for j := range cs.levels {
		if cs.levels[j].has(v) {
			out = append(out, j)
		}
	}
	return out
}

// step1RecurringSCC is the improved Step 1 the paper sketches at the
// end of §9: recurring nodes are found in linear time with Tarjan's
// SCC algorithm and the index enumeration is confined to the
// non-recurring subgraph, for cost O(m_L + n_m·m_m).
func (in *instance) step1RecurringSCC(integrated bool) *ReducedSets {
	c := in.classify()
	n := in.nL
	var reachN, reachM int64
	rs := &ReducedSets{
		MS:         make([]bool, n),
		RM:         make([]bool, n),
		RC:         newLevelSet(),
		Regular:    c.Regular,
		Iterations: 1,
	}
	for v := 0; v < n; v++ {
		if c.Class[v] == graph.Unreachable {
			continue
		}
		reachN++
		reachM += int64(len(in.lOut(int32(v))))
		rs.MS[v] = true
		if c.Class[v] == graph.Recurring {
			rs.RM[v] = true
			continue
		}
		for _, j := range c.Indices[v] {
			in.charge(1) // index enumeration work
			rs.RC.add(j, int32(v))
		}
	}
	// Charge the SCC + reachability sweeps: linear in the nodes and
	// arcs of the source-reachable region. The Tarjan run rooted at the
	// source retrieves exactly those rows (every out-neighbor of a
	// reachable node is reachable), so the method's cost — like every
	// other Step 1's — is confined to the query's region and does not
	// grow with unrelated parts of the database.
	in.charge(2 * (reachN + reachM))
	if integrated && rs.RC.pairs == 0 {
		rs.RC.add(0, in.src)
	}
	return rs
}
