package core

import (
	"slices"

	"magiccounting/internal/graph"
)

// levelSet is a counting-style relation: levels[j] holds the node ids
// with index j, deduplicated per level by a NodeSet.
type levelSet struct {
	levels []graph.NodeSet
	pairs  int
}

func newLevelSet() *levelSet { return &levelSet{} }

// add inserts (j, v) and reports whether it was new.
func (s *levelSet) add(j int, v int32) bool {
	for len(s.levels) <= j {
		s.levels = append(s.levels, graph.NodeSet{})
	}
	if !s.levels[j].Add(v) {
		return false
	}
	s.pairs++
	return true
}

// has reports whether (j, v) is present.
func (s *levelSet) has(j int, v int32) bool {
	return j >= 0 && j < len(s.levels) && s.levels[j].Has(v)
}

// remove deletes (j, v) if present, reporting whether it was there.
// Only the theorem-boundary tests mutate reduced sets this way.
func (s *levelSet) remove(j int, v int32) bool {
	if !s.has(j, v) {
		return false
	}
	var kept graph.NodeSet
	for _, x := range s.levels[j].Members() {
		if x != v {
			kept.Add(x)
		}
	}
	s.levels[j] = kept
	s.pairs--
	return true
}

// at returns the nodes with index j (nil when out of range).
func (s *levelSet) at(j int) []int32 {
	if j < 0 || j >= len(s.levels) {
		return nil
	}
	return s.levels[j].Members()
}

// maxLevel returns the highest populated index, or -1 when empty.
func (s *levelSet) maxLevel() int {
	for j := len(s.levels) - 1; j >= 0; j-- {
		if s.levels[j].Len() > 0 {
			return j
		}
	}
	return -1
}

// expandLevel is one frontier round of a counting-style fixpoint:
// for every node x of frontier, charge 1 + len(adj[x]) retrievals
// (the semijoin probe plus the produced arcs) and insert adj[x] into
// level toLevel of dest. Dedup probes are not charged.
func (in *instance) expandLevel(dest *levelSet, frontier []int32, adj *csr, toLevel int) {
	for _, x := range frontier {
		row := adj.row(x)
		in.charge(1 + int64(len(row)))
		for _, v := range row {
			dest.add(toLevel, v)
		}
	}
}

// countingSets runs the counting-set fixpoint of §2:
//
//	CS(0, a).
//	CS(J+1, X1) :- CS(J, X), L(X, X1).
//
// level by level. A level index reaching the number of L-nodes proves
// a walk through a cycle (pigeonhole), i.e. a recurring node, so the
// computation stops with ErrUnsafe — this is the guard that turns the
// paper's "unsafe" verdict into a clean error instead of divergence.
// iterations receives one tick per level computed.
func (in *instance) countingSets() (*levelSet, int, error) {
	sp := in.tr.Start("counting", in.retrievals)
	cs := newLevelSet()
	cs.add(0, in.src)
	n := in.nL
	iterations := 0
	rt := roundTrace{in: in}
	for j := 0; len(cs.at(j)) > 0 && !in.stopped(); j++ {
		rt.begin(j, len(cs.at(j)))
		iterations++
		if j+1 > n {
			rt.done()
			in.tr.End(sp, in.retrievals)
			return nil, iterations, ErrUnsafe
		}
		// Semijoin CS ⋉ L over the frontier; each node costs
		// 1 + len(lOut[x]).
		in.expandLevel(cs, cs.at(j), &in.c.lOut, j+1)
	}
	rt.done()
	if sp != nil {
		sp.Set("iterations", int64(iterations))
		sp.Set("cs_pairs", int64(cs.pairs))
	}
	in.tr.End(sp, in.retrievals)
	return cs, iterations, nil
}

// seedExit applies the counting exit rule to every seed pair:
//
//	P_C(J, Y) :- seed(J, X), E(X, Y).
func (in *instance) seedExit(pc, seed *levelSet) {
	sp := in.tr.Start("exit", in.retrievals)
	for j := 0; j < len(seed.levels) && !in.stopped(); j++ {
		in.expandLevel(pc, seed.at(j), &in.c.eOut, j)
	}
	if sp != nil {
		sp.Set("levels", int64(len(seed.levels)))
		sp.Set("seeded", int64(pc.pairs))
	}
	in.tr.End(sp, in.retrievals)
}

// descend runs the counting descent to completion:
//
//	P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1).
//	Answer(Y)   :- P_C(0, Y).
//
// returning the answer node set and one iteration tick per level.
func (in *instance) descend(pc *levelSet) (*graph.NodeSet, int) {
	sp := in.tr.Start("descent", in.retrievals)
	iterations := 0
	rt := roundTrace{in: in}
	for j := pc.maxLevel(); j >= 1 && !in.stopped(); j-- {
		rt.begin(j, len(pc.at(j)))
		iterations++
		in.expandLevel(pc, pc.at(j), &in.c.rOut, j-1)
	}
	rt.done()
	answers := &graph.NodeSet{}
	for _, y := range pc.at(0) {
		answers.Add(y)
	}
	if sp != nil {
		sp.Set("iterations", int64(iterations))
		sp.Set("answers", int64(answers.Len()))
	}
	in.tr.End(sp, in.retrievals)
	return answers, iterations
}

// countingDescent runs the modified rules of the counting method
// (§2, rules 3–5) from a seed counting set.
func (in *instance) countingDescent(seed *levelSet) (*graph.NodeSet, int) {
	pc := newLevelSet()
	in.seedExit(pc, seed)
	return in.descend(pc)
}

// SolveCounting evaluates the query with the pure counting method
// (program Q_C of §2). It returns ErrUnsafe when the magic graph is
// cyclic; Table 1's other rows cost Θ(m_L + n_L·m_R) on regular
// graphs and Θ(n_L·m_L + n_L·m_R) on acyclic non-regular ones.
func (q Query) SolveCounting() (*Result, error) {
	return q.SolveCountingOpts(Options{})
}

// SolveCountingOpts is SolveCounting with explicit options (context
// cancellation, tracing).
func (q Query) SolveCountingOpts(opts Options) (*Result, error) {
	return compileTraced(q, opts.Trace).SolveCounting(q.Source, opts)
}

// SolveCounting runs the pure counting method for one source on the
// compiled instance.
func (c *Compiled) SolveCounting(source string, opts Options) (*Result, error) {
	in := c.bind(source)
	in.configure(opts)
	cs, iter, err := in.countingSets()
	if err != nil {
		return nil, err
	}
	answers, dIter := in.countingDescent(cs)
	return &Result{
		Answers: in.answerNames(answers),
		Stats: Stats{
			Retrievals:      in.retrievals,
			Iterations:      iter + dIter,
			CountingSetSize: cs.pairs,
		},
	}, nil
}

// SolveCountingCyclic evaluates the query with the generalized
// counting extension sketched in the paper's [MPS]/[SZ2] footnote:
// counting-set indices are capped at 2·n_L−1 (beyond which every
// index belongs to a recurring node whose answers a magic-style pass
// already covers), making the method safe on cyclic graphs at cost
// Θ(n_L·m_L + n_L²·m_R) — the footnote's Θ(m·n³) family. It exists to
// reproduce the paper's claim that even safe counting variants lose
// to magic counting on cyclic data.
func (q Query) SolveCountingCyclic() (*Result, error) {
	return q.SolveCountingCyclicOpts(Options{})
}

// SolveCountingCyclicOpts is SolveCountingCyclic with explicit options.
func (q Query) SolveCountingCyclicOpts(opts Options) (*Result, error) {
	return compileTraced(q, opts.Trace).SolveCountingCyclic(q.Source, opts)
}

// SolveCountingCyclic runs the bounded-index counting extension for
// one source on the compiled instance.
func (c *Compiled) SolveCountingCyclic(source string, opts Options) (*Result, error) {
	in := c.bind(source)
	in.configure(opts)
	n := in.nL
	bound := 2*n - 1
	cs := newLevelSet()
	cs.add(0, in.src)
	iterations := 0
	for j := 0; j < bound && len(cs.at(j)) > 0; j++ {
		iterations++
		in.expandLevel(cs, cs.at(j), &in.c.lOut, j+1)
	}
	// The bounded descent covers every answer whose E-crossing node is
	// single or multiple: their index sets lie entirely below n.
	answers, dIter := in.countingDescent(cs)
	// Nodes holding an index >= n are recurring (pigeonhole): their
	// index sets are infinite, so no bounded counting pass can cover
	// them. Close the gap with a magic-style sweep whose exit rule is
	// seeded only from the recurring nodes, preserving safety.
	rec := &graph.NodeSet{}
	for j := n; j < len(cs.levels); j++ {
		for _, v := range cs.at(j) {
			rec.Add(v)
		}
	}
	if rec.Len() > 0 {
		exit := append([]int32(nil), rec.Members()...)
		slices.Sort(exit)
		ms := in.reachableSet()
		pm, mIter := in.magicPairs(ms, exit, nil, nil)
		for _, y := range pm.row(0).Members() {
			answers.Add(y)
		}
		dIter += mIter
	}
	return &Result{
		Answers: in.answerNames(answers),
		Stats: Stats{
			Retrievals:      in.retrievals,
			Iterations:      iterations + dIter,
			CountingSetSize: cs.pairs,
		},
	}, nil
}
