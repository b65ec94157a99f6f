package core

import "magiccounting/internal/graph"

// reachableSet computes the magic set MS — the L-nodes reachable from
// the source, numbered by discovery position — with the seminaive
// fixpoint of §2:
//
//	MS(a).
//	MS(X1) :- MS(X), L(X, X1), not MS(X1).
//
// Each node is expanded once, so the cost is Θ(m_L).
func (in *instance) reachableSet() *graph.NodeSet {
	ms := &graph.NodeSet{}
	ms.Add(in.src)
	for head := 0; head < ms.Len() && !in.stopped(); head++ {
		x := ms.Members()[head]
		in.charge(1 + int64(len(in.lOut(x))))
		for _, x1 := range in.lOut(x) {
			in.charge(1) // not(MS(X1)) dedup probe
			ms.Add(x1)
		}
	}
	return ms
}

// pairSet stores a derived relation P(X, Y) as per-X sets of R-nodes,
// one row per X. magicPairs numbers its rows by the X's position in the
// run's reached set; SolveNaive, which has none, by L-node id.
type pairSet struct {
	rows  []graph.NodeSet
	count int
}

func newPairSet(rows int) *pairSet { return &pairSet{rows: make([]graph.NodeSet, rows)} }

// add inserts (row x, y) and reports whether it was new.
func (p *pairSet) add(x int, y int32) bool {
	if !p.rows[x].Add(y) {
		return false
	}
	p.count++
	return true
}

// row returns row x's R-nodes as a set in derivation order; a row past
// the table (x < 0: a node with no position) is empty.
func (p *pairSet) row(x int) *graph.NodeSet {
	if x < 0 || x >= len(p.rows) {
		return &graph.NodeSet{}
	}
	return &p.rows[x]
}

// magicPairs evaluates the modified rules of the magic set method
// seminaively:
//
//	P_M(X, Y) :- exit(X), E(X, Y).
//	P_M(X, Y) :- rec(X), L(X, X1), P_M(X1, Y1), R(Y, Y1).
//
// exit lists the nodes whose E arcs seed P_M (MS for the pure magic
// method, RM for magic counting methods); reach is the run's reached
// set, which holds every exit node, and rec marks by reach position the
// nodes allowed as X in the recursive rule (nil: all of reach — MS for
// pure magic and independent methods; RM for integrated methods). It
// returns the P_M pairs, one row per reach position, and the number of
// delta rounds.
//
// Each derived pair (x1, y1) is expanded once: its L in-arcs and the
// R arcs below y1 are retrieved and every produced candidate pays a
// dedup probe, which is exactly the Θ(m_L·m_R) accounting of Table 1.
//
// boundary, when non-nil, is invoked for every in-arc predecessor x
// of an expanded pair that falls outside rec — the integrated
// methods' transfer rule (§5, rule 3) hooks in here, sharing the
// L-probe already paid by the recursive rule (the paper notes rule
// 3's cost is "already included in the cost of the magic set part").
func (in *instance) magicPairs(reach *graph.NodeSet, exit []int32, rec []bool, boundary func(x, y1 int32)) (*pairSet, int) {
	sp := in.tr.Start("magic", in.retrievals)
	pm := newPairSet(reach.Len())
	type pair struct{ x, y int32 } // x is a reach position
	var work []pair
	push := func(x, y int32) {
		in.charge(1) // dedup probe on P_M
		if pm.add(int(x), y) {
			work = append(work, pair{x, y})
		}
	}
	for _, x := range exit {
		p := reach.Pos(x)
		if p < 0 {
			continue // a cancelled run's partial reach
		}
		in.charge(1 + int64(len(in.eOut(x))))
		for _, y := range in.eOut(x) {
			push(int32(p), y)
		}
	}
	iterations := 0
	for len(work) > 0 && !in.stopped() {
		iterations++
		x1y1 := work[len(work)-1]
		work = work[:len(work)-1]
		x1, y1 := reach.Members()[x1y1.x], x1y1.y
		in.charge(1 + int64(len(in.lIn(x1)))) // L tuples entering x1
		for _, x := range in.lIn(x1) {
			if boundary != nil {
				// The transfer rule matches on RC membership, which
				// can overlap RM at the forced (0, a) pair, so it sees
				// every predecessor.
				boundary(x, y1)
			}
			p := reach.Pos(x)
			if p < 0 || rec != nil && !rec[p] {
				continue
			}
			in.charge(1 + int64(len(in.rOut(y1)))) // R tuples below y1
			for _, y := range in.rOut(y1) {
				push(int32(p), y)
			}
		}
	}
	if sp != nil {
		sp.Set("iterations", int64(iterations))
		sp.Set("exit_nodes", int64(len(exit)))
		sp.Set("pairs", int64(pm.count))
	}
	in.tr.End(sp, in.retrievals)
	return pm, iterations
}

// SolveMagic evaluates the query with the magic set method (program
// Q_M of §2): compute MS, then run the modified rules with MS gating
// both the exit and the recursive rule. Safe on every database; cost
// Θ(m_L·m_R) in all three regimes of Table 1.
func (q Query) SolveMagic() (*Result, error) {
	return Compile(q.L, q.E, q.R).SolveMagic(q.Source)
}

// SolveMagic runs the pure magic set method for one source on the
// compiled instance.
func (c *Compiled) SolveMagic(source string) (*Result, error) {
	in := c.bind(source)
	ms := in.reachableSet()
	pm, iter := in.magicPairs(ms, ms.Members(), nil, nil)
	return &Result{
		Answers: in.answerNames(pm.row(0)),
		Stats: Stats{
			Retrievals:   in.retrievals,
			Iterations:   iter,
			MagicSetSize: ms.Len(),
		},
	}, nil
}

// SolveNaive computes the answer by naive bottom-up evaluation of the
// original program over all pairs, with no binding propagation at
// all. It always terminates (the pair space is finite) and serves as
// the semantic ground truth the other methods are validated against.
func (q Query) SolveNaive() (*Result, error) {
	return Compile(q.L, q.E, q.R).SolveNaive(q.Source)
}

// SolveNaive runs the naive bottom-up baseline for one source on the
// compiled instance.
func (c *Compiled) SolveNaive(source string) (*Result, error) {
	in := c.bind(source)
	p := newPairSet(in.nL)
	type pair struct{ x, y int32 }
	var work []pair
	push := func(x, y int32) {
		in.charge(1)
		if p.add(int(x), y) {
			work = append(work, pair{x, y})
		}
	}
	// Exit rule over the whole E relation.
	for x := 0; x < in.nL; x++ {
		in.charge(1 + int64(len(in.eOut(int32(x)))))
		for _, y := range in.eOut(int32(x)) {
			push(int32(x), y)
		}
	}
	iterations := 0
	for len(work) > 0 {
		iterations++
		t := work[len(work)-1]
		work = work[:len(work)-1]
		in.charge(1 + int64(len(in.lIn(t.x))))
		for _, x := range in.lIn(t.x) {
			in.charge(1 + int64(len(in.rOut(t.y))))
			for _, y := range in.rOut(t.y) {
				push(x, y)
			}
		}
	}
	return &Result{
		Answers: in.answerNames(p.row(int(in.src))),
		Stats:   Stats{Retrievals: in.retrievals, Iterations: iterations},
	}, nil
}
