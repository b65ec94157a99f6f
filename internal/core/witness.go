package core

import (
	"fmt"

	"magiccounting/internal/graph"
)

// Proof is provenance for one answer: the concrete path of Fact 2 —
// k arcs of L from the source to the crossing node, one E arc, and k
// arcs of R down to the answer.
type Proof struct {
	// LPath lists the L-nodes from the source to the crossing node
	// (length k+1).
	LPath []string
	// Crossing is the E arc used, from LPath's last node.
	Crossing Pair
	// RPath lists the R-nodes from the E target down to the answer
	// (length k+1).
	RPath []string
}

// K returns the path's half-length k.
func (p *Proof) K() int { return len(p.LPath) - 1 }

// String renders the proof as the paper draws its example paths.
func (p *Proof) String() string {
	return fmt.Sprintf("L:%v E:(%s,%s) R:%v", p.LPath, p.Crossing.From, p.Crossing.To, p.RPath)
}

// Witness returns a minimal-k proof that answer is in the query's
// answer set, or an error if it is not. It searches the product space
// (L-node, R-node) backward-forward: a state (x, y) at step k means
// the source reaches x in k L-steps and y reaches the answer in k
// R-steps; a state with an E arc x→y closes the proof. The search is
// BFS over at most n_L·n_R states, so it terminates even on cyclic
// databases.
func Witness(q Query, answer string) (*Proof, error) {
	in := build(q)
	target, ok := in.c.rid.lookup(answer)
	if !ok {
		return nil, fmt.Errorf("core: %q does not occur in the R/E domain", answer)
	}
	// rUp is the inverse of the descent adjacency: rUp[b] = nodes one
	// R-step above b (i.e. c with descent arc c -> b).
	rUp := make([][]int32, in.nR)
	for c := 0; c < in.nR; c++ {
		for _, b := range in.rOut(int32(c)) {
			rUp[b] = append(rUp[b], int32(c))
		}
	}
	eSet := make(map[int64]bool)
	for x := 0; x < in.nL; x++ {
		for _, y := range in.eOut(int32(x)) {
			eSet[int64(x)<<32|int64(uint32(y))] = true
		}
	}
	type state struct{ x, y int32 }
	parent := map[state]state{}
	seen := map[state]bool{}
	start := state{in.src, target}
	seen[start] = true
	queue := []state{start}
	var goal *state
	for len(queue) > 0 && goal == nil {
		s := queue[0]
		queue = queue[1:]
		if eSet[int64(s.x)<<32|int64(uint32(s.y))] {
			g := s
			goal = &g
			break
		}
		for _, x1 := range in.lOut(s.x) {
			for _, y1 := range rUp[s.y] {
				n := state{x1, y1}
				if !seen[n] {
					seen[n] = true
					parent[n] = s
					queue = append(queue, n)
				}
			}
		}
	}
	if goal == nil {
		return nil, fmt.Errorf("core: %q is not an answer of the query", answer)
	}
	// Reconstruct the two paths from the goal back to the start.
	var lRev, rRev []string
	s := *goal
	for {
		lRev = append(lRev, in.lName(s.x))
		rRev = append(rRev, in.c.rNames.at(s.y))
		p, ok := parent[s]
		if !ok {
			break
		}
		s = p
	}
	proof := &Proof{Crossing: Pair{From: in.lName(goal.x), To: ""}}
	for i := len(lRev) - 1; i >= 0; i-- {
		proof.LPath = append(proof.LPath, lRev[i])
	}
	// The R path runs from the E target down to the answer: the goal
	// state holds the E target, the start state the answer.
	proof.RPath = append(proof.RPath, rRev...)
	// Identify the E arc used.
	for _, y := range in.eOut(goal.x) {
		if y == goal.y {
			proof.Crossing.To = in.c.rNames.at(y)
			break
		}
	}
	return proof, nil
}

// VerifyProof checks a proof against the database: every consecutive
// LPath pair must be an L fact, the crossing an E fact, and every
// consecutive RPath pair a reversed R fact (R(lower, upper)).
func VerifyProof(q Query, p *Proof) error {
	if len(p.LPath) != len(p.RPath) {
		return fmt.Errorf("core: proof paths have unequal length %d vs %d", len(p.LPath), len(p.RPath))
	}
	has := func(rel []Pair, from, to string) bool {
		for _, pr := range rel {
			if pr.From == from && pr.To == to {
				return true
			}
		}
		return false
	}
	if len(p.LPath) == 0 || p.LPath[0] != q.Source {
		return fmt.Errorf("core: proof does not start at the source")
	}
	for i := 0; i+1 < len(p.LPath); i++ {
		if !has(q.L, p.LPath[i], p.LPath[i+1]) {
			return fmt.Errorf("core: missing L fact (%s, %s)", p.LPath[i], p.LPath[i+1])
		}
	}
	if !has(q.E, p.Crossing.From, p.Crossing.To) {
		return fmt.Errorf("core: missing E fact (%s, %s)", p.Crossing.From, p.Crossing.To)
	}
	if p.Crossing.From != p.LPath[len(p.LPath)-1] || p.Crossing.To != p.RPath[0] {
		return fmt.Errorf("core: crossing arc does not join the two paths")
	}
	for i := 0; i+1 < len(p.RPath); i++ {
		// Descent step from RPath[i] to RPath[i+1] uses R(lower, upper).
		if !has(q.R, p.RPath[i+1], p.RPath[i]) {
			return fmt.Errorf("core: missing R fact (%s, %s)", p.RPath[i+1], p.RPath[i])
		}
	}
	return nil
}

// SolveWithReducedSets evaluates the query with caller-supplied
// reduced sets, bypassing Step 1. It exists to let tests and studies
// probe the exact boundary of Theorems 1 and 2: sets violating the
// conditions produce wrong answers, which CheckReducedSets predicts.
func SolveWithReducedSets(q Query, rs *ReducedSets, mode Mode) (*Result, error) {
	in := build(q)
	r := reducedFrom(rs)
	var answers *graph.NodeSet
	var iter int
	if mode == Integrated {
		answers, iter = in.solveIntegrated(r)
	} else {
		answers, iter = in.solveIndependent(r)
	}
	return &Result{
		Answers: in.answerNames(answers),
		Stats: Stats{
			Retrievals: in.retrievals,
			Iterations: iter,
			RMSize:     len(r.rm),
			RCSize:     r.rc.pairs,
		},
	}, nil
}
