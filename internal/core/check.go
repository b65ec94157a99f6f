package core

import (
	"fmt"

	"magiccounting/internal/graph"
)

// CheckReducedSets validates the correctness conditions of Theorem 1
// (independent) or Theorem 2 (integrated) for a reduced-set pair
// against the query's true node classification:
//
//	a) RM ∪ RC₋ᵢ = MS,
//	b) for each b in RC₋ᵢ − RM, RI_b = I_b (the full index set), and
//	c) (integrated only) the pair (0, a) is in RC.
//
// It returns nil when all conditions hold. It is exported so tests and
// examples can demonstrate that the conditions are exactly the
// boundary of correctness.
func CheckReducedSets(q Query, rs *ReducedSets, mode Mode) error {
	in := build(q)
	cls := in.classify()

	// Condition a: the partition covers the magic set exactly.
	inRC := make([]bool, in.nL)
	for j := range rs.RC.levels {
		for _, v := range rs.RC.at(j) {
			inRC[v] = true
		}
	}
	for v := 0; v < in.nL; v++ {
		reachable := cls.Pos(int32(v)) >= 0
		covered := rs.RM[v] || inRC[v]
		if reachable && !covered {
			return fmt.Errorf("core: condition (a) violated: magic node %s in neither RM nor RC", in.lName(int32(v)))
		}
		if !reachable && covered {
			return fmt.Errorf("core: condition (a) violated: %s is not a magic node but appears in RM or RC", in.lName(int32(v)))
		}
	}

	// Condition b: RC-only nodes carry their complete index sets. By
	// condition a, they are all reached.
	for p, v := range cls.Reached {
		if !inRC[v] || rs.RM[v] {
			continue
		}
		if cls.Class[p] == graph.Recurring {
			return fmt.Errorf("core: condition (b) violated: recurring node %s assigned to RC only (infinite index set)", in.lName(v))
		}
		want := cls.Indices[p]
		got := multiIndices(rs.RC, v)
		if len(got) != len(want) {
			return fmt.Errorf("core: condition (b) violated: node %s has indices %v in RC, wants %v", in.lName(v), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("core: condition (b) violated: node %s has indices %v in RC, wants %v", in.lName(v), got, want)
			}
		}
	}

	// Condition c: integrated methods must seed the descent at (0, a).
	if mode == Integrated && !rs.RC.has(0, in.src) {
		return fmt.Errorf("core: condition (c) violated: (0, %s) missing from RC", q.Source)
	}
	return nil
}

// ReducedSetsFor runs Step 1 of the chosen strategy on the query and
// returns the resulting partition, for inspection and testing.
func (q Query) ReducedSetsFor(strategy Strategy, mode Mode, opts Options) (*ReducedSets, []string, error) {
	in := build(q)
	r, err := in.step1(strategy, mode == Integrated, opts.SCCStep1)
	if err != nil {
		return nil, nil, err
	}
	return r.dense(in.nL), in.lNamesFull(), nil
}

// RMClosedUnderSuccessors verifies the invariant the integrated
// methods rely on: every L-successor of an RM node is again in RM.
func RMClosedUnderSuccessors(q Query, rs *ReducedSets) error {
	in := build(q)
	for v := range rs.RM {
		if !rs.RM[v] {
			continue
		}
		for _, w := range in.lOut(int32(v)) {
			if !rs.RM[w] {
				return fmt.Errorf("core: RM not successor-closed: %s in RM but successor %s is not",
					in.lName(int32(v)), in.lName(w))
			}
		}
	}
	return nil
}
