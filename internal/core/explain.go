package core

import (
	"fmt"
	"io"
	"sort"

	"magiccounting/internal/graph"
)

// Explain runs a magic counting method and writes a human-readable
// account of every phase: the magic-graph classification, the Step 1
// partition with counting indices, the Step 2 plan, per-phase costs,
// and the answers. It is the teaching/debugging companion to
// SolveMagicCounting.
func Explain(w io.Writer, q Query, strategy Strategy, mode Mode) error {
	fmt.Fprintf(w, "magic counting: strategy=%s mode=%s source=%s\n", strategy, mode, q.Source)

	// Phase 0: the magic graph and its node classes.
	in := build(q)
	cls := in.classify()
	p := q.Params()
	fmt.Fprintf(w, "\nmagic graph: nL=%d mL=%d (reachable), R side: nR=%d mR=%d\n", p.NL, p.ML, p.NR, p.MR)
	switch {
	case p.Regular:
		fmt.Fprintln(w, "classification: regular — every node single; counting alone is safe and optimal")
	case p.Cyclic:
		fmt.Fprintln(w, "classification: cyclic — recurring nodes present; the pure counting method is UNSAFE here")
	default:
		fmt.Fprintln(w, "classification: acyclic non-regular — multiple nodes present, no cycles")
	}
	byClass := map[graph.Class][]string{}
	for p, v := range cls.Reached {
		byClass[cls.Class[p]] = append(byClass[cls.Class[p]], in.lName(v))
	}
	for _, c := range []graph.Class{graph.Single, graph.Multiple, graph.Recurring} {
		names := byClass[c]
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "  %-9s %v\n", c.String()+":", names)
		}
	}
	if !p.Regular {
		fmt.Fprintf(w, "  i_x = %d (first level with a non-single node)\n", p.IX)
	}

	// Phase 1: the reduced sets.
	rs, names, err := q.ReducedSetsFor(strategy, mode, Options{})
	if err != nil {
		return err
	}
	var rm []string
	for v, inRM := range rs.RM {
		if inRM {
			rm = append(rm, names[v])
		}
	}
	sort.Strings(rm)
	fmt.Fprintf(w, "\nstep 1 (%s): RM = %v\n", strategy, rm)
	pairs := rs.RCPairs()
	fmt.Fprintf(w, "           RC = %d (index, node) pairs:", len(pairs))
	for _, pr := range pairs {
		fmt.Fprintf(w, " (%d,%s)", pr.Index, names[pr.Node])
	}
	fmt.Fprintln(w)
	if err := CheckReducedSets(q, rs, mode); err != nil {
		fmt.Fprintf(w, "  WARNING: %v\n", err)
	} else {
		fmt.Fprintln(w, "  theorem conditions: RM ∪ RC = MS ✓, full index sets on RC−RM ✓"+
			map[bool]string{true: ", (0,source) ∈ RC ✓", false: ""}[mode == Integrated])
	}

	// Phase 2: the evaluation plan and run.
	if mode == Integrated {
		fmt.Fprintln(w, "\nstep 2 (integrated): magic part confined to RM; its results transfer into")
		fmt.Fprintln(w, "the counting descent at the RC boundary (rule 3); answers from P_C(0, Y) only")
	} else {
		fmt.Fprintln(w, "\nstep 2 (independent): counting part seeded by RC; magic part exits from RM")
		fmt.Fprintln(w, "with recursion over all of MS; the two answer sets are unioned")
	}
	res, err := q.SolveMagicCounting(strategy, mode)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nresult: %d answers in %d tuple retrievals, %d iterations\n",
		len(res.Answers), res.Stats.Retrievals, res.Stats.Iterations)
	fmt.Fprintf(w, "answers: %v\n", res.Answers)

	// Reference costs for context.
	if c, err := q.SolveCounting(); err == nil {
		fmt.Fprintf(w, "for comparison: counting %d retrievals", c.Stats.Retrievals)
	} else {
		fmt.Fprint(w, "for comparison: counting unsafe")
	}
	if m, err := q.SolveMagic(); err == nil {
		fmt.Fprintf(w, ", magic set %d retrievals\n", m.Stats.Retrievals)
	} else {
		fmt.Fprintln(w)
	}
	return nil
}
