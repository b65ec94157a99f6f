package core

import (
	"context"
	"fmt"

	"magiccounting/internal/graph"
	"magiccounting/internal/obs"
)

// Options tunes a magic counting run.
type Options struct {
	// SCCStep1 replaces the recurring strategy's §9 bounded fixpoint
	// with the linear-time Tarjan variant the paper sketches. It only
	// affects Strategy == Recurring.
	SCCStep1 bool
	// Ctx, when non-nil, cancels the run: the Step 1 and Step 2
	// fixpoints poll it and return ctx.Err() instead of a result once
	// it is done. A nil Ctx disables cancellation entirely.
	Ctx context.Context
	// Trace, when non-nil and armed, receives the run's span tree:
	// Step 1 and Step 2 stage spans with per-round children, each
	// carrying its duration, the tuple retrievals it charged, and
	// frontier sizes. Tracing never charges the meter, so results and
	// retrieval counts are identical with and without it; disabled
	// (nil) it costs one nil check per stage or round boundary.
	Trace *obs.Trace
}

// SolveMagicCounting evaluates the query with the magic counting
// method selected by strategy and mode. All eight family members are
// correct and safe on every database (Theorems 1 and 2 plus
// Propositions 4–7).
func (q Query) SolveMagicCounting(strategy Strategy, mode Mode) (*Result, error) {
	return q.SolveMagicCountingOpts(strategy, mode, Options{})
}

// SolveMagicCountingCtx is SolveMagicCounting under a context: the
// run stops promptly with ctx.Err() when ctx is cancelled or times
// out, even mid-fixpoint.
func (q Query) SolveMagicCountingCtx(ctx context.Context, strategy Strategy, mode Mode) (*Result, error) {
	return q.SolveMagicCountingOpts(strategy, mode, Options{Ctx: ctx})
}

// SolveMagicCountingOpts is SolveMagicCounting with explicit options.
// It compiles the relations and runs once; callers issuing many
// queries against the same database should Compile once and use
// (*Compiled).Solve instead.
func (q Query) SolveMagicCountingOpts(strategy Strategy, mode Mode, opts Options) (*Result, error) {
	return compileTraced(q, opts.Trace).Solve(q.Source, strategy, mode, opts)
}

// compileTraced compiles a query's relations under a "compile" span,
// so one-shot traces show the build cost the serving path amortizes.
func compileTraced(q Query, tr *obs.Trace) *Compiled {
	bs := tr.Start("compile", 0)
	c := Compile(q.L, q.E, q.R)
	if bs != nil {
		bs.Set("l_nodes", int64(c.NumL()))
		bs.Set("r_nodes", int64(c.NumR()))
	}
	tr.End(bs, 0)
	return c
}

// Solve evaluates ?- P(source, Y) on the compiled instance with the
// magic counting method selected by strategy and mode. Binding the
// source is O(1); a source occurring in no relation yields the empty
// answer set at the same accounted cost as a fresh build. Solve is
// safe for concurrent use on one Compiled.
func (c *Compiled) Solve(source string, strategy Strategy, mode Mode, opts Options) (*Result, error) {
	in := c.bind(source)
	in.configure(opts)
	integrated := mode == Integrated
	// The span names are built only under an armed trace: the
	// concatenation would otherwise allocate on every untraced solve.
	var s1, s2 *obs.Span
	if in.tr.Armed() {
		s1 = in.tr.Start("step1/"+strategy.String(), in.retrievals)
	}
	r, err := in.step1(strategy, integrated, opts.SCCStep1)
	if err != nil {
		return nil, err
	}
	if s1 != nil {
		s1.Set("iterations", int64(r.iterations))
		s1.Set("rm", int64(len(r.rm)))
		s1.Set("rc", int64(r.rc.pairs))
		if r.regular {
			s1.Set("regular", 1)
		}
	}
	in.tr.End(s1, in.retrievals)
	in.pollCtx()
	if in.stopped() {
		return nil, in.ctxErr
	}
	if in.tr.Armed() {
		s2 = in.tr.Start("step2/"+mode.String(), in.retrievals)
	}
	var answers *graph.NodeSet
	var iter int
	if integrated {
		answers, iter = in.solveIntegrated(r)
	} else {
		answers, iter = in.solveIndependent(r)
	}
	if s2 != nil {
		s2.Set("iterations", int64(iter))
		s2.Set("answers", int64(answers.Len()))
	}
	in.tr.End(s2, in.retrievals)
	if in.stopped() {
		return nil, in.ctxErr
	}
	return &Result{
		Answers: in.answerNames(answers),
		Stats: Stats{
			Retrievals:      in.retrievals,
			Iterations:      r.iterations + iter,
			MagicSetSize:    r.ms.Len(),
			CountingSetSize: r.rc.pairs,
			RMSize:          len(r.rm),
			RCSize:          r.rc.pairs,
			Regular:         r.regular,
		},
	}, nil
}

// step1 runs the Step 1 of strategy.
func (in *instance) step1(strategy Strategy, integrated, sccStep1 bool) (*reduced, error) {
	switch strategy {
	case Basic:
		return in.step1Basic(integrated), nil
	case Single:
		return in.step1Single(integrated), nil
	case Multiple:
		return in.step1Multiple(integrated), nil
	case Recurring:
		if sccStep1 {
			return in.step1RecurringSCC(integrated), nil
		}
		return in.step1RecurringNaive(integrated), nil
	}
	return nil, fmt.Errorf("core: unknown strategy %v", strategy)
}

// solveIndependent runs Step 2 of the independent methods (§4): the
// counting part seeded by RC and the magic part with exit rule
// restricted to RM but recursion over the full magic set, answers
// unioned.
func (in *instance) solveIndependent(r *reduced) (*graph.NodeSet, int) {
	answers, iter := in.countingDescent(r.rc)
	if len(r.rm) > 0 {
		pm, mIter := in.magicPairs(r.ms, r.rm, r.inMS, nil)
		iter += mIter
		for _, y := range pm.row(r.ms.Pos(in.src)).Members() {
			answers.Add(y)
		}
	}
	return answers, iter
}

// solveIntegrated runs Step 2 of the integrated methods (§5): the
// magic part first, confined to RM, then the transfer rule
//
//	P_C(J, Y) :- RC(J, X), L(X, X1), P_M(X1, Y1), R(Y, Y1).
//
// moves its results into the counting descent, which alone produces
// the answer. Correctness relies on RM being closed under
// L-successors, an invariant of all four Step 1 constructions
// (successors of non-single nodes are non-single; successors of
// recurring nodes are recurring).
func (in *instance) solveIntegrated(r *reduced) (*graph.NodeSet, int) {
	iter := 0
	pc := newLevelSet()
	if len(r.rm) > 0 {
		// The transfer rule (§5, rule 3) rides along the magic part's
		// delta expansion: whenever a pair (x1, y1) is expanded and a
		// predecessor x lies in RC, one R step below y1 enters the
		// counting descent at each of x's indices. Sharing the L probe
		// with the recursive rule keeps rule 3's cost inside the magic
		// part's Θ bound, as the paper's analysis assumes.
		rcIdx := r.rcIndexByNode()
		_, mIter := in.magicPairs(r.ms, r.rm, r.inRM, func(x, y1 int32) {
			levels := rcIdx[x]
			if len(levels) == 0 {
				return
			}
			in.charge(1 + int64(len(in.rOut(y1))))
			for _, y := range in.rOut(y1) {
				for _, j := range levels {
					pc.add(j, y)
				}
			}
		})
		iter += mIter
	}
	// Counting exit rule over RC, then the shared descent.
	in.seedExit(pc, r.rc)
	answers, dIter := in.descend(pc)
	return answers, iter + dIter
}
