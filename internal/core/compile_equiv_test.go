// Compile-equivalence suite: a shared *Compiled reused across many
// queries must be observationally identical to the one-shot Query
// path — same answers, same retrieval counts, same regime selection —
// for every method in the family, over workload generators spanning
// the Figure 3 regimes. This file lives in core_test (not core) so it
// can exercise the public API through the workload generators.
package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/workload"
)

// equivQueries spans the regimes: acyclic trees and DAGs (counting
// territory), cycles and lassos (recurring/magic territory), dense
// random instances, and a source interned in no relation (the virtual
// node path bind must get right).
func equivQueries() []struct {
	name string
	q    core.Query
} {
	out := []struct {
		name string
		q    core.Query
	}{
		{"tree", workload.Tree(3, 5)},
		{"chain", workload.Chain(24)},
		{"grid", workload.Grid(5, 5)},
		{"shortcut-chain", workload.ShortcutChain(20, 3)},
		{"lasso", workload.Lasso(6, 5)},
		{"cycle", workload.Cycle(9)},
		{"chord-cycle", workload.ChordCycle(8)},
		{"comb", workload.Comb(10)},
		{"dag", workload.RandomDAG(7, 4, 5, 0.3)},
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, struct {
			name string
			q    core.Query
		}{fmt.Sprintf("random-%d", seed), workload.Random(seed, 18, 12)})
	}
	ghost := workload.Tree(2, 4)
	ghost.Source = "not-in-any-relation"
	out = append(out, struct {
		name string
		q    core.Query
	}{"virtual-source", ghost})
	return out
}

var equivStrategies = []core.Strategy{core.Basic, core.Single, core.Multiple, core.Recurring}
var equivModes = []core.Mode{core.Independent, core.Integrated}

// checkSame compares a legacy-path and compiled-path outcome: errors
// must match exactly (the counting baselines return ErrUnsafe on
// cyclic instances) and Results must be deeply identical, Stats
// included.
func checkSame(t *testing.T, label string, legacy *core.Result, legacyErr error, compiled *core.Result, compiledErr error) {
	t.Helper()
	if (legacyErr == nil) != (compiledErr == nil) || (legacyErr != nil && legacyErr.Error() != compiledErr.Error()) {
		t.Errorf("%s: legacy err %v, compiled err %v", label, legacyErr, compiledErr)
		return
	}
	if legacyErr != nil {
		return
	}
	if !reflect.DeepEqual(legacy, compiled) {
		t.Errorf("%s: legacy %+v != compiled %+v", label, legacy, compiled)
	}
}

// TestCompileEquivalence runs every method — the eight magic counting
// strategy/mode combinations (plus the SCC recurring variant), both
// baselines, naive, and auto selection — through one shared Compiled
// per instance and through the one-shot Query wrappers, and demands
// byte-identical outcomes. The compiled path runs twice, so a second
// solve on a warm artifact is covered too.
func TestCompileEquivalence(t *testing.T) {
	for _, tc := range equivQueries() {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			c := core.Compile(q.L, q.E, q.R)
			for round := 0; round < 2; round++ {
				for _, s := range equivStrategies {
					for _, m := range equivModes {
						label := fmt.Sprintf("round %d %v/%v", round, s, m)
						legacy, lerr := q.SolveMagicCounting(s, m)
						compiled, cerr := c.Solve(q.Source, s, m, core.Options{})
						checkSame(t, label, legacy, lerr, compiled, cerr)
					}
				}
				legacy, lerr := q.SolveMagicCountingOpts(core.Recurring, core.Integrated, core.Options{SCCStep1: true})
				compiled, cerr := c.Solve(q.Source, core.Recurring, core.Integrated, core.Options{SCCStep1: true})
				checkSame(t, fmt.Sprintf("round %d recurring-scc", round), legacy, lerr, compiled, cerr)

				legacy, lerr = q.SolveCounting()
				compiled, cerr = c.SolveCounting(q.Source, core.Options{})
				checkSame(t, fmt.Sprintf("round %d counting", round), legacy, lerr, compiled, cerr)

				legacy, lerr = q.SolveCountingCyclic()
				compiled, cerr = c.SolveCountingCyclic(q.Source, core.Options{})
				checkSame(t, fmt.Sprintf("round %d counting-cyclic", round), legacy, lerr, compiled, cerr)

				legacy, lerr = q.SolveMagic()
				compiled, cerr = c.SolveMagic(q.Source)
				checkSame(t, fmt.Sprintf("round %d magic", round), legacy, lerr, compiled, cerr)

				legacy, lerr = q.SolveNaive()
				compiled, cerr = c.SolveNaive(q.Source)
				checkSame(t, fmt.Sprintf("round %d naive", round), legacy, lerr, compiled, cerr)
			}

			// Regime classification and auto selection agree end to end.
			if sel, csel := core.ChooseMethod(q), c.ChooseMethod(q.Source); !reflect.DeepEqual(sel, csel) {
				t.Errorf("selection: legacy %+v != compiled %+v", sel, csel)
			}
			ares, asel, aerr := q.SolveAuto(core.Options{})
			cres, cselr, cerr := c.SolveAuto(q.Source, core.Options{})
			checkSame(t, "auto", ares, aerr, cres, cerr)
			if !reflect.DeepEqual(asel, cselr) {
				t.Errorf("auto selection: legacy %+v != compiled %+v", asel, cselr)
			}
		})
	}
}

// TestChooseMethodAbsentSource pins the cost and the outcome of
// auto-selection for a source that occurs in no relation (a misspelt
// name, a node not yet appended). It reaches nothing, so it is regular
// whatever the database holds — here one big cycle, which a classifier
// looking past the source's reach would call cyclic — its answers and
// Stats are those of an explicit basic/integrated solve, and selecting
// for it allocates the same small number of objects on a 2k-fact and a
// 100k-fact database: nothing is built per arc or per node to give the
// source its one isolated node.
func TestChooseMethodAbsentSource(t *testing.T) {
	const absent = "not-in-any-relation"
	var allocs []float64
	for _, nodes := range []int{700, 33400} { // 3 facts per node
		q := workload.Cycle(nodes)
		c := core.Compile(q.L, q.E, q.R)
		if sel := c.ChooseMethod(q.Source); sel.Regime != core.RegimeCyclic {
			t.Fatalf("%d nodes: present source selected %+v, want the cyclic regime", nodes, sel)
		}
		sel := c.ChooseMethod(absent)
		if sel.Regime != core.RegimeRegular || sel.Strategy != core.Basic || sel.Mode != core.Integrated {
			t.Fatalf("%d nodes: absent source selected %+v, want regular -> basic/integrated", nodes, sel)
		}
		auto, asel, aerr := c.SolveAuto(absent, core.Options{})
		if !reflect.DeepEqual(asel, sel) {
			t.Errorf("%d nodes: SolveAuto selected %+v, ChooseMethod %+v", nodes, asel, sel)
		}
		explicit, eerr := c.Solve(absent, core.Basic, core.Integrated, core.Options{})
		checkSame(t, fmt.Sprintf("%d nodes auto vs basic/integrated", nodes), explicit, eerr, auto, aerr)
		allocs = append(allocs, testing.AllocsPerRun(10, func() { c.ChooseMethod(absent) }))
	}
	if allocs[0] != allocs[1] || allocs[0] > 16 {
		t.Errorf("ChooseMethod(absent source) allocates %v objects on the 2k-fact database and %v on the 100k-fact one, want the same small constant", allocs[0], allocs[1])
	}
}

// TestCompileSharedConcurrent hammers one Compiled from many
// goroutines across sources and methods at once; every result must
// match the sequentially precomputed expectation. Run under -race this
// is the immutability claim of the compiled layer.
func TestCompileSharedConcurrent(t *testing.T) {
	q := workload.Tree(3, 5)
	c := core.Compile(q.L, q.E, q.R)
	sources := []string{"t0", "t1", "t4", "t13", "t40", "absent"}

	type key struct {
		src string
		s   core.Strategy
		m   core.Mode
	}
	want := make(map[key]*core.Result)
	for _, src := range sources {
		for _, s := range equivStrategies {
			for _, m := range equivModes {
				res, err := c.Solve(src, s, m, core.Options{})
				if err != nil {
					t.Fatalf("precompute %s %v/%v: %v", src, s, m, err)
				}
				want[key{src, s, m}] = res
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				src := sources[(w+i)%len(sources)]
				s := equivStrategies[(w+i)%len(equivStrategies)]
				m := equivModes[i%len(equivModes)]
				res, err := c.Solve(src, s, m, core.Options{})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if exp := want[key{src, s, m}]; !reflect.DeepEqual(res, exp) {
					t.Errorf("worker %d: %s %v/%v diverged: %+v != %+v", w, src, s, m, res, exp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
