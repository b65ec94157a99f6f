package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"magiccounting/internal/core"
)

// appendmixResult is the -appendmix probe record, embedded into
// BENCH_*.json under "appendmix": the amortized compile cost of an
// append-heavy mixed workload with full recompilation per append
// versus delta compilation (core.Extend), over the identical seeded
// append sequence.
type appendmixResult struct {
	// BaseFacts is the size of the pre-loaded database (total pairs);
	// Appends the number of append steps replayed on top of it.
	BaseFacts int `json:"base_facts"`
	Appends   int `json:"appends"`
	// AppendedFacts is the total pairs the append sequence carried
	// (duplicates included — the mix deliberately re-sends facts);
	// FinalFacts is the deduplicated arc count of the end-state
	// artifact. Together they size the probe: a speedup claim without
	// them says nothing about how much data it was measured over.
	AppendedFacts int `json:"appended_facts"`
	FinalFacts    int `json:"final_facts"`
	// FullNsPerAppend and DeltaNsPerAppend are the amortized compile
	// cost per append (fastest of -benchrounds rounds) for the two
	// maintenance policies.
	FullNsPerAppend  float64 `json:"full_ns_per_append"`
	DeltaNsPerAppend float64 `json:"delta_ns_per_append"`
	// Speedup is FullNsPerAppend / DeltaNsPerAppend.
	Speedup float64 `json:"speedup"`
	// OracleQueries counts the per-step query comparisons between the
	// two artifacts; Divergence the ones that disagreed (must be 0).
	// StructChecks counts the StructuralEqual audits (all must pass to
	// get here — a failure aborts the probe).
	OracleQueries int `json:"oracle_queries"`
	Divergence    int `json:"divergence"`
	StructChecks  int `json:"struct_checks"`
}

// appendmixStep is one append of the seeded mix: mostly fresh chain
// links (growing the symbol tables), with periodic arcs back into the
// existing region (re-laying already-populated rows, the
// copy-on-write path) and periodic duplicates (the dedupe path).
func appendmixStep(rng *rand.Rand, step, base int) (dL, dE, dR []core.Pair) {
	n := func(j int) string { return fmt.Sprintf("m%d", j) }
	cur := base + step
	dL = []core.Pair{{From: n(cur), To: n(cur + 1)}}
	dE = []core.Pair{{From: n(cur), To: n(cur)}}
	dR = []core.Pair{{From: n(cur), To: n(cur + 1)}}
	if step%3 == 0 {
		// Arc into the settled region: the target row already has arcs.
		old := rng.Intn(base)
		dL = append(dL, core.Pair{From: n(old), To: n(cur)})
		dR = append(dR, core.Pair{From: n(old), To: n(cur)})
	}
	if step%5 == 0 {
		// Re-send an existing fact: must dedupe to nothing.
		old := rng.Intn(base)
		dL = append(dL, core.Pair{From: n(old), To: n(old + 1)})
	}
	return dL, dE, dR
}

// runAppendmixProbe replays the same seeded append+query mix twice —
// full recompile per append versus delta compilation — timing only
// the artifact maintenance, and cross-checks the two paths: every
// few steps both artifacts answer a probe query set (sorted answers
// and stats must match exactly) and periodically the artifacts are
// audited with StructuralEqual. The timed section is repeated rounds
// times and the fastest round kept, the micro-benchmark convention.
func runAppendmixProbe(base, appends, rounds int, out io.Writer) (*appendmixResult, error) {
	if base < 100 {
		base = 100
	}
	if appends < 10 {
		appends = 10
	}
	if rounds < 1 {
		rounds = 1
	}
	// Seeded base: a chain with identity E facts, the same shape the
	// recovery probe commits, so the compiled CSR has base rows to
	// alias.
	n := func(j int) string { return fmt.Sprintf("m%d", j) }
	var l, e, r []core.Pair
	for i := 0; i < base/3; i++ {
		l = append(l, core.Pair{From: n(i), To: n(i + 1)})
		e = append(e, core.Pair{From: n(i), To: n(i)})
		r = append(r, core.Pair{From: n(i), To: n(i + 1)})
	}
	baseN := base / 3
	res := &appendmixResult{BaseFacts: len(l) + len(e) + len(r), Appends: appends}

	// Pre-generate the append sequence once so every round and both
	// policies replay the identical deltas.
	type delta struct{ dL, dE, dR []core.Pair }
	rng := rand.New(rand.NewSource(20260808))
	steps := make([]delta, appends)
	for i := range steps {
		dL, dE, dR := appendmixStep(rng, i, baseN)
		steps[i] = delta{dL, dE, dR}
		res.AppendedFacts += len(dL) + len(dE) + len(dR)
	}

	fullBest, deltaBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < rounds; round++ {
		// Full-recompile policy: every append pays Compile over the
		// whole database, the PR-5 behavior under mixed traffic.
		fl := append([]core.Pair(nil), l...)
		fe := append([]core.Pair(nil), e...)
		fr := append([]core.Pair(nil), r...)
		var fullComp *core.Compiled
		var fullTime time.Duration
		for _, d := range steps {
			fl = append(fl, d.dL...)
			fe = append(fe, d.dE...)
			fr = append(fr, d.dR...)
			start := time.Now()
			fullComp = core.Compile(fl, fe, fr)
			fullTime += time.Since(start)
		}

		// Delta policy: one cold compile of the base (untimed — the
		// serving layer pays it once per artifact lifetime, on the
		// first query), then every append extends.
		deltaComp := core.Compile(l, e, r)
		var deltaTime time.Duration
		for _, d := range steps {
			start := time.Now()
			deltaComp = deltaComp.Extend(d.dL, d.dE, d.dR)
			deltaTime += time.Since(start)
		}

		if fullTime < fullBest {
			fullBest = fullTime
		}
		if deltaTime < deltaBest {
			deltaBest = deltaTime
		}

		// Oracle pass (first round only — the artifacts are
		// deterministic across rounds): the two end-state artifacts
		// must agree structurally and on every probe query.
		if round == 0 {
			if err := deltaComp.StructuralEqual(fullComp); err != nil {
				return nil, fmt.Errorf("appendmix: delta artifact diverges after %d appends: %w", appends, err)
			}
			res.StructChecks++
			al, ae, ar := fullComp.Arcs()
			res.FinalFacts = al + ae + ar
			sources := []string{n(0), n(baseN / 2), n(baseN + appends/2), n(baseN + appends), "absent-from-mix"}
			for _, src := range sources {
				for _, s := range []core.Strategy{core.Basic, core.Multiple, core.Recurring} {
					want, werr := fullComp.Solve(src, s, core.Integrated, core.Options{})
					got, gerr := deltaComp.Solve(src, s, core.Integrated, core.Options{})
					res.OracleQueries++
					if (werr == nil) != (gerr == nil) ||
						(werr == nil && (fmt.Sprint(want.Answers) != fmt.Sprint(got.Answers) || want.Stats != got.Stats)) {
						res.Divergence++
					}
				}
			}
			if res.Divergence > 0 {
				return nil, fmt.Errorf("appendmix: %d of %d oracle queries diverged between full and delta artifacts", res.Divergence, res.OracleQueries)
			}
		}
	}

	res.FullNsPerAppend = float64(fullBest.Nanoseconds()) / float64(appends)
	res.DeltaNsPerAppend = float64(deltaBest.Nanoseconds()) / float64(appends)
	if deltaBest > 0 {
		res.Speedup = float64(fullBest) / float64(deltaBest)
	}

	fmt.Fprintf(out, "appendmix probe: %d base facts, %d appends (%d pairs, final %d), %d oracle queries (0 divergent)\n",
		res.BaseFacts, res.Appends, res.AppendedFacts, res.FinalFacts, res.OracleQueries)
	fmt.Fprintf(out, "  full recompile: %12.0f ns/append\n", res.FullNsPerAppend)
	fmt.Fprintf(out, "  delta compile:  %12.0f ns/append\n", res.DeltaNsPerAppend)
	fmt.Fprintf(out, "  speedup:        %12.2fx\n", res.Speedup)
	return res, nil
}
