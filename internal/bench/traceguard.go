// Package bench holds the tracing-overhead guard behind mcbench
// -traceguard: every instrumented solver path run with tracing
// disabled and with an enabled-but-unsampled trace, which must charge
// identical tuple retrievals and cost about the same time.
package bench

import (
	"fmt"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/datalog"
	"magiccounting/internal/engine"
	"magiccounting/internal/obs"
	"magiccounting/internal/relation"
	"magiccounting/internal/workload"
)

// TraceGuard is one probe's tracing-overhead comparison: the same
// work run with tracing disabled (nil trace, the production default)
// and with a trace that is enabled but unsampled (obs.Disarmed —
// every instrumentation site reached, nothing recorded). The two runs
// must retrieve identical tuple counts, and the disabled path must
// not have slowed down to pay for the instrumentation.
type TraceGuard struct {
	Name                string  `json:"name"`
	DisabledNsPerOp     float64 `json:"disabled_ns_per_op"`
	UnsampledNsPerOp    float64 `json:"unsampled_ns_per_op"`
	RetrievalsDisabled  int64   `json:"retrievals_disabled"`
	RetrievalsUnsampled int64   `json:"retrievals_unsampled"`
}

// traceProbe is one instrumented path: run evaluates it under the
// given trace (nil = disabled) and reports the tuple retrievals
// charged.
type traceProbe struct {
	name string
	run  func(tr *obs.Trace) (int64, error)
}

// traceProbes covers every instrumented solver family: the counting
// solver, the magic counting Step 1/Step 2 path, and the generic
// engine's stratum/round loop.
func traceProbes() []traceProbe {
	qTree := workload.Tree(3, 6)
	var src string
	src += "tc(X, Y) :- e(X, Y).\n"
	src += "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
	for i := 0; i < 48; i++ {
		src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
	}
	prog := datalog.MustParse(src)
	return []traceProbe{
		{"solve/counting-tree", func(tr *obs.Trace) (int64, error) {
			res, err := qTree.SolveCountingOpts(core.Options{Trace: tr})
			if err != nil {
				return 0, err
			}
			return res.Stats.Retrievals, nil
		}},
		{"solve/mc-recurring-int-tree", func(tr *obs.Trace) (int64, error) {
			res, err := qTree.SolveMagicCountingOpts(core.Recurring, core.Integrated, core.Options{Trace: tr})
			if err != nil {
				return 0, err
			}
			return res.Stats.Retrievals, nil
		}},
		{"engine/seminaive-chain", func(tr *obs.Trace) (int64, error) {
			store := relation.NewStore()
			if _, err := engine.Eval(prog, store, engine.Options{Trace: tr}); err != nil {
				return 0, err
			}
			return store.Meter().Retrievals(), nil
		}},
	}
}

// RunTraceGuard measures every trace probe disabled vs unsampled.
// Retrieval counts always come from one run of each configuration.
// With rounds >= 1, each configuration is also timed that many times
// through the testing benchmark driver, interleaved so machine drift
// hits both sides alike, keeping the fastest round (the minimum is
// the best estimate of the code's cost on a shared machine); with
// rounds < 1 the timing is skipped and the ns fields stay zero —
// the cheap drift-only mode the unit tests use.
func RunTraceGuard(rounds int) ([]TraceGuard, error) {
	var out []TraceGuard
	for _, p := range traceProbes() {
		disabled, err := p.run(nil)
		if err != nil {
			return nil, fmt.Errorf("%s (tracing disabled): %w", p.name, err)
		}
		unsampled, err := p.run(obs.Disarmed())
		if err != nil {
			return nil, fmt.Errorf("%s (unsampled trace): %w", p.name, err)
		}
		g := TraceGuard{
			Name:                p.name,
			RetrievalsDisabled:  disabled,
			RetrievalsUnsampled: unsampled,
		}
		run := p.run
		for round := 0; round < rounds; round++ {
			rd := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := run(nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			ru := testing.Benchmark(func(b *testing.B) {
				tr := obs.Disarmed()
				for i := 0; i < b.N; i++ {
					if _, err := run(tr); err != nil {
						b.Fatal(err)
					}
				}
			})
			nsd := float64(rd.T.Nanoseconds()) / float64(rd.N)
			nsu := float64(ru.T.Nanoseconds()) / float64(ru.N)
			if round == 0 || nsd < g.DisabledNsPerOp {
				g.DisabledNsPerOp = nsd
			}
			if round == 0 || nsu < g.UnsampledNsPerOp {
				g.UnsampledNsPerOp = nsu
			}
		}
		out = append(out, g)
	}
	return out, nil
}
