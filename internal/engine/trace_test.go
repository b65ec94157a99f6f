package engine

import (
	"fmt"
	"testing"

	"magiccounting/internal/datalog"
	"magiccounting/internal/obs"
	"magiccounting/internal/relation"
)

func traceProgram(n int) *datalog.Program {
	src := "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
	}
	return datalog.MustParse(src)
}

// TestEvalTraceMeterExact: the engine trace's per-span retrievals sum
// exactly to the store meter, and tracing changes neither stats nor
// derived tuples.
func TestEvalTraceMeterExact(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "seminaive"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			plainStore := relation.NewStore()
			plain, err := Eval(traceProgram(12), plainStore, Options{Naive: naive})
			if err != nil {
				t.Fatal(err)
			}

			store := relation.NewStore()
			tr := obs.New("eval", store.Meter().Retrievals())
			traced, err := Eval(traceProgram(12), store, Options{Naive: naive, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			root := tr.Finish(store.Meter().Retrievals())
			if root == nil {
				t.Fatal("no trace produced")
			}
			if traced.Iterations != plain.Iterations || traced.Derived != plain.Derived {
				t.Errorf("tracing changed stats: %+v vs %+v", traced, plain)
			}
			if store.Meter().Retrievals() != plainStore.Meter().Retrievals() {
				t.Errorf("tracing changed the meter: %d vs %d",
					store.Meter().Retrievals(), plainStore.Meter().Retrievals())
			}
			if got, want := root.SumRetrievals(), store.Meter().Retrievals(); got != want {
				t.Errorf("span retrievals sum to %d, meter says %d", got, want)
			}
			if root.Find("stratum/0") == nil {
				t.Error("missing stratum span")
			}
			if root.Find("round") == nil {
				t.Error("missing round spans")
			}
			if root.Find("load") == nil {
				t.Error("missing load span")
			}
		})
	}
}

// TestEvalTraceRoundCap: fixpoints deeper than traceRoundCap merge
// their tail rounds into one span, keeping the sum exact.
func TestEvalTraceRoundCap(t *testing.T) {
	store := relation.NewStore()
	tr := obs.New("eval", 0)
	if _, err := Eval(traceProgram(traceRoundCap*2), store, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish(store.Meter().Retrievals())
	if got, want := root.SumRetrievals(), store.Meter().Retrievals(); got != want {
		t.Fatalf("capped trace sums to %d, meter %d", got, want)
	}
	stratum := root.Find("stratum/0")
	if stratum == nil {
		t.Fatal("missing stratum span")
	}
	rounds, tails := 0, 0
	for _, c := range stratum.Children {
		switch c.Name {
		case "round":
			rounds++
		case "rounds":
			tails++
		}
	}
	if rounds != traceRoundCap || tails != 1 {
		t.Errorf("got %d round spans and %d tails, want %d and 1", rounds, tails, traceRoundCap)
	}
}

// TestEvalTraceParallelRounds: a stratum whose rounds carry several
// independent rule evaluations still traces exactly — the round spans
// sum to the meter and tracing changes nothing the untraced run
// derives.
func TestEvalTraceParallelRounds(t *testing.T) {
	src := "a(X, Y) :- e(X, Y).\nb(X, Y) :- f(X, Y).\na(X, Y) :- e(X, Z), a(Z, Y).\nb(X, Y) :- f(X, Z), b(Z, Y).\n"
	for i := 0; i < 16; i++ {
		src += fmt.Sprintf("e(n%d, n%d).\nf(m%d, m%d).\n", i, i+1, i, i+1)
	}
	prog := datalog.MustParse(src)

	plain := relation.NewStore()
	plainStats, err := Eval(datalog.MustParse(src), plain, Options{})
	if err != nil {
		t.Fatal(err)
	}

	store := relation.NewStore()
	tr := obs.New("eval", 0)
	stats, err := Eval(prog, store, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Finish(store.Meter().Retrievals())
	if stats.Derived != plainStats.Derived {
		t.Errorf("traced run derived %d, untraced %d", stats.Derived, plainStats.Derived)
	}
	if got, want := root.SumRetrievals(), store.Meter().Retrievals(); got != want {
		t.Errorf("span retrievals sum to %d, meter says %d", got, want)
	}
}
