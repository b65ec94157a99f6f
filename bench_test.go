// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark family per artifact. The number that
// reproduces the paper is the per-op "retrievals" metric (the paper's
// cost unit, tuple retrievals); wall-clock ns/op is reported for free.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single table, e.g. Table 1:
//
//	go test -bench=BenchmarkTab1
package magiccounting

import (
	"context"
	"fmt"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/datalog"
	"magiccounting/internal/engine"
	"magiccounting/internal/harness"
	"magiccounting/internal/relation"
	"magiccounting/internal/server"
	"magiccounting/internal/workload"
)

// benchMethod runs one method on one query inside a testing.B loop,
// reporting the tuple-retrieval cost as a custom metric.
func benchMethod(b *testing.B, name string, q core.Query) {
	def, ok := harness.MethodByName(name)
	if !ok {
		b.Fatalf("unknown method %s", name)
	}
	var retrievals int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := def.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		retrievals = res.Stats.Retrievals
	}
	b.ReportMetric(float64(retrievals), "retrievals")
}

// --- Table 1: counting vs magic set, three regimes -----------------

func BenchmarkTab1(b *testing.B) {
	for _, regime := range []harness.Regime{harness.Regular, harness.Acyclic, harness.Cyclic} {
		for _, n := range []int{64, 256} {
			q := harness.RegimeWorkload(regime, n)
			for _, method := range []string{"counting", "magic"} {
				if regime == harness.Cyclic && method == "counting" {
					continue // the paper's "unsafe" cell
				}
				b.Run(fmt.Sprintf("%s/n=%d/%s", regime, n, method), func(b *testing.B) {
					benchMethod(b, method, q)
				})
			}
		}
	}
}

// --- Table 2: basic magic counting ---------------------------------

func BenchmarkTab2(b *testing.B) {
	for _, regime := range []harness.Regime{harness.Regular, harness.Acyclic, harness.Cyclic} {
		q := harness.RegimeWorkload(regime, 128)
		for _, method := range []string{"mc-basic-ind", "mc-basic-int"} {
			b.Run(fmt.Sprintf("%s/%s", regime, method), func(b *testing.B) {
				benchMethod(b, method, q)
			})
		}
	}
}

// --- Table 3: single magic counting on frontier graphs -------------

func BenchmarkTab3(b *testing.B) {
	for _, low := range []int{32, 128} {
		q := workload.SingleFrontier(low, 10, true)
		for _, method := range []string{"mc-basic-ind", "mc-single-ind", "mc-single-int"} {
			b.Run(fmt.Sprintf("low=%d/%s", low, method), func(b *testing.B) {
				benchMethod(b, method, q)
			})
		}
	}
}

// --- Table 4: multiple magic counting on comb graphs ---------------

func BenchmarkTab4(b *testing.B) {
	for _, spine := range []int{32, 128} {
		q := workload.Comb(spine)
		for _, method := range []string{"mc-single-ind", "mc-single-int", "mc-multiple-ind", "mc-multiple-int"} {
			b.Run(fmt.Sprintf("spine=%d/%s", spine, method), func(b *testing.B) {
				benchMethod(b, method, q)
			})
		}
	}
}

// --- Table 5: recurring magic counting on cycle-tail graphs --------

func BenchmarkTab5(b *testing.B) {
	for _, spine := range []int{32, 128} {
		q := workload.CycleTail(spine, 6)
		for _, method := range []string{"mc-multiple-ind", "mc-multiple-int",
			"mc-recurring-ind", "mc-recurring-int", "mc-recurring-scc"} {
			b.Run(fmt.Sprintf("spine=%d/%s", spine, method), func(b *testing.B) {
				benchMethod(b, method, q)
			})
		}
	}
}

// --- Figure 1: the running example in its three regimes ------------

func BenchmarkFig1(b *testing.B) {
	variants := []struct {
		name string
		q    core.Query
	}{
		{"regular", workload.PaperFig1()},
		{"acyclic", workload.PaperFig1Acyclic()},
		{"cyclic", workload.PaperFig1Cyclic()},
	}
	for _, v := range variants {
		for _, method := range []string{"magic", "mc-recurring-int"} {
			b.Run(v.name+"/"+method, func(b *testing.B) {
				benchMethod(b, method, v.q)
			})
		}
	}
}

// --- Figure 2: Step 1 reduced-set construction per strategy --------

func BenchmarkFig2(b *testing.B) {
	q := workload.PaperFig2()
	for _, s := range []core.Strategy{core.Basic, core.Single, core.Multiple, core.Recurring} {
		b.Run("step1/"+s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := q.ReducedSetsFor(s, core.Independent, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 3: the full efficiency hierarchy -----------------------

func BenchmarkFig3(b *testing.B) {
	methods := []string{"counting", "magic",
		"mc-basic-ind", "mc-basic-int", "mc-single-ind", "mc-single-int",
		"mc-multiple-ind", "mc-multiple-int", "mc-recurring-ind", "mc-recurring-int"}
	for _, regime := range []harness.Regime{harness.Regular, harness.Acyclic, harness.Cyclic} {
		q := harness.RegimeWorkload(regime, 128)
		for _, method := range methods {
			if regime == harness.Cyclic && method == "counting" {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", regime, method), func(b *testing.B) {
				benchMethod(b, method, q)
			})
		}
	}
}

// --- Ablations ------------------------------------------------------

// BenchmarkAblationRecurringStep1 compares the paper's §9 bounded
// fixpoint against the Tarjan-SCC variant it sketches, on a chord
// cycle where the naive variant's Θ(nL·mL) genuinely bites (every
// node has Θ(n) indices below the 2K−1 bound).
func BenchmarkAblationRecurringStep1(b *testing.B) {
	q := workload.ChordCycle(256)
	b.Run("naive-2k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := q.ReducedSetsFor(core.Recurring, core.Integrated, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tarjan-scc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := q.ReducedSetsFor(core.Recurring, core.Integrated, core.Options{SCCStep1: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtCyclicCounting shows the generalized-counting extension
// (the [MPS]/[SZ2] footnote) losing to both the magic set method and
// the magic counting methods on cyclic data — the footnote's claim.
func BenchmarkExtCyclicCounting(b *testing.B) {
	q := harness.RegimeWorkload(harness.Cyclic, 128)
	for _, method := range []string{"counting-cyclic", "magic", "mc-recurring-int"} {
		b.Run(method, func(b *testing.B) {
			benchMethod(b, method, q)
		})
	}
}

// BenchmarkAblationSeminaive compares naive and seminaive generic-
// engine evaluation of the same Datalog program (the transitive
// closure of a chain), isolating the differential-evaluation design
// choice the whole fixpoint layer is built on.
func BenchmarkAblationSeminaive(b *testing.B) {
	var src string
	src += "tc(X, Y) :- e(X, Y).\n"
	src += "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
	for i := 0; i < 48; i++ {
		src += fmt.Sprintf("e(n%d, n%d).\n", i, i+1)
	}
	prog := datalog.MustParse(src)
	for _, naive := range []bool{true, false} {
		name := "seminaive"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var retrievals int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store := relation.NewStore()
				if _, err := engine.Eval(prog, store, engine.Options{Naive: naive}); err != nil {
					b.Fatal(err)
				}
				retrievals = store.Meter().Retrievals()
			}
			b.ReportMetric(float64(retrievals), "retrievals")
		})
	}
}

// BenchmarkNaiveBaseline pins the cost of evaluating the original
// program with no binding propagation at all.
func BenchmarkNaiveBaseline(b *testing.B) {
	for _, regime := range []harness.Regime{harness.Regular, harness.Cyclic} {
		q := harness.RegimeWorkload(regime, 64)
		b.Run(string(regime), func(b *testing.B) {
			benchMethod(b, "naive", q)
		})
	}
}

// BenchmarkChooseMethod measures auto-selection alone — the magic-graph
// classification a miss pays before its solve — over a 33k-node
// database of 1,024 disjoint 32-node chains, so a source reaches a
// thousandth of it: for a present source and for one that occurs in no
// relation, on the cold-compiled artifact and on the flattened form of
// an Extend chain. The classifier's results and position table are
// sized by the reached set, so neither time, bytes nor allocs/op grow
// with the database: about 5 KB per present source, 0.4 KB per absent.
func BenchmarkChooseMethod(b *testing.B) {
	var base, delta []core.Pair
	for c := 0; c < 1024; c++ {
		for i := 0; i < 31; i++ {
			p := core.P(fmt.Sprintf("r%d_%d", c, i), fmt.Sprintf("r%d_%d", c, i+1))
			if c%8 == 7 {
				delta = append(delta, p)
			} else {
				base = append(base, p)
			}
		}
	}
	all := core.SameGeneration(append(append([]core.Pair(nil), base...), delta...), "r0_0")
	bq, dq := core.SameGeneration(base, "r0_0"), core.SameGeneration(delta, "r7_0")
	artifacts := []struct {
		name string
		c    *core.Compiled
	}{
		{"cold", core.Compile(all.L, all.E, all.R)},
		{"flattened", core.Compile(bq.L, bq.E, bq.R).Extend(dq.L, dq.E, dq.R).Flatten()},
	}
	for _, a := range artifacts {
		for _, src := range []struct{ name, source string }{{"present", "r7_0"}, {"absent", "in-no-relation"}} {
			b.Run(a.name+"/"+src.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if sel := a.c.ChooseMethod(src.source); sel.Regime != core.RegimeRegular {
						b.Fatalf("selected %+v, want the regular regime", sel)
					}
				}
			})
		}
	}
}

// appendLink is append i onto a same-generation tree: one fresh node
// below an existing one, the shape of a served 1-link append.
func appendLink(q core.Query, i int) (dL, dE, dR []core.Pair) {
	old, fresh := q.L[(i*7919)%len(q.L)].To, fmt.Sprintf("fresh%d", i)
	return []core.Pair{core.P(old, fresh)}, []core.Pair{core.P(fresh, fresh)}, []core.Pair{core.P(old, fresh)}
}

// BenchmarkExtend measures the delta compile of one 1-link append on
// same-generation trees of about 10k and about 100k facts, chained the
// way the serving layer chains them (the symbol tables folding
// themselves every 8 links) and restarted from the cold artifact every
// 256 appends so the database stays its size. B/op is the O(delta)
// claim: it must not grow with the database.
func BenchmarkExtend(b *testing.B) {
	for _, size := range []struct {
		name  string
		depth int
	}{{"10k-facts", 7}, {"100k-facts", 9}} {
		q := workload.Tree(3, size.depth)
		cold := core.Compile(q.L, q.E, q.R)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			c := cold
			for i := 0; i < b.N; i++ {
				if i%256 == 0 {
					c = cold
				}
				c = c.Extend(appendLink(q, i))
			}
		})
	}
}

// BenchmarkServerQuery measures the query service end to end: the
// cache-hit fast path and the full solve path (rotating sources defeat
// the cache).
func BenchmarkServerQuery(b *testing.B) {
	q := workload.Tree(2, 10)
	svc := server.New(server.Config{})
	if _, err := svc.AppendFacts(server.FactsRequest{L: q.L, E: q.E, R: q.R}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("hit", func(b *testing.B) {
		req := server.QueryRequest{Source: "t0", Strategy: "recurring", Mode: "integrated"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := server.QueryRequest{Source: fmt.Sprintf("t%d", i%1023), Strategy: "recurring", Mode: "integrated"}
			if _, err := svc.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
