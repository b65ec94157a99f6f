package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/oracle"
	"magiccounting/internal/workload"
)

// modelRegion is the i-th seeded region: a random instance of one of
// the four regimes, every symbol prefixed so regions share nothing.
func modelRegion(i int) (FactsRequest, string) {
	kinds := []workload.RegimeKind{workload.KindRegular, workload.KindCyclicRegular, workload.KindMultiple, workload.KindRecurring}
	q := workload.RandomRegime(kinds[i%len(kinds)], int64(40+i), 2)
	ren := func(ps []core.Pair) []core.Pair {
		out := make([]core.Pair, len(ps))
		for j, p := range ps {
			out[j] = core.P(fmt.Sprintf("g%d:%s", i, p.From), fmt.Sprintf("g%d:%s", i, p.To))
		}
		return dedupPairs(out)
	}
	return FactsRequest{L: ren(q.L), E: ren(q.E), R: ren(q.R)}, fmt.Sprintf("g%d:%s", i, q.Source)
}

func mergeFacts(reqs ...FactsRequest) FactsRequest {
	var out FactsRequest
	for _, r := range reqs {
		out.L, out.E, out.R = append(out.L, r.L...), append(out.E, r.E...), append(out.R, r.R...)
	}
	return out
}

// model is the trivial database the service is checked against: the
// committed facts in commit order, nothing else.
type model struct {
	l, e, r []core.Pair
	gen     uint64
}

func (m *model) append(req FactsRequest) {
	m.l, m.e, m.r = append(m.l, req.L...), append(m.e, req.E...), append(m.r, req.R...)
	m.gen++
}

func arcs(ps []core.Pair) []oracle.Arc {
	out := make([]oracle.Arc, len(ps))
	for i, p := range ps {
		out[i] = oracle.Arc{From: p.From, To: p.To}
	}
	return out
}

// TestServiceModel drives one seeded stream of appends, re-POSTs,
// checkpoints and restarts through a durable service and, after each
// step, asks the same singleton, auto and batch queries. Every answer
// must equal the Fact-2 oracle's and every (answers, core.Stats,
// method) triple a direct core.Compile(...).Solve over the model's
// facts, whatever mix of delta extends, bridging appends, adopted
// snapshots and replayed tails produced the artifact.
func TestServiceModel(t *testing.T) {
	var regions []FactsRequest
	var sources []string
	for i := 0; i < 6; i++ {
		req, src := modelRegion(i)
		regions, sources = append(regions, req), append(sources, src)
	}
	sources = append(sources, "absent-from-everything")
	load := mergeFacts(regions[:5]...)
	loaded := len(load.L) + len(load.E) + len(load.R)
	var bulk FactsRequest // onto region 2, larger than everything loaded before it
	for i := 0; i < loaded/2; i++ {
		bulk = mergeFacts(bulk, chainFacts("bulk", i))
	}
	bulk.L = append(bulk.L, core.P(sources[2], "bulk_n0"))
	steps := []struct {
		name string
		op   string // append | repost (must change nothing) | checkpoint | crash | restart
		req  FactsRequest
	}{
		{"bulk-load", "append", load},
		{"small-append", "append", FactsRequest{L: []core.Pair{core.P(sources[0], "s0")}, E: []core.Pair{core.P("s0", "s0")}}},
		{"repost", "repost", mergeFacts(regions[1], regions[3])},
		// One link onto region 3 and a fresh region, in one append.
		{"extend-and-fresh", "append", FactsRequest{L: []core.Pair{core.P(sources[3], "w0"), core.P("w1", "w2")}}},
		{"bulk-into-region", "append", bulk},
		{"fresh-region", "append", regions[5]},
		{"bridge", "append", FactsRequest{L: []core.Pair{core.P(sources[0], sources[1])}}},
		{"checkpoint", "checkpoint", FactsRequest{}},
		{"tail-append", "append", chainFacts("tail", 0)},
		{"crash-with-tail", "crash", FactsRequest{}},
		{"repost-recovered", "repost", mergeFacts(regions[0], chainFacts("tail", 0))},
		{"append-recovered", "append", chainFacts("tail", 1)},
		{"restart-no-tail", "restart", FactsRequest{}},
		{"append-adopted", "append", chainFacts("tail", 2)},
	}

	// Config.Shards is deprecated and ignored: every value must serve
	// the one artifact and answer with the same transcript.
	var transcripts [][]string
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Workers: 4, Shards: shards, Fsync: durable.FsyncNever}
			dir := t.TempDir()
			open := func() (*Service, *durable.RecoveryInfo) {
				svc := New(cfg)
				info, err := svc.Open(dir)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				return svc, info
			}
			svc, _ := open()
			defer func() { svc.Close(context.Background()) }()
			var m model
			var transcript []string
			for _, st := range steps {
				before := svc.Stats().DeltaCompile
				switch st.op {
				case "append", "repost":
					resp, err := svc.AppendFacts(st.req)
					if err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
					added := resp.AddedL + resp.AddedE + resp.AddedR
					if st.op == "append" {
						m.append(st.req)
						if want := len(st.req.L) + len(st.req.E) + len(st.req.R); added != want {
							t.Fatalf("%s: added %d facts, want %d", st.name, added, want)
						}
					} else if added != 0 {
						t.Fatalf("%s: re-POST of held facts added %d", st.name, added)
					}
					if resp.Generation != m.gen {
						t.Fatalf("%s: generation %d, model %d", st.name, resp.Generation, m.gen)
					}
				case "checkpoint":
					if err := svc.Checkpoint(); err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
				case "crash": // abandoned without Close: the tail is in the WAL only
					var info *durable.RecoveryInfo
					if svc, info = open(); info.ReplayedRecords == 0 {
						t.Fatalf("%s: no records replayed", st.name)
					}
					// Recovery adopts the snapshot's artifact and extends it by the
					// tail: one delta compile, no cold one, and the result compiles
					// exactly the facts acknowledged before the crash.
					s := svc.Stats()
					if s.Compiles != 1 || s.DeltaCompile.DeltaCompiles != 1 || svc.RecoverySpan().Find("delta-compile") == nil || svc.RecoverySpan().Find("compile") != nil {
						t.Fatalf("%s: recovery did not extend the snapshot artifact by the tail: %d compiles, %+v", st.name, s.Compiles, s.DeltaCompile)
					}
					if err := svc.current().StructuralEqual(core.Compile(m.l, m.e, m.r)); err != nil {
						t.Fatalf("%s: recovered artifact: %v", st.name, err)
					}
				case "restart": // Close snapshots; Open adopts that artifact uncompiled
					if err := svc.Close(context.Background()); err != nil {
						t.Fatalf("%s: Close: %v", st.name, err)
					}
					var info *durable.RecoveryInfo
					svc, info = open()
					if got := svc.Stats().Compiles; info.ReplayedRecords != 0 || got != 0 {
						t.Fatalf("%s: %d records replayed, %d compiles at Open (want 0, 0)", st.name, info.ReplayedRecords, got)
					}
				}
				transcript = append(transcript, checkAgainstModel(t, st.name, svc, &m, sources)...)

				s := svc.Stats()
				switch st.name {
				case "small-append", "extend-and-fresh", "bridge":
					if s.DeltaCompile.DeltaCompiles != before.DeltaCompiles+1 || s.DeltaCompile.LastAppend.Find("delta-compile") == nil {
						t.Fatalf("%s: the append was not one delta compile: before %+v, after %+v", st.name, before, s.DeltaCompile)
					}
				case "repost":
					if resp, err := svc.Query(context.Background(), QueryRequest{Source: sources[0]}); err != nil || !resp.Cached {
						t.Fatalf("re-POST purged the cache: cached=%v err=%v", resp != nil && resp.Cached, err)
					}
				case "bulk-into-region":
					last := s.DeltaCompile.LastAppend
					if s.DeltaCompile.DeltaCompiles != before.DeltaCompiles+1 || s.DeltaCompile.FullCompiles != 0 || last.Find("delta-compile") == nil || last.Find("compile") != nil {
						t.Fatalf("bulk append was not one delta compile: before %+v, after %+v", before, s.DeltaCompile)
					}
				}
				if s.Shards != nil {
					t.Fatalf("%s: stats carry a shards block", st.name)
				}
				if s.Generation != m.gen || s.FactsL != len(m.l) || s.FactsE != len(m.e) || s.FactsR != len(m.r) {
					t.Fatalf("%s: service at gen %d with %d/%d/%d facts, model at %d with %d/%d/%d",
						st.name, s.Generation, s.FactsL, s.FactsE, s.FactsR, m.gen, len(m.l), len(m.e), len(m.r))
				}
				if s.Compiles != s.DeltaCompile.FullCompiles+s.DeltaCompile.DeltaCompiles || s.DeltaCompile.ChainDepth > 8 {
					t.Fatalf("%s: compile accounting broken or chain unbounded: %d compiles, %+v", st.name, s.Compiles, s.DeltaCompile)
				}
				checkAccounting(t, svc)
			}
			transcripts = append(transcripts, transcript)
		})
	}
	for i := 1; i < len(transcripts); i++ {
		if !reflect.DeepEqual(transcripts[0], transcripts[i]) {
			t.Fatalf("transcript %d differs from the first", i)
		}
	}
}

// checkAgainstModel asks the fixed query set, checks every answer
// against the oracle and a direct solve over the model's facts, and
// returns what was answered, one line per query.
func checkAgainstModel(t *testing.T, step string, svc *Service, m *model, sources []string) []string {
	t.Helper()
	cold := core.Compile(m.l, m.e, m.r)
	exact := oracle.Solver(arcs(m.l), arcs(m.e), arcs(m.r))
	var out []string
	same := func(label, src string, answers []string, stats core.Stats, strategy, mode string, want *core.Result, ws core.Strategy, wm core.Mode) {
		t.Helper()
		if !reflect.DeepEqual(answers, nonNilAnswers(exact(src))) {
			t.Fatalf("%s %s %s: answers %v, oracle %v", step, label, src, answers, exact(src))
		}
		if !reflect.DeepEqual(answers, nonNilAnswers(want.Answers)) || stats != want.Stats || strategy != ws.String() || mode != wm.String() {
			t.Fatalf("%s %s %s: %v %+v %s/%s, direct solve %v %+v %v/%v",
				step, label, src, answers, stats, strategy, mode, want.Answers, want.Stats, ws, wm)
		}
		out = append(out, fmt.Sprintf("%s %s %s %s/%s %v %+v", step, label, src, strategy, mode, answers, stats))
	}

	// The batch goes first, under a method nothing else uses, so its
	// items are solved on the batch path rather than served from cache.
	batch, err := svc.QueryBatch(context.Background(), BatchRequest{Sources: sources, Strategy: "single", Mode: "independent"})
	if err != nil || batch.Generation != m.gen {
		t.Fatalf("%s batch: generation %d (model %d), err %v", step, batch.Generation, m.gen, err)
	}
	for i, src := range sources {
		want, err := cold.Solve(src, core.Single, core.Independent, core.Options{})
		if err != nil || batch.Items[i].Error != "" {
			t.Fatalf("%s batch %s: %v / %s", step, src, err, batch.Items[i].Error)
		}
		it := batch.Items[i]
		same("batch", src, it.Answers, it.Stats, it.Strategy, it.Mode, want, core.Single, core.Independent)
	}
	for _, src := range sources {
		for _, method := range []struct{ strategy, mode string }{{"", ""}, {"multiple", "integrated"}, {"basic", "independent"}} {
			resp, err := svc.Query(context.Background(), QueryRequest{Source: src, Strategy: method.strategy, Mode: method.mode})
			if err != nil || resp.Generation != m.gen {
				t.Fatalf("%s query %s %v: generation %d (model %d), err %v", step, src, method, resp.Generation, m.gen, err)
			}
			var want *core.Result
			var sel core.Selection
			if method.strategy == "" {
				want, sel, err = cold.SolveAuto(src, core.Options{})
				if resp.Regime != sel.Regime.String() {
					t.Fatalf("%s query %s: regime %s, direct %v", step, src, resp.Regime, sel.Regime)
				}
			} else {
				sel.Strategy, _ = ParseStrategy(method.strategy)
				sel.Mode, _ = ParseMode(method.mode)
				want, err = cold.Solve(src, sel.Strategy, sel.Mode, core.Options{})
			}
			if err != nil {
				t.Fatalf("%s direct solve %s: %v", step, src, err)
			}
			same("query", src, resp.Answers, resp.Stats, resp.Strategy, resp.Mode, want, sel.Strategy, sel.Mode)
		}
	}
	return out
}

// tally is every per-query counter account maintains, read back the
// way a scraper would: Stats plus the sums of the labeled families.
type tally struct {
	queries, hits, misses, errors, timeouts, rejected, bad int64
	byMethod, byRegime, retrievalSamples                   int64
}

func tallyOf(svc *Service) tally {
	st := svc.Stats()
	c := tally{queries: st.Queries, hits: st.CacheHits, misses: st.CacheMisses, errors: st.QueryErrors,
		timeouts: st.QueryTimeouts, rejected: st.QueriesRejected, bad: st.BadRequests}
	for _, k := range svc.byMethod.order {
		c.byMethod += svc.byMethod.get(k)
	}
	for _, k := range svc.byRegime.order {
		c.byRegime += svc.byRegime.get(k)
	}
	_, c.retrievalSamples, _ = svc.retHist.snapshot()
	return c
}

// checkAccounting asserts the soak invariants: each query received ends
// in one outcome counter, each answered one in byMethod and retHist.
func checkAccounting(t *testing.T, svc *Service) {
	t.Helper()
	c := tallyOf(svc)
	answered := c.hits + c.misses
	if answered+c.errors+c.rejected+c.bad != c.queries || c.timeouts > c.errors ||
		c.byMethod != answered || c.retrievalSamples != answered || c.byRegime > answered {
		t.Fatalf("accounting does not close: %+v", c)
	}
}
