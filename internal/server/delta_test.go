package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
)

// chainFacts builds the i-th link of a disjoint chain: one L arc, one
// identity E fact, one R arc — every batch commits something new.
func chainFacts(prefix string, i int) FactsRequest {
	node := func(j int) string { return fmt.Sprintf("%s_n%d", prefix, j) }
	return FactsRequest{
		L: []core.Pair{{From: node(i), To: node(i + 1)}},
		E: []core.Pair{{From: node(i), To: node(i)}},
		R: []core.Pair{{From: node(i), To: node(i + 1)}},
	}
}

// bulkChain is n links of one chain in a single request.
func bulkChain(prefix string, n int) FactsRequest {
	var req FactsRequest
	for i := 0; i < n; i++ {
		req = mergeFacts(req, chainFacts(prefix, i))
	}
	return req
}

// TestDeltaCompileOnAppend is the happy path: a small append rolls the
// artifact forward instead of rebuilding it — the chain depth grows,
// the stats block reports the delta builds, queries never compile, and
// the rolled artifact is structurally the cold compile of its facts.
func TestDeltaCompileOnAppend(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close(context.Background())
	mustAppend(t, svc, bulkChain("base", 20)) // into the empty artifact: one cold build
	for i := 0; i < 5; i++ {
		mustAppend(t, svc, chainFacts("delta", i))
	}
	if _, err := svc.Query(context.Background(), QueryRequest{Source: "delta_n0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	st := svc.Stats()
	if dc := st.DeltaCompile; dc.DeltaCompiles != 5 || dc.FullCompiles != 1 || dc.Fallbacks != 0 || dc.ChainDepth != 5 || st.Compiles != 6 {
		t.Fatalf("after 1 bulk + 5 small appends and a query: compiles %d, %+v", st.Compiles, dc)
	}
	if st.DeltaCompile.LastAppend.Find("delta-compile") == nil {
		t.Fatalf("last-append span missing its delta-compile child: %+v", st.DeltaCompile.LastAppend)
	}
	art := svc.current()
	if err := art.ShardArtifact(0).StructuralEqual(core.Compile(art.Facts())); err != nil {
		t.Fatalf("rolled artifact diverges from cold compile: %v", err)
	}
}

// TestDeltaFallback pins the two ways past the delta path: a delta
// above DeltaMaxFrac rebuilds its shard cold inside the append
// (fallback counted), and a negative DeltaMaxFrac makes every append
// do so (no fallback counted — there was no delta path to leave).
// Either way the published artifact is current.
func TestDeltaFallback(t *testing.T) {
	for _, tc := range []struct {
		name          string
		frac          float64
		next          FactsRequest
		fallbacks     int64
		wantFullBuild int64
	}{
		{"threshold", 0.05, bulkChain("bulk", 10), 1, 2}, // 30 facts onto 30: far above 5%
		{"disabled", -1, chainFacts("delta", 0), 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{Workers: 2, DeltaMaxFrac: tc.frac})
			defer svc.Close(context.Background())
			mustAppend(t, svc, bulkChain("base", 10))
			mustAppend(t, svc, tc.next)
			st := svc.Stats()
			if dc := st.DeltaCompile; dc.Fallbacks != tc.fallbacks || dc.DeltaCompiles != 0 || dc.FullCompiles != tc.wantFullBuild || dc.ChainDepth != 0 {
				t.Fatalf("delta-compile stats %+v; want %d fallbacks, 0 delta, %d full, depth 0", dc, tc.fallbacks, tc.wantFullBuild)
			}
			resp, err := svc.Query(context.Background(), QueryRequest{Source: tc.next.L[0].From})
			if err != nil || resp.Generation != 2 || len(resp.Answers) == 0 {
				t.Fatalf("query on the rebuilt artifact: %+v, %v", resp, err)
			}
		})
	}
}

// TestConcurrentAppendExtendQueryCheckpoint is the -race suite for
// the rolling artifact: concurrent appenders keep extending the
// compiled artifact while queriers solve on whatever generation they
// snapshot and a checkpointer persists it mid-roll. At the end the
// published artifact must be structurally equivalent to a cold
// compile of the final database, and a reopened service must answer
// identically.
func TestConcurrentAppendExtendQueryCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{
		Workers:       4,
		Fsync:         durable.FsyncNever,
		SnapshotEvery: 50,
	})
	if _, err := svc.Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}

	mustAppend(t, svc, bulkChain("seed", 10))

	const (
		appenders  = 2
		batchesPer = 50
		queriers   = 3
	)
	var wg sync.WaitGroup
	errc := make(chan error, appenders+queriers+1)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < batchesPer; i++ {
				if _, err := svc.AppendFacts(chainFacts(fmt.Sprintf("a%d", a), i)); err != nil {
					errc <- fmt.Errorf("appender %d: %w", a, err)
					return
				}
			}
		}(a)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				src := fmt.Sprintf("a%d_n%d", i%appenders, i%batchesPer)
				if _, err := svc.Query(context.Background(), QueryRequest{Source: src}); err != nil {
					errc <- fmt.Errorf("querier %d: %w", q, err)
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := svc.Checkpoint(); err != nil {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	art := svc.current()
	if want := uint64(1 + appenders*batchesPer); art.Generation != want {
		t.Fatalf("published artifact generation %d != %d", art.Generation, want)
	}
	cold := core.Compile(art.Facts())
	if err := art.ShardArtifact(0).StructuralEqual(cold); err != nil {
		t.Fatalf("final artifact diverges from cold compile: %v", err)
	}
	want, err := cold.Solve("a0_n0", core.Multiple, core.Integrated, core.Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	resp, err := svc.Query(context.Background(), QueryRequest{Source: "a0_n0", Strategy: "multiple", Mode: "integrated"})
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	if !reflect.DeepEqual(resp.Answers, want.Answers) {
		t.Fatalf("served answers diverge: %v != %v", resp.Answers, want.Answers)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The snapshot written mid-roll (possibly of an extended artifact)
	// must recover to the same answers.
	svc2 := New(Config{Workers: 2, Fsync: durable.FsyncNever})
	if _, err := svc2.Open(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close(context.Background())
	resp2, err := svc2.Query(context.Background(), QueryRequest{Source: "a0_n0", Strategy: "multiple", Mode: "integrated"})
	if err != nil {
		t.Fatalf("recovered query: %v", err)
	}
	if !reflect.DeepEqual(resp2.Answers, want.Answers) {
		t.Fatalf("recovered answers diverge: %v != %v", resp2.Answers, want.Answers)
	}
}
