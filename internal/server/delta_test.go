package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/oracle"
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
	mustAppend(t, svc, bulkChain("base", 20)) // into the empty artifact: a cold build, counted as a delta compile
	for i := 0; i < 5; i++ {
		mustAppend(t, svc, chainFacts("delta", i))
	}
	if _, err := svc.Query(context.Background(), QueryRequest{Source: "delta_n0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	st := svc.Stats()
	if dc := st.DeltaCompile; dc.DeltaCompiles != 6 || dc.FullCompiles != 0 || dc.ChainDepth != 5 || st.Compiles != 6 {
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

// TestBulkAppendExtends: however large a share of the database an
// append adds — all of it, onto an empty service, or well over a
// quarter of it — the append rolls the shard it lands in with a delta
// Extend, never a cold build, and the result is the cold compile of
// the acknowledged facts, answering as the oracle does.
func TestBulkAppendExtends(t *testing.T) {
	var more FactsRequest // 15 links onto the 10-link chain: 45 facts onto 30
	for i := 10; i < 25; i++ {
		more = mergeFacts(more, chainFacts("bulk", i))
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := New(Config{Workers: 2, Shards: shards})
			defer svc.Close(context.Background())
			var m model
			for i, req := range []FactsRequest{bulkChain("bulk", 10), more} {
				mustAppend(t, svc, req)
				m.append(req)
				st := svc.Stats()
				if dc := st.DeltaCompile; dc.DeltaCompiles != int64(i+1) || dc.FullCompiles != 0 || st.Compiles != int64(i+1) {
					t.Fatalf("bulk append %d: compiles %d, %+v; want %d delta compiles and no full one", i, st.Compiles, dc, i+1)
				}
				if last := st.DeltaCompile.LastAppend; last.Find("delta-compile") == nil || last.Find("compile") != nil {
					t.Fatalf("bulk append %d: span %+v; want a delta-compile child and no compile", i, last)
				}
				art := svc.current()
				if err := art.ShardArtifact(art.ShardOf("bulk_n0")).StructuralEqual(core.Compile(m.l, m.e, m.r)); err != nil {
					t.Fatalf("bulk append %d: artifact diverges from a cold compile of the acknowledged facts: %v", i, err)
				}
				exact := oracle.Solver(arcs(m.l), arcs(m.e), arcs(m.r))
				for _, src := range []string{"bulk_n0", "bulk_n9", "bulk_n12", "bulk_n24"} {
					resp, err := svc.Query(context.Background(), QueryRequest{Source: src})
					if err != nil || resp.Generation != m.gen {
						t.Fatalf("bulk append %d: query %s: %+v, %v", i, src, resp, err)
					}
					if !reflect.DeepEqual(resp.Answers, nonNilAnswers(exact(src))) {
						t.Fatalf("bulk append %d: query %s: answers %v, oracle %v", i, src, resp.Answers, exact(src))
					}
				}
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
