package server

// Regression tests for the serving-path bugs the soak harness's
// metric invariants flushed out: InFlight sticking at all-workers-busy
// after Close, validation failures polluting the latency window and
// error counter, the leaked validate span, and whole-batch wall-time
// samples inflating the singleton percentiles.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/obs"
)

// TestInFlightReturnsToZero asserts the in-flight gauge counts solves
// holding a worker slot, not channel occupancy: it must read zero on
// an idle service, zero again after concurrent traffic drains, and —
// the regression — zero after Close fills the pool to drain it (the
// old len(sem) implementation permanently read all-workers-busy).
func TestInFlightReturnsToZero(t *testing.T) {
	s := New(Config{Workers: 4})
	if _, err := s.AppendFacts(FactsRequest{Parent: []core.Pair{core.P("a", "b"), core.P("b", "c")}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().InFlight; got != 0 {
		t.Fatalf("idle InFlight = %d, want 0", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(context.Background(), QueryRequest{Source: "a"}); err != nil {
				t.Errorf("query: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().InFlight; got != 0 {
		t.Fatalf("post-traffic InFlight = %d, want 0", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().InFlight; got != 0 {
		t.Fatalf("post-Close InFlight = %d, want 0 (drained pool must not read busy)", got)
	}
}

// TestBadRequestsExcludedFromLatency asserts validation failures land
// in their own counter and leave the latency window untouched, so a
// client sending garbage cannot drag p50 toward microseconds.
func TestBadRequestsExcludedFromLatency(t *testing.T) {
	s := New(Config{Workers: 2})
	bad := []QueryRequest{
		{Source: ""},
		{Source: "a", Strategy: "bogus"},
		{Source: "a", Strategy: "single", Mode: "bogus"},
		{Source: "a", Mode: "integrated"}, // mode without strategy
	}
	for _, req := range bad {
		if _, err := s.Query(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("query %+v: err = %v, want ErrBadRequest", req, err)
		}
	}
	st := s.Stats()
	if st.BadRequests != int64(len(bad)) {
		t.Fatalf("BadRequests = %d, want %d", st.BadRequests, len(bad))
	}
	if st.QueryErrors != 0 {
		t.Fatalf("QueryErrors = %d, want 0 (validation failures are not query errors)", st.QueryErrors)
	}
	if _, count, _ := s.latHist.snapshot(); count != 0 {
		t.Fatalf("latency histogram has %d samples after bad requests, want 0", count)
	}

	// A real query still records one sample.
	if _, err := s.AppendFacts(FactsRequest{Parent: []core.Pair{core.P("a", "b")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), QueryRequest{Source: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, count, _ := s.latHist.snapshot(); count != 1 {
		t.Fatalf("latency histogram has %d samples after one good query, want 1", count)
	}
	if st := s.Stats(); st.Queries != int64(len(bad))+1 ||
		st.CacheHits+st.CacheMisses+st.QueryErrors+st.QueriesRejected+st.BadRequests != st.Queries {
		t.Fatalf("query accounting does not close: %+v", st)
	}
}

// TestValidateSpanClosedOnError asserts the validate span is ended on
// every exit path: after a failed validation, the next span started on
// the same trace must be a sibling of "validate", not its child (the
// leak left validate open, corrupting the rest of the tree).
func TestValidateSpanClosedOnError(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		source, strategy, mode string
	}{
		{"empty source", "", "", ""},
		{"unknown strategy", "a", "bogus", ""},
		{"unknown mode", "a", "single", "bogus"},
		{"mode without strategy", "a", "", "integrated"},
	} {
		tr := obs.New("query", 0)
		if _, _, _, err := validateQuery(tr, tc.source, tc.strategy, tc.mode); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
		next := tr.Start("next", 0)
		tr.End(next, 0)
		root := tr.Finish(0)
		if n := len(root.Children); n != 2 {
			t.Fatalf("%s: root has %d children, want 2 (validate, next): %+v", tc.name, n, root)
		}
		if root.Children[0].Name != "validate" || len(root.Children[0].Children) != 0 {
			t.Fatalf("%s: validate span not closed cleanly: %+v", tc.name, root.Children[0])
		}
		if root.Children[1].Name != "next" {
			t.Fatalf("%s: next span nested under a leaked validate: %+v", tc.name, root)
		}
	}

	// The success path keeps the same shape: validate is a closed leaf.
	tr := obs.New("query", 0)
	if _, _, _, err := validateQuery(tr, "a", "single", "integrated"); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish(0)
	if len(root.Children) != 1 || root.Children[0].Name != "validate" {
		t.Fatalf("success path trace shape wrong: %+v", root)
	}
}

// TestAcquireSpanClosedOnError asserts the acquire span does not leak
// on the deadline path either (same bug class as validate).
func TestAcquireSpanClosedOnError(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.AppendFacts(FactsRequest{Parent: []core.Pair{core.P("a", "b")}}); err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot so the traced query times out waiting.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	_, err := s.Query(context.Background(), QueryRequest{Source: "a", TimeoutM: 20, Trace: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestBatchLatencySeparateFromQueries asserts whole-batch wall time is
// recorded into its own ring and histogram, never the singleton query
// window: one 64-item batch must leave the query histogram empty.
func TestBatchLatencySeparateFromQueries(t *testing.T) {
	s := New(Config{Workers: 4})
	var parent []core.Pair
	for i := 0; i < 64; i++ {
		parent = append(parent, core.P("root", fmt.Sprintf("n%d", i)))
	}
	if _, err := s.AppendFacts(FactsRequest{Parent: parent}); err != nil {
		t.Fatal(err)
	}
	sources := make([]string, 0, 64)
	for _, p := range parent {
		sources = append(sources, p.To)
	}
	if _, err := s.QueryBatch(context.Background(), BatchRequest{Sources: sources}); err != nil {
		t.Fatal(err)
	}
	if _, count, _ := s.latHist.snapshot(); count != 0 {
		t.Fatalf("query histogram has %d samples after a batch, want 0", count)
	}
	if _, count, _ := s.batchHist.snapshot(); count != 1 {
		t.Fatalf("batch histogram has %d samples, want 1", count)
	}
	st := s.Stats()
	if st.BatchLatencyP99MS <= 0 {
		t.Fatalf("batch p99 = %v, want > 0", st.BatchLatencyP99MS)
	}
	if st.LatencyP99MS != 0 {
		t.Fatalf("singleton p99 = %v after batch-only traffic, want 0", st.LatencyP99MS)
	}

	// A singleton query lands in the query histogram, not the batch one.
	if _, err := s.Query(context.Background(), QueryRequest{Source: "root"}); err != nil {
		t.Fatal(err)
	}
	if _, count, _ := s.latHist.snapshot(); count != 1 {
		t.Fatalf("query histogram has %d samples after one query, want 1", count)
	}
	if _, count, _ := s.batchHist.snapshot(); count != 1 {
		t.Fatalf("batch histogram has %d samples after one query, want 1", count)
	}
}

// TestBatchAccountingCloses asserts the per-item counters partition
// mc_queries_total exactly, duplicates and empty sources included:
// queries == hits + misses + errors + rejected + bad.
func TestBatchAccountingCloses(t *testing.T) {
	s := New(Config{Workers: 4})
	if _, err := s.AppendFacts(FactsRequest{Parent: []core.Pair{core.P("a", "b"), core.P("b", "c")}}); err != nil {
		t.Fatal(err)
	}
	// a solves, the duplicate a folds (counted as a hit), "" is a bad
	// request, b solves.
	resp, err := s.QueryBatch(context.Background(), BatchRequest{Sources: []string{"a", "a", "", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(resp.Items))
	}
	if !resp.Items[1].Cached {
		t.Fatalf("folded duplicate not reported cached: %+v", resp.Items[1])
	}
	st := s.Stats()
	if st.Queries != 4 {
		t.Fatalf("Queries = %d, want 4", st.Queries)
	}
	checkAccounting(t, s)
	if st.BadRequests != 1 {
		t.Fatalf("BadRequests = %d, want 1 (empty batch item)", st.BadRequests)
	}

	// A batch refused by a closed service is len(Sources) rejected
	// queries: the old path counted one rejection and no queries.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryBatch(context.Background(), BatchRequest{Sources: []string{"a", "b", "c"}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch on a closed service: %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Queries != 7 || st.QueriesRejected != 3 {
		t.Fatalf("after a rejected 3-item batch: queries=%d rejected=%d, want 7 and 3", st.Queries, st.QueriesRejected)
	}
	checkAccounting(t, s)
}
