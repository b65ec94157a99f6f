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
	"runtime"
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
	if st := s.Stats(); st.Queries != int64(len(bad))+1 {
		t.Fatalf("queries = %d, want %d", st.Queries, len(bad)+1)
	}
	checkAccounting(t, s)
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
		if _, err := validateQuery(tr, tc.source, tc.strategy, tc.mode); !errors.Is(err, ErrBadRequest) {
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
	if _, err := validateQuery(tr, "a", "single", "integrated"); err != nil {
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

// TestBatchSingletonParity sends one source list — a duplicate, a
// cached source, an unknown one, an empty one — as singletons to one
// service and as a batch to another, and requires the same counters of
// both: idle, with every slot held past the deadline (the cached source
// still hits, needing no slot; the rest time out), and closed.
func TestBatchSingletonParity(t *testing.T) {
	sources := []string{"p0_0", "p0_1", "p0_0", "nobody", "p0_2", ""}
	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	for name, tc := range map[string]struct {
		starve, close bool
		want          tally // p0_2 is primed first: one query, one miss
	}{
		"idle":    {want: tally{queries: 7, hits: 2, misses: 4, bad: 1, byMethod: 6, byRegime: 6, retrievalSamples: 6}},
		"starved": {starve: true, want: tally{queries: 7, hits: 1, misses: 1, errors: 4, timeouts: 4, bad: 1, byMethod: 2, byRegime: 2, retrievalSamples: 2}},
		"closed":  {close: true, want: tally{queries: 7, misses: 1, rejected: 6, byMethod: 1, byRegime: 1, retrievalSamples: 1}},
	} {
		for _, batch := range []bool{false, true} {
			s := New(Config{Workers: 1})
			genealogyFacts(t, s, 6, 4)
			ctx := context.Background()
			if _, err := s.Query(ctx, QueryRequest{Source: "p0_2"}); err != nil {
				t.Fatal(err)
			}
			if tc.starve {
				s.sem <- struct{}{}
				ctx = expired
			}
			if tc.close && s.Close(ctx) != nil {
				t.Fatal("Close failed")
			}
			if batch {
				s.QueryBatch(ctx, BatchRequest{Sources: sources})
			} else {
				for _, src := range sources {
					s.Query(ctx, QueryRequest{Source: src})
				}
			}
			if got := tallyOf(s); got != tc.want {
				t.Errorf("%s, batch=%v:\n got %+v\nwant %+v", name, batch, got, tc.want)
			}
			checkAccounting(t, s)
		}
	}
}

// TestBatchWorkersBounded holds every slot so a 512-miss batch stalls,
// on at most Workers goroutines; released, it solves every item.
func TestBatchWorkersBounded(t *testing.T) {
	s := New(Config{Workers: 2})
	sources := make([]string, 512)
	for i := range sources {
		sources[i] = fmt.Sprintf("n%d", i)
	}
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := s.QueryBatch(context.Background(), BatchRequest{Sources: sources})
		done <- err
	}()
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := runtime.NumGoroutine(); n > before+8 {
			t.Fatalf("%d goroutines during the batch, %d before it: want at most Workers more, not one per miss", n, before)
		}
	}
	<-s.sem
	<-s.sem
	if err := <-done; err != nil || s.Stats().CacheMisses != 512 {
		t.Fatalf("released batch: err %v, %d of 512 solved", err, s.Stats().CacheMisses)
	}
	checkAccounting(t, s)
}
