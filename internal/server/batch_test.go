package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magiccounting/internal/core"
)

// TestQueryBatch covers the batch endpoint at the Service layer:
// answers match singleton queries, one compile serves the whole batch,
// duplicates fold onto their first occurrence, per-item errors leave
// the rest intact, and a re-batch hits the cache throughout.
func TestQueryBatch(t *testing.T) {
	s := New(Config{Workers: 4})
	genealogyFacts(t, s, 6, 4)

	sources := []string{"p0_0", "p0_1", "p0_0", "", "p0_2"}
	resp, err := s.QueryBatch(context.Background(), BatchRequest{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != len(sources) {
		t.Fatalf("items = %d, want %d", len(resp.Items), len(sources))
	}
	for i, src := range sources {
		if resp.Items[i].Source != src {
			t.Errorf("item %d source = %q, want %q", i, resp.Items[i].Source, src)
		}
	}
	if resp.Items[3].Error == "" {
		t.Errorf("empty source item carried no error: %+v", resp.Items[3])
	}
	for _, i := range []int{0, 1, 4} {
		it := resp.Items[i]
		if it.Error != "" || it.Cached || it.NewRetrievals == 0 {
			t.Errorf("item %d = %+v, want solved fresh", i, it)
		}
		single, err := s.Query(context.Background(), QueryRequest{Source: it.Source})
		if err != nil {
			t.Fatal(err)
		}
		if !single.Cached {
			t.Errorf("singleton re-query of %q missed the cache the batch filled", it.Source)
		}
		if strings.Join(single.Answers, ",") != strings.Join(it.Answers, ",") {
			t.Errorf("item %d answers %v != singleton answers %v", i, it.Answers, single.Answers)
		}
	}
	// The duplicate folds onto item 0's outcome, reported as cached.
	dup := resp.Items[2]
	if !dup.Cached || dup.NewRetrievals != 0 || dup.Error != "" {
		t.Errorf("duplicate item = %+v, want cached fold of item 0", dup)
	}
	if strings.Join(dup.Answers, ",") != strings.Join(resp.Items[0].Answers, ",") {
		t.Errorf("duplicate answers %v != first occurrence %v", dup.Answers, resp.Items[0].Answers)
	}

	// One compile amortized the batch and the singleton re-queries.
	if st := s.Stats(); st.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (one build per generation)", st.Compiles)
	}
	if st := s.Stats(); st.BatchRequests != 1 {
		t.Errorf("batch_requests = %d, want 1", st.BatchRequests)
	}

	// Re-batch: everything hits, nothing recompiles.
	again, err := s.QueryBatch(context.Background(), BatchRequest{Sources: []string{"p0_0", "p0_1", "p0_2"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range again.Items {
		if !it.Cached || it.NewRetrievals != 0 || it.Error != "" {
			t.Errorf("re-batch item %d = %+v, want cache hit", i, it)
		}
	}
	if st := s.Stats(); st.Compiles != 1 {
		t.Errorf("compiles after re-batch = %d, want still 1", st.Compiles)
	}

	// Explicit method batches validate once and cache under the
	// method's own key.
	basic, err := s.QueryBatch(context.Background(), BatchRequest{Sources: []string{"p0_0"}, Strategy: "basic", Mode: "independent"})
	if err != nil {
		t.Fatal(err)
	}
	if it := basic.Items[0]; it.Strategy != "basic" || it.Mode != "independent" || it.Cached {
		t.Errorf("explicit-method item = %+v, want fresh basic/independent", it)
	}

	// Request-level validation errors fail the whole batch.
	for _, bad := range []BatchRequest{
		{},
		{Sources: []string{"p0_0"}, Strategy: "bogus"},
		{Sources: []string{"p0_0"}, Mode: "integrated"},
		{Sources: make([]string, maxBatchSources+1)},
	} {
		if _, err := s.QueryBatch(context.Background(), bad); err == nil {
			t.Errorf("QueryBatch(%+v) succeeded, want ErrBadRequest", bad)
		}
	}
}

// TestQueryBatchHTTP drives the endpoint through the HTTP layer: the
// route exists, items marshal with non-null answers, and request-level
// errors map to 400.
func TestQueryBatchHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	genealogyFacts(t, s, 5, 3)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query/batch",
		`{"sources": ["p0_0", "p0_1", "missing-node"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	wire := decode[BatchResponse](t, body)
	if len(wire.Items) != 3 {
		t.Fatalf("items = %d, want 3: %s", len(wire.Items), body)
	}
	for i, it := range wire.Items {
		if it.Answers == nil {
			t.Errorf("item %d has nil answers: %s", i, body)
		}
		if it.Error != "" {
			t.Errorf("item %d errored: %s", i, it.Error)
		}
	}
	// A source absent from the database still answers (empty set).
	if len(wire.Items[2].Answers) != 0 {
		t.Errorf("missing-node answers = %v, want empty", wire.Items[2].Answers)
	}

	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", `{"sources": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query/batch", `{"sources": ["a"], "strategy": "bogus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus strategy: status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentBatchesAndAppends races batches, singleton queries,
// and fact appends. Every batch evaluates one snapshot: all its
// successful items must agree with the generation it reports (the same
// len(Answers) == Generation invariant the singleton test pins), and
// the race detector checks the compiled-artifact publication and the
// cache bookkeeping underneath.
func TestConcurrentBatchesAndAppends(t *testing.T) {
	s := New(Config{Workers: 8})
	const appends = 40
	var wg sync.WaitGroup
	var stop atomic.Bool

	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 1; g <= appends; g++ {
			if _, err := s.AppendFacts(FactsRequest{E: []core.Pair{{From: "a", To: fmt.Sprintf("y%03d", g)}}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if w%2 == 0 {
					resp, err := s.QueryBatch(context.Background(), BatchRequest{Sources: []string{"a", "a", "b"}})
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for j, it := range resp.Items[:2] {
						if it.Error != "" {
							t.Errorf("batch item %d: %s", j, it.Error)
							return
						}
						if len(it.Answers) != int(resp.Generation) {
							t.Errorf("stale batch item: %d answers at generation %d (cached=%v)",
								len(it.Answers), resp.Generation, it.Cached)
							return
						}
					}
				} else {
					resp, err := s.Query(context.Background(), QueryRequest{Source: "a"})
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if len(resp.Answers) != int(resp.Generation) {
						t.Errorf("stale result: %d answers at generation %d", len(resp.Answers), resp.Generation)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Quiesced: one more batch sees the final generation everywhere.
	resp, err := s.QueryBatch(context.Background(), BatchRequest{Sources: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Generation != appends || len(resp.Items[0].Answers) != appends {
		t.Fatalf("after quiesce: gen=%d answers=%d, want %d/%d",
			resp.Generation, len(resp.Items[0].Answers), appends, appends)
	}
}
