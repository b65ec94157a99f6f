package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

func postJSON(t *testing.T, client *http.Client, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return v
}

// TestEndToEnd is the serving-layer acceptance flow: load facts, see
// the second identical query hit the cache with zero new retrievals,
// see a facts append invalidate it, and see a tight deadline cancel a
// heavy query promptly.
func TestEndToEnd(t *testing.T) {
	ts := httptest.NewServer(NewHandler(New(Config{Workers: 4})))
	defer ts.Close()
	c := ts.Client()

	// Same-generation chain ann -> bob -> cat, plus a cousin branch.
	resp, body := postJSON(t, c, ts.URL+"/v1/facts",
		`{"parent": [{"from":"ann","to":"bob"}, {"from":"bob","to":"cat"}, {"from":"amy","to":"bob"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts: status %d: %s", resp.StatusCode, body)
	}
	facts := decode[FactsResponse](t, body)
	if facts.Generation != 1 {
		t.Fatalf("generation = %d, want 1", facts.Generation)
	}

	// First query: a miss that runs a solver.
	resp, body = postJSON(t, c, ts.URL+"/v1/query", `{"source": "ann"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	first := decode[QueryResponse](t, body)
	if first.Cached {
		t.Fatalf("first query reported a cache hit: %+v", first)
	}
	if first.NewRetrievals == 0 || first.NewRetrievals != first.Stats.Retrievals {
		t.Fatalf("first query retrievals: new=%d stats=%d", first.NewRetrievals, first.Stats.Retrievals)
	}
	if !first.Auto || first.Regime == "" {
		t.Fatalf("expected auto selection with a regime, got %+v", first)
	}
	// ann and amy share a generation (both parents of bob via the SG
	// identity encoding).
	want := []string{"amy", "ann"}
	if fmt.Sprint(first.Answers) != fmt.Sprint(want) {
		t.Fatalf("answers = %v, want %v", first.Answers, want)
	}

	// Second identical query: cache hit, zero new retrievals.
	_, body = postJSON(t, c, ts.URL+"/v1/query", `{"source": "ann"}`)
	second := decode[QueryResponse](t, body)
	if !second.Cached || second.NewRetrievals != 0 {
		t.Fatalf("second query: cached=%v new_retrievals=%d, want hit with 0", second.Cached, second.NewRetrievals)
	}
	if fmt.Sprint(second.Answers) != fmt.Sprint(first.Answers) {
		t.Fatalf("cached answers %v != original %v", second.Answers, first.Answers)
	}

	// A facts append bumps the generation; the same query misses and
	// sees the new data.
	postJSON(t, c, ts.URL+"/v1/facts", `{"parent": [{"from":"zoe","to":"bob"}]}`)
	_, body = postJSON(t, c, ts.URL+"/v1/query", `{"source": "ann"}`)
	third := decode[QueryResponse](t, body)
	if third.Cached {
		t.Fatalf("query after append still cached: %+v", third)
	}
	if third.Generation != 2 {
		t.Fatalf("generation = %d, want 2", third.Generation)
	}
	want = []string{"amy", "ann", "zoe"}
	if fmt.Sprint(third.Answers) != fmt.Sprint(want) {
		t.Fatalf("answers after append = %v, want %v", third.Answers, want)
	}

	// Explicit strategy and mode are honored verbatim.
	_, body = postJSON(t, c, ts.URL+"/v1/query", `{"source": "ann", "strategy": "multiple", "mode": "independent"}`)
	explicit := decode[QueryResponse](t, body)
	if explicit.Auto || explicit.Strategy != "multiple" || explicit.Mode != "independent" {
		t.Fatalf("explicit method not honored: %+v", explicit)
	}

	// Stats and metrics reflect the traffic.
	resp, body = postJSON(t, c, ts.URL+"/v1/query", `{"source": ""}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source: status %d, want 400", resp.StatusCode)
	}
	getResp, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := func() Stats {
		defer getResp.Body.Close()
		var st Stats
		if err := json.NewDecoder(getResp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}()
	if stats.CacheHits != 1 || stats.CacheMisses != 3 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/3", stats.CacheHits, stats.CacheMisses)
	}
	// The empty-source 400 is a bad request, not a query error: it
	// lands in its own counter and stays out of the latency window.
	if stats.QueryErrors != 0 || stats.BadRequests != 1 || stats.Generation != 2 {
		t.Fatalf("stats errors/bad/generation = %d/%d/%d, want 0/1/2",
			stats.QueryErrors, stats.BadRequests, stats.Generation)
	}
	health, err := c.Get(ts.URL + "/healthz")
	if err != nil || health.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, health)
	}
	health.Body.Close()
	metrics, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(metrics.Body)
	metrics.Body.Close()
	for _, want := range []string{"mc_queries_total", "mc_cache_hits_total 1", "mc_generation 2", `mc_query_latency_seconds{quantile="0.99"}`} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, mbuf.String())
		}
	}
}

// TestQueryTimeoutCancelsMidFixpoint loads a cyclic graph large
// enough that even the auto-selected recurring/SCC method needs
// hundreds of thousands of retrievals (well over 100ms of wall time)
// and asserts a 1ms deadline aborts
// the solve with a deadline error long before completion.
func TestQueryTimeoutCancelsMidFixpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	var facts FactsRequest
	const n = 30000
	for i := 0; i < n; i++ {
		facts.Parent = append(facts.Parent, core.Pair{
			From: fmt.Sprintf("v%d", i),
			To:   fmt.Sprintf("v%d", (i+1)%n),
		})
	}
	if _, err := s.AppendFacts(facts); err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	_, err := s.Query(context.Background(), QueryRequest{Source: "v0", TimeoutM: 1})
	elapsed := time.Since(started)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Prompt: orders of magnitude under the seconds a full run takes.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if st := s.Stats(); st.QueryTimeouts != 1 || st.QueryErrors != 1 || st.CacheMisses != 0 {
		t.Fatalf("timeouts = %d, errors = %d, misses = %d; want 1, 1, 0 (a failed solve is an error, not also a miss)",
			st.QueryTimeouts, st.QueryErrors, st.CacheMisses)
	}
	checkAccounting(t, s)

	// The HTTP layer maps the overrun to 504.
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"source": "v0", "timeout_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// TestConcurrentQueriesAndAppends hammers queries against fact
// appends. Each append adds exactly one E fact reaching a fresh
// answer, so at generation g the answer set of source "a" has exactly
// g members: any response where len(Answers) != Generation is a stale
// cache hit (or a torn snapshot), and the race detector checks the
// copy-on-write discipline underneath.
func TestConcurrentQueriesAndAppends(t *testing.T) {
	s := New(Config{Workers: 8})
	const appends = 60
	var wg sync.WaitGroup
	var stop atomic.Bool
	var hits atomic.Int64

	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 1; g <= appends; g++ {
			_, err := s.AppendFacts(FactsRequest{E: []core.Pair{{From: "a", To: fmt.Sprintf("y%03d", g)}}})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			strategies := []string{"", "basic", "multiple", "recurring"}
			for i := 0; !stop.Load(); i++ {
				resp, err := s.Query(context.Background(), QueryRequest{
					Source:   "a",
					Strategy: strategies[(w+i)%len(strategies)],
				})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(resp.Answers) != int(resp.Generation) {
					t.Errorf("stale result: %d answers at generation %d (cached=%v)",
						len(resp.Answers), resp.Generation, resp.Cached)
					return
				}
				if resp.Cached {
					hits.Add(1)
					if resp.NewRetrievals != 0 {
						t.Errorf("cache hit with %d new retrievals", resp.NewRetrievals)
						return
					}
				}
			}
		}(w)
	}
	// Let queries overlap the append storm, then wind down.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Quiesced: the same query twice must now hit the final generation.
	r1, err := s.Query(context.Background(), QueryRequest{Source: "a"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Query(context.Background(), QueryRequest{Source: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Generation != appends || len(r2.Answers) != appends || !r2.Cached {
		t.Fatalf("after quiesce: gen=%d answers=%d cached=%v, want %d/%d/true",
			r1.Generation, len(r2.Answers), r2.Cached, appends, appends)
	}
}

func TestParseErrors(t *testing.T) {
	s := New(Config{})
	cases := []QueryRequest{
		{Source: "a", Strategy: "bogus"},
		{Source: "a", Strategy: "basic", Mode: "bogus"},
		{Source: "a", Mode: "integrated"}, // mode without strategy
		{Source: ""},
	}
	for _, req := range cases {
		if _, err := s.Query(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Query(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
	if _, err := s.AppendFacts(FactsRequest{L: []core.Pair{{From: "a"}}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("AppendFacts with empty endpoint: err = %v, want ErrBadRequest", err)
	}
}

func TestCacheEviction(t *testing.T) {
	s := New(Config{CacheCap: 2})
	if _, err := s.AppendFacts(FactsRequest{E: []core.Pair{{From: "a", To: "x"}, {From: "b", To: "y"}, {From: "c", To: "z"}}}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"a", "b", "c"} {
		if _, err := s.Query(context.Background(), QueryRequest{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheEntries > 2 {
		t.Fatalf("cache entries = %d, want <= 2", st.CacheEntries)
	}
}
