package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/obs"
)

// genealogyFacts loads the example genealogy shape: gens generations
// of width-wide same-generation families plus one corruption back arc
// making the instance cyclic (so auto selection picks recurring).
func genealogyFacts(t *testing.T, s *Service, gens, width int) {
	t.Helper()
	name := func(g, i int) string { return fmt.Sprintf("p%d_%d", g, i) }
	var req FactsRequest
	for g := 0; g < gens; g++ {
		for i := 0; i < width; i++ {
			req.Parent = append(req.Parent, core.Pair{From: name(g, i), To: name(g+1, (i+g)%width)})
		}
	}
	req.Parent = append(req.Parent, core.Pair{From: name(4, 0), To: name(1, 0)})
	if _, err := s.AppendFacts(req); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTraceShape is the serving-layer acceptance invariant: a
// traced query returns a span tree whose per-stage retrievals sum
// exactly to the meter the response reports, untraced queries carry
// no tree, and a traced cache hit reports a zero-retrieval tree.
func TestQueryTraceShape(t *testing.T) {
	s := New(Config{Workers: 2})
	genealogyFacts(t, s, 6, 4)

	plain, err := s.Query(context.Background(), QueryRequest{Source: "p0_0"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced query returned a trace: %+v", plain.Trace)
	}

	genealogyFacts(t, s, 7, 4) // bump the generation so the next query misses
	traced, err := s.Query(context.Background(), QueryRequest{Source: "p0_0", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	root := traced.Trace
	if root == nil {
		t.Fatal("traced query returned no trace")
	}
	if traced.Cached {
		t.Fatalf("expected a miss after the generation bump: %+v", traced)
	}
	if got, want := root.SumRetrievals(), traced.Stats.Retrievals; got != want {
		t.Errorf("span retrievals sum to %d, Result meter says %d", got, want)
	}
	if root.Total != traced.NewRetrievals {
		t.Errorf("root total %d != new_retrievals %d", root.Total, traced.NewRetrievals)
	}
	// A miss: plan (validate, cache), then execute's three stages — and
	// no compile: the artifact is built by appends and Open only.
	stages := func(root *obs.Span) (names []string) {
		for _, c := range root.Children {
			names = append(names, c.Name)
		}
		return names
	}
	if got, want := stages(root), []string{"validate", "cache", "acquire", "classify/" + traced.Regime, "solve"}; !reflect.DeepEqual(got, want) {
		t.Errorf("miss stages %v, want %v", got, want)
	}
	if root.Find("step2/integrated") == nil {
		t.Errorf("trace missing the solver's own spans")
	}
	if cs := root.Find("cache"); cs == nil || cs.Attrs["hit"] != 0 {
		t.Errorf("cache span should record a miss: %+v", cs)
	}

	// Traced hit: same query again, spans but zero retrievals.
	hit, err := s.Query(context.Background(), QueryRequest{Source: "p0_0", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Trace == nil {
		t.Fatalf("expected traced cache hit, got cached=%v trace=%v", hit.Cached, hit.Trace)
	}
	if hit.Trace.Total != 0 || hit.Trace.SumRetrievals() != 0 {
		t.Errorf("cache-hit trace charged retrievals: total=%d", hit.Trace.Total)
	}
	if cs := hit.Trace.Find("cache"); cs == nil || cs.Attrs["hit"] != 1 {
		t.Errorf("hit span should record hit=1: %+v", cs)
	}
	if got, want := stages(hit.Trace), []string{"validate", "cache"}; !reflect.DeepEqual(got, want) {
		t.Errorf("hit stages %v, want %v (a hit takes no slot)", got, want)
	}
	if st := s.Stats(); st.TracedQueries != 2 {
		t.Errorf("traced_queries = %d, want 2", st.TracedQueries)
	}

	// Through HTTP: the tree marshals and the sum survives the trip.
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	genealogyFacts(t, s, 8, 4)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"source": "p0_0", "trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query over HTTP: status %d: %s", resp.StatusCode, body)
	}
	wire := decode[QueryResponse](t, body)
	if wire.Trace == nil {
		t.Fatalf("no trace over HTTP: %s", body)
	}
	if got, want := wire.Trace.SumRetrievals(), wire.Stats.Retrievals; got != want {
		t.Errorf("wire trace sums to %d, stats say %d", got, want)
	}
}

// expositionLine matches one sample line of the Prometheus text
// format: name, optional {labels}, and a value token (validated by
// ParseFloat below, which accepts the format's scientific notation
// and +Inf).
var expositionLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// TestMetricsExposition is the golden-format test for /metrics: every
// line parses, every family declares HELP and TYPE before its
// samples, the latency summary carries _sum and _count, and both
// histograms are internally consistent (cumulative buckets, +Inf
// bucket equal to _count).
func TestMetricsExposition(t *testing.T) {
	s := New(Config{Workers: 2})
	genealogyFacts(t, s, 6, 4)
	for _, req := range []QueryRequest{
		{Source: "p0_0"},
		{Source: "p0_0"}, // hit
		{Source: "p0_1", Strategy: "basic", Mode: "independent"},
		{Source: "missing-node"},
	} {
		if _, err := s.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	declared := map[string]string{} // family -> type
	values := map[string]float64{}  // full series (name+labels) -> value
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			declared[parts[2]] = parts[3]
			continue
		}
		m := expositionLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(family, suffix)
			if declared[base] == "histogram" || declared[base] == "summary" {
				family = base
				break
			}
		}
		if _, ok := declared[family]; !ok {
			t.Errorf("series %q has no TYPE declaration", m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[m[1]+m[2]] = v
	}

	if declared["mc_query_latency_seconds"] != "summary" {
		t.Fatalf("mc_query_latency_seconds declared as %q", declared["mc_query_latency_seconds"])
	}
	// The satellite bug: the summary previously lacked _sum and _count.
	sum, okSum := values["mc_query_latency_seconds_sum"]
	count, okCount := values["mc_query_latency_seconds_count"]
	if !okSum || !okCount {
		t.Fatalf("summary missing _sum (%v) or _count (%v):\n%s", okSum, okCount, text)
	}
	if count != 4 || sum <= 0 {
		t.Errorf("summary count=%v sum=%v, want count 4 and positive sum", count, sum)
	}

	for _, hist := range []string{"mc_query_duration_seconds", "mc_query_retrievals"} {
		if declared[hist] != "histogram" {
			t.Fatalf("%s declared as %q", hist, declared[hist])
		}
		buckets := 0
		for series := range values {
			if strings.HasPrefix(series, hist+"_bucket") {
				buckets++
			}
		}
		if buckets < 2 {
			t.Fatalf("%s has %d buckets", hist, buckets)
		}
		inf, ok := values[hist+`_bucket{le="+Inf"}`]
		if !ok {
			t.Fatalf("%s missing +Inf bucket", hist)
		}
		if c := values[hist+"_count"]; c != inf {
			t.Errorf("%s: +Inf bucket %v != count %v", hist, inf, c)
		}
		if c := values[hist+"_count"]; c != 4 {
			t.Errorf("%s count = %v, want 4", hist, c)
		}
	}

	// Method and regime counters reflect the traffic: two auto queries
	// resolved plus one explicit basic/independent.
	if v := values[`mc_queries_by_method_total{strategy="basic",mode="independent"}`]; v != 1 {
		t.Errorf("basic/independent counter = %v, want 1", v)
	}
	var regimeTotal, methodTotal float64
	for series, v := range values {
		if strings.HasPrefix(series, "mc_queries_by_regime_total") {
			regimeTotal += v
		}
		if strings.HasPrefix(series, "mc_queries_by_method_total") {
			methodTotal += v
		}
	}
	if methodTotal != 4 {
		t.Errorf("method counters sum to %v, want 4 (every successful query)", methodTotal)
	}
	if regimeTotal != 3 {
		t.Errorf("regime counters sum to %v, want 3 (the auto queries)", regimeTotal)
	}
}

// TestHistogramGolden pins the exposition rendering of the histogram
// primitive byte-for-byte.
func TestHistogramGolden(t *testing.T) {
	h := newHistogram(1, 2, 5)
	for _, v := range []float64{0.5, 2, 10} {
		h.observe(v)
	}
	var buf bytes.Buffer
	if err := h.write(&buf, "t_metric", "Help text."); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_metric Help text.
# TYPE t_metric histogram
t_metric_bucket{le="1"} 1
t_metric_bucket{le="2"} 2
t_metric_bucket{le="5"} 2
t_metric_bucket{le="+Inf"} 3
t_metric_sum 12.5
t_metric_count 3
`
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}

	// Quantiles interpolate inside the bucket holding the rank: empty
	// reads 0, one full bucket, +Inf clamps to the last bound, p0 skips
	// empty buckets, then p50 and p99 of a known distribution.
	known := []float64{0.5, 0.5, 1.5, 1.5, 3, 3, 3, 3, 3, 9}
	for _, tc := range []struct {
		samples []float64
		p, want float64
	}{{nil, 0.99, 0}, {[]float64{1.5, 1.5}, 0.5, 1.5}, {[]float64{7, 8, 9}, 0.5, 5}, {[]float64{3}, 0, 2}, {known, 0.5, 2.6}, {known, 0.99, 5}} {
		h := newHistogram(1, 2, 5)
		for _, v := range tc.samples {
			h.observe(v)
		}
		if got := h.quantile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) of %v = %v, want %v", tc.p, tc.samples, got, tc.want)
		}
	}
}

// TestCachePurgeOnGenerationBump is the stale-cache regression test:
// after an append bumps the generation, mc_cache_entries (and
// Stats.CacheEntries behind it) must report only live entries — dead
// generations are purged eagerly, not left to eviction.
func TestCachePurgeOnGenerationBump(t *testing.T) {
	s := New(Config{})
	genealogyFacts(t, s, 4, 3)
	for _, src := range []string{"p0_0", "p0_1", "p0_2"} {
		if _, err := s.Query(context.Background(), QueryRequest{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheEntries != 3 {
		t.Fatalf("cache entries = %d, want 3", st.CacheEntries)
	}
	if _, err := s.AppendFacts(FactsRequest{E: []core.Pair{{From: "solo", To: "solo"}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Errorf("cache entries after generation bump = %d, want 0 (stale entries must be purged)", st.CacheEntries)
	}
	if _, err := s.Query(context.Background(), QueryRequest{Source: "p0_0"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 1 {
		t.Errorf("cache entries after requery = %d, want 1", st.CacheEntries)
	}
}

// TestServiceClose: Close drains the pool after in-flight queries
// finish, later queries fail fast with ErrClosed, and the HTTP layer
// maps that to 503.
func TestServiceClose(t *testing.T) {
	s := New(Config{Workers: 2})
	genealogyFacts(t, s, 4, 3)
	if _, err := s.Query(context.Background(), QueryRequest{Source: "p0_0"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Query(context.Background(), QueryRequest{Source: "p0_0"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close: err = %v, want ErrClosed", err)
	}
	// Shutdown fast-fails count as rejections, not errors, and leave
	// the latency window untouched — retries during a deploy must not
	// skew either metric.
	if st := s.Stats(); st.QueriesRejected != 1 || st.QueryErrors != 0 {
		t.Errorf("rejected/errors after Close = %d/%d, want 1/0", st.QueriesRejected, st.QueryErrors)
	}

	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"source": "p0_0"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

// TestCloseWaitsForInFlight: Close blocks until a running solve
// releases its worker slot.
func TestCloseWaitsForInFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	genealogyFacts(t, s, 6, 4)
	release := make(chan struct{})
	done := make(chan struct{})
	s.sem <- struct{}{} // occupy the only slot, standing in for a long solve
	go func() {
		<-release
		<-s.sem
	}()
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a slot was still held")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the slot was released")
	}
}

// TestShardedMetricsExposition: one artifact serves every query, so
// /metrics exposes no region-shard series, whatever the deprecated
// Config.Shards asks for.
func TestShardedMetricsExposition(t *testing.T) {
	for _, shards := range []int{0, 2} {
		svc := New(Config{Workers: 2, Shards: shards})
		for _, prefix := range []string{"g0", "g1"} { // two regions
			for i := 0; i < 3; i++ {
				mustAppend(t, svc, chainFacts(prefix, i))
			}
		}
		if _, err := svc.Query(context.Background(), QueryRequest{Source: "g0_n0"}); err != nil {
			t.Fatalf("Shards=%d: query: %v", shards, err)
		}
		var buf strings.Builder
		if err := svc.WriteMetrics(&buf); err != nil {
			t.Fatalf("Shards=%d: WriteMetrics: %v", shards, err)
		}
		svc.Close(context.Background())
		for _, retired := range []string{"mc_shard", "collapse"} {
			if strings.Contains(buf.String(), retired) {
				t.Fatalf("Shards=%d: /metrics exposes the retired %s series:\n%s", shards, retired, buf.String())
			}
		}
	}
}
