package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 3}, {0.99, 5}, {0.01, 1}, {1.0, 5},
	}
	for _, tc := range cases {
		if got := Percentile(samples, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	// The input must not be reordered.
	if samples[0] != 5 {
		t.Errorf("Percentile sorted its input in place: %v", samples)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP mc_queries_total Queries received.
# TYPE mc_queries_total counter
mc_queries_total 42

mc_query_duration_seconds_bucket{le="0.001"} 7
mc_queries_by_regime_total{regime="acyclic"} 3
mc_query_latency_seconds_sum 1.25
`
	m, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mc_queries_total": 42,
		`mc_query_duration_seconds_bucket{le="0.001"}`: 7,
		`mc_queries_by_regime_total{regime="acyclic"}`: 3,
		"mc_query_latency_seconds_sum":                 1.25,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("metric %s = %v, want %v", k, m[k], v)
		}
	}
	if _, err := ParseMetrics(strings.NewReader("garbage_line_without_value\n")); err == nil {
		t.Error("malformed line did not error")
	}
}

// consistentMetrics is a scrape satisfying every invariant.
func consistentMetrics() map[string]float64 {
	return map[string]float64{
		"mc_compiles_total":               10,
		"mc_full_compiles_total":          4,
		"mc_delta_compiles_total":         6,
		"mc_queries_total":                100,
		"mc_cache_hits_total":             60,
		"mc_cache_misses_total":           30,
		"mc_query_errors_total":           3,
		"mc_queries_rejected_total":       0,
		"mc_bad_requests_total":           7,
		"mc_query_timeouts_total":         1,
		"mc_query_duration_seconds_count": 93,
		"mc_batch_duration_seconds_count": 5,
		"mc_batch_requests_total":         5,
		"mc_inflight_queries":             0,
		"mc_snapshot_failures_total":      0,
		"mc_query_retrievals_count":       90,
		`mc_queries_by_method_total{strategy="basic",mode="integrated"}`:     50,
		`mc_queries_by_method_total{strategy="recurring",mode="integrated"}`: 40,
		`mc_queries_by_regime_total{regime="acyclic"}`:                       70,
	}
}

func TestCheckInvariantsHold(t *testing.T) {
	if v := CheckInvariants(consistentMetrics()); len(v) != 0 {
		t.Fatalf("consistent scrape reported violations: %v", v)
	}
}

func TestCheckInvariantsCatchSkew(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(map[string]float64)
	}{
		{"compile partition", func(m map[string]float64) { m["mc_delta_compiles_total"]++ }},
		{"query accounting", func(m map[string]float64) { m["mc_bad_requests_total"]-- }},
		{"a hit missing from the method family", func(m map[string]float64) {
			m[`mc_queries_by_method_total{strategy="basic",mode="integrated"}`]--
		}},
		{"regime family above answered", func(m map[string]float64) { m[`mc_queries_by_regime_total{regime="acyclic"}`] = 91 }},
		{"a hit missing from the retrievals histogram", func(m map[string]float64) { m["mc_query_retrievals_count"]-- }},
		{"timeouts above errors", func(m map[string]float64) { m["mc_query_timeouts_total"] = 4 }},
		{"latency samples above queries", func(m map[string]float64) { m["mc_query_duration_seconds_count"] = 101 }},
		{"batch samples above batches", func(m map[string]float64) { m["mc_batch_duration_seconds_count"] = 6 }},
		{"stuck inflight", func(m map[string]float64) { m["mc_inflight_queries"] = 2 }},
		{"snapshot failure", func(m map[string]float64) { m["mc_snapshot_failures_total"] = 1 }},
	}
	for _, tc := range cases {
		m := consistentMetrics()
		tc.mutate(m)
		if v := CheckInvariants(m); len(v) != 1 {
			t.Errorf("%s: got %d violations %v, want exactly 1", tc.name, len(v), v)
		}
	}
}

func TestCheckInvariantsReportMissingMetric(t *testing.T) {
	m := consistentMetrics()
	delete(m, "mc_compiles_total")
	v := CheckInvariants(m)
	if len(v) != 1 || !strings.Contains(v[0], "metric missing") || !strings.Contains(v[0], "mc_compiles_total") {
		t.Fatalf("missing metric not reported as such: %v", v)
	}
	// A labeled family with no series at all is missing too, not zero.
	m = consistentMetrics()
	delete(m, `mc_queries_by_regime_total{regime="acyclic"}`)
	v = CheckInvariants(m)
	if len(v) != 1 || !strings.Contains(v[0], "metric missing") || !strings.Contains(v[0], "mc_queries_by_regime_total") {
		t.Fatalf("missing family not reported as such: %v", v)
	}
}

func TestEvaluateSLO(t *testing.T) {
	report := func() *SoakReport {
		return &SoakReport{
			Classes: map[string]*ClassStats{
				"query": MakeClassStats([]float64{1, 2, 3, 40}, map[int]int{200: 4}),
				"batch": MakeClassStats([]float64{10, 20}, map[int]int{200: 2}),
			},
		}
	}

	r := report()
	r.Evaluate(DefaultSLO())
	if !r.Pass || len(r.SLOViolations) != 0 {
		t.Fatalf("clean run failed default SLO: %v", r.SLOViolations)
	}

	// A tight p99 ceiling trips on the slow tail.
	r = report()
	r.Evaluate(SLOSpec{Classes: map[string]ClassSLO{"query": {P99MS: 10}}})
	if r.Pass || len(r.SLOViolations) != 1 || !strings.Contains(r.SLOViolations[0], "query p99") {
		t.Fatalf("p99 ceiling not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}

	// A class the run never exercised is not a violation.
	r = report()
	r.Evaluate(SLOSpec{Classes: map[string]ClassSLO{"append": {P50MS: 1}}})
	if !r.Pass {
		t.Fatalf("absent class tripped its ceiling: %v", r.SLOViolations)
	}

	// Divergences, unexpected statuses, and invariant violations fail
	// at their (zero) default ceilings.
	r = report()
	r.Oracle.Divergences = 1
	r.UnexpectedStatuses = []string{"op 9 query: status 500"}
	r.InvariantViolations = []string{"compiles == full + delta: off by one"}
	r.Evaluate(DefaultSLO())
	if r.Pass || len(r.SLOViolations) != 3 {
		t.Fatalf("hard failures not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}
}

func TestSoakReportRoundTrip(t *testing.T) {
	r := &SoakReport{
		Seed: 42, DurationSeconds: 3, TargetQPS: 100, AchievedQPS: 98.5, Ops: 300,
		Classes: map[string]*ClassStats{
			"query": MakeClassStats([]float64{1, 2}, map[int]int{200: 2}),
		},
		Oracle: OracleCheck{Generations: 4, Sources: 20},
	}
	r.Evaluate(DefaultSLO())
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed": 42`, `"pass": true`, `"p50_ms"`, `"200": 2`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON report missing %s:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	r.Summary(&buf)
	out := buf.String()
	for _, want := range []string{"PASS", "query", "oracle: 20 sources over 4 generations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// memSamples builds n evenly spaced samples whose heap follows f(i).
func memSamples(n int, heap func(i int) int64) []MemorySample {
	out := make([]MemorySample, n)
	for i := range out {
		out[i] = MemorySample{
			ElapsedSeconds: float64(i),
			HeapInuseBytes: heap(i),
			CompiledBytes:  1 << 20,
		}
	}
	return out
}

func TestMakeMemoryCheck(t *testing.T) {
	// Flat heap: mid and late watermarks agree.
	mc := MakeMemoryCheck(memSamples(16, func(int) int64 { return 100 }))
	if mc.Samples != 16 || mc.HeapMidBytes != 100 || mc.HeapLateBytes != 100 {
		t.Fatalf("flat heap folded wrong: %+v", mc)
	}
	if mc.CompiledMaxBytes != 1<<20 {
		t.Fatalf("compiled maximum wrong: %+v", mc)
	}
	// Monotone growth: late watermark well above mid.
	mc = MakeMemoryCheck(memSamples(16, func(i int) int64 { return int64(100 * (i + 1)) }))
	if mc.HeapLateBytes <= mc.HeapMidBytes {
		t.Fatalf("growing heap not detected: mid=%d late=%d", mc.HeapMidBytes, mc.HeapLateBytes)
	}
	// Too few samples for watermarks: maxima still folded.
	mc = MakeMemoryCheck(memSamples(4, func(int) int64 { return 100 }))
	if mc.Samples != 4 || mc.HeapMidBytes != 0 || mc.HeapLateBytes != 0 {
		t.Fatalf("short run should skip watermarks: %+v", mc)
	}
	if mc.CompiledMaxBytes != 1<<20 {
		t.Fatalf("short run lost the compiled max: %+v", mc)
	}
}

func TestEvaluateMemoryAndRecoverySLO(t *testing.T) {
	base := func() *SoakReport {
		return &SoakReport{Classes: map[string]*ClassStats{}}
	}

	// Flat heap passes the growth rule.
	r := base()
	r.Memory = MakeMemoryCheck(memSamples(16, func(int) int64 { return 1 << 20 }))
	r.Evaluate(SLOSpec{MaxHeapGrowthFrac: 0.25})
	if !r.Pass {
		t.Fatalf("flat heap failed the growth rule: %v", r.SLOViolations)
	}

	// Monotone growth trips it.
	r = base()
	r.Memory = MakeMemoryCheck(memSamples(16, func(i int) int64 { return int64((i + 1) << 20) }))
	r.Evaluate(SLOSpec{MaxHeapGrowthFrac: 0.25})
	if r.Pass || len(r.SLOViolations) != 1 || !strings.Contains(r.SLOViolations[0], "heap watermark grew") {
		t.Fatalf("heap growth not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}

	// An armed heap rule with no samples is a violation, not a pass.
	r = base()
	r.Evaluate(SLOSpec{MaxHeapGrowthFrac: 0.25})
	if r.Pass || len(r.SLOViolations) != 1 || !strings.Contains(r.SLOViolations[0], "no usable memory samples") {
		t.Fatalf("missing samples not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}

	// Compiled-bytes ceiling.
	r = base()
	r.Memory = MakeMemoryCheck(memSamples(16, func(int) int64 { return 1 << 20 }))
	r.Evaluate(SLOSpec{MaxCompiledBytes: 1 << 10})
	if r.Pass || len(r.SLOViolations) != 1 || !strings.Contains(r.SLOViolations[0], "compiled-artifact estimate") {
		t.Fatalf("compiled ceiling not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}

	// Recovery floor and boundary failures.
	r = base()
	r.Recoveries = 1
	r.Evaluate(SLOSpec{MinRecoveries: 2})
	if r.Pass || len(r.SLOViolations) != 1 || !strings.Contains(r.SLOViolations[0], "recoveries below") {
		t.Fatalf("recovery floor not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}
	r = base()
	r.Recoveries = 2
	r.RecoveryFailures = []string{"restart 1: generation went backwards"}
	r.Evaluate(SLOSpec{MinRecoveries: 2})
	if r.Pass || len(r.SLOViolations) != 1 || !strings.Contains(r.SLOViolations[0], "recovery failure") {
		t.Fatalf("boundary failure not enforced: pass=%v %v", r.Pass, r.SLOViolations)
	}
	r = base()
	r.Recoveries = 2
	r.Evaluate(SLOSpec{MinRecoveries: 2})
	if !r.Pass {
		t.Fatalf("satisfied recovery spec failed: %v", r.SLOViolations)
	}
}
