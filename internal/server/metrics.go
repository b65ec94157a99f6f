package server

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
)

// heapSamples name the runtime/metrics series whose sum is HeapInuse:
// spans holding live objects plus the unused tails of those spans —
// the watermark that stays flat when the process is memory-bounded
// and climbs monotonically when an artifact chain (or anything else)
// leaks.
var heapSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

// heapInuseBytes reads the heap-in-use watermark. A fresh sample
// slice per call keeps it safe for concurrent scrapers.
func heapInuseBytes() int64 {
	samples := make([]metrics.Sample, len(heapSamples))
	for i, name := range heapSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var total int64
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			total += int64(s.Value.Uint64())
		}
	}
	return total
}

// histogram is a fixed-bucket Prometheus histogram: lock-free atomic
// bucket counters plus a CAS-maintained float sum. bounds are the
// bucket upper limits in ascending order; the +Inf bucket is
// implicit. Observations, sum, and count are monotone, which is all
// the exposition format requires.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one value.
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. the le bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot returns cumulative bucket counts aligned with bounds (plus
// +Inf), the total count, and the sum.
func (h *histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// quantile estimates the p-th (0..1) quantile of everything observed
// since start, the way histogram_quantile does: find the bucket holding
// that rank and interpolate linearly inside it. Samples past the last
// bound clamp to it; an empty histogram reads 0. It never ages: a
// recent window is histogram_quantile over rate() of the buckets.
func (h *histogram) quantile(p float64) float64 {
	cum, _, _ := h.snapshot()
	rank := p * float64(cum[len(cum)-1])
	i := sort.Search(len(cum), func(i int) bool { return cum[i] > 0 && float64(cum[i]) >= rank })
	switch {
	case i == len(cum):
		return 0
	case i == len(h.bounds):
		return h.bounds[i-1]
	}
	lo, below := 0.0, int64(0)
	if i > 0 {
		lo, below = h.bounds[i-1], cum[i-1]
	}
	return lo + (h.bounds[i]-lo)*(rank-float64(below))/float64(cum[i]-below)
}

// quantileMS is quantile for a histogram of seconds, in milliseconds
// rounded to the microsecond.
func (h *histogram) quantileMS(p float64) float64 {
	return math.Round(h.quantile(p)*1e6) / 1e3
}

// write emits the histogram in the text exposition format.
func (h *histogram) write(w io.Writer, name, help string) error {
	cum, count, sum := h.snapshot()
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	for i, b := range h.bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1]); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, sum, name, count)
	return err
}

// latencyBuckets are the mc_query_duration_seconds bucket bounds:
// half-millisecond floor (cache hits land there) up to the 30 s
// default timeout ceiling.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// retrievalBuckets are the mc_query_retrievals bucket bounds: decades
// from 10 (a trivial solve) to 10^8 (far past any sane per-query
// budget). Cache hits observe 0 and land below the first bound.
var retrievalBuckets = []float64{10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// fsyncBuckets are the mc_wal_fsync_seconds bucket bounds: from the
// ~100µs of a battery-backed write cache through the ~10ms of a
// spinning disk to a 1s ceiling that only a saturated device hits.
var fsyncBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}

// snapshotBuckets are the mc_snapshot_seconds bucket bounds: a
// snapshot serializes the whole database, so the range runs from
// milliseconds (small instances) to a 60s ceiling.
var snapshotBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// deltaCompileBuckets are the mc_delta_compile_seconds bucket bounds:
// a delta extend is O(nodes) slice headers plus O(delta) work, so the
// bulk of observations sit in the tens of microseconds; the upper
// bounds exist to catch a threshold misconfiguration letting huge
// deltas through.
var deltaCompileBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 2.5}

// labeledCounters is a fixed-key family of counters: the key space is
// closed (the eight strategy/mode combinations, the three regimes),
// so the map is built once and increments are lock-free.
type labeledCounters struct {
	order  []string
	counts map[string]*atomic.Int64
}

func newLabeledCounters(keys ...string) *labeledCounters {
	lc := &labeledCounters{order: keys, counts: make(map[string]*atomic.Int64, len(keys))}
	for _, k := range keys {
		lc.counts[k] = &atomic.Int64{}
	}
	return lc
}

// inc bumps the counter for key; unknown keys (which would indicate a
// bug — the key spaces are validated upstream) are dropped rather
// than raced in.
func (lc *labeledCounters) inc(key string) {
	if c, ok := lc.counts[key]; ok {
		c.Add(1)
	}
}

func (lc *labeledCounters) get(key string) int64 {
	if c, ok := lc.counts[key]; ok {
		return c.Load()
	}
	return 0
}

// WriteMetrics writes the service counters in the Prometheus text
// exposition format: plain counters and gauges, the per-method and
// per-regime counter families, the latency summary (histogram-estimated
// quantiles plus the _sum/_count series strict scrapers require), and
// the latency and retrievals-per-query histograms.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	type metric struct {
		name, help string
		value      any
	}
	counters := []metric{
		{"mc_queries_total", "Queries received (batch items counted individually).", st.Queries},
		{"mc_batch_requests_total", "Batch query requests received.", st.BatchRequests},
		{"mc_compiles_total", "Compiled query-graph builds, full or delta (never on the query path).", st.Compiles},
		{"mc_full_compiles_total", "Cold builds of the artifact at start-up, when recovery has no snapshot artifact to extend.", st.DeltaCompile.FullCompiles},
		{"mc_delta_compiles_total", "Delta Extend builds rolling the artifact across an append or a recovered WAL tail.", st.DeltaCompile.DeltaCompiles},
		{"mc_queries_rejected_total", "Queries fast-failed with ErrClosed during shutdown (excluded from errors and latency).", st.QueriesRejected},
		{"mc_bad_requests_total", "Queries rejected by validation (excluded from errors and latency).", st.BadRequests},
		{"mc_cache_hits_total", "Queries answered from the result cache.", st.CacheHits},
		{"mc_cache_misses_total", "Queries that ran a solver.", st.CacheMisses},
		{"mc_query_errors_total", "Queries that returned an error.", st.QueryErrors},
		{"mc_query_timeouts_total", "Queries cancelled by deadline.", st.QueryTimeouts},
		{"mc_fact_appends_total", "Fact-append requests handled.", st.FactAppends},
		{"mc_tuple_retrievals_total", "Tuple retrievals charged by solver runs.", st.TupleRetrievals},
		{"mc_traced_queries_total", "Queries that requested a trace.", st.TracedQueries},
		{"mc_generation", "Current database generation.", st.Generation},
		{"mc_cache_entries", "Live result-cache entries.", st.CacheEntries},
		{"mc_inflight_queries", "Queries currently holding a worker slot.", st.InFlight},
		{"mc_facts_l", "Facts in the L relation.", st.FactsL},
		{"mc_facts_e", "Facts in the E relation.", st.FactsE},
		{"mc_facts_r", "Facts in the R relation.", st.FactsR},
		{"mc_wal_appends_total", "Fact batches write-ahead logged.", st.WALAppends},
		{"mc_snapshots_total", "Snapshots written (checkpoints).", st.Snapshots},
		{"mc_snapshot_failures_total", "Background checkpoints that failed.", st.SnapshotFailures},
		{"mc_recovery_replayed_records", "WAL records replayed by the last recovery.", st.RecoveryReplayedRecords},
		{"mc_compiled_bytes", "ResidentBytes estimate of the live compiled artifact.", st.Memory.CompiledBytes},
		{"mc_heap_inuse_bytes", "Runtime heap in use (spans holding live objects).", st.Memory.HeapInuseBytes},
	}
	for _, c := range counters {
		kind := "gauge"
		if strings.HasSuffix(c.name, "_total") {
			kind = "counter"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", c.name, c.help, c.name, kind, c.name, c.value); err != nil {
			return err
		}
	}

	// Per-method and per-regime counter families. Every series of the
	// closed key space is emitted, zeros included, so dashboards see a
	// stable set.
	if _, err := fmt.Fprintf(w, "# HELP mc_queries_by_method_total Successful queries by the method actually run.\n# TYPE mc_queries_by_method_total counter\n"); err != nil {
		return err
	}
	for _, key := range s.byMethod.order {
		strategy, mode, _ := strings.Cut(key, "|")
		if _, err := fmt.Fprintf(w, "mc_queries_by_method_total{strategy=%q,mode=%q} %d\n", strategy, mode, s.byMethod.get(key)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP mc_queries_by_regime_total Auto-selected queries by detected Figure-3 regime.\n# TYPE mc_queries_by_regime_total counter\n"); err != nil {
		return err
	}
	for _, key := range s.byRegime.order {
		if _, err := fmt.Fprintf(w, "mc_queries_by_regime_total{regime=%q} %d\n", key, s.byRegime.get(key)); err != nil {
			return err
		}
	}

	// Latency summary: since-start quantile estimates from the query
	// histogram's buckets. A summary must expose _sum and _count beside
	// its quantiles — their absence is what strict scrapers rejected in
	// the old hand-rolled exposition; they are the histogram's totals.
	_, count, sum := s.latHist.snapshot()
	if _, err := fmt.Fprintf(w, "# HELP mc_query_latency_seconds Query latency quantiles since start, estimated from the mc_query_duration_seconds buckets.\n# TYPE mc_query_latency_seconds summary\n"+
		"mc_query_latency_seconds{quantile=\"0.5\"} %g\nmc_query_latency_seconds{quantile=\"0.99\"} %g\nmc_query_latency_seconds_sum %g\nmc_query_latency_seconds_count %d\n",
		st.LatencyP50MS/1000, st.LatencyP99MS/1000, sum, count); err != nil {
		return err
	}

	if err := s.latHist.write(w, "mc_query_duration_seconds", "Singleton query latency histogram (batches observe mc_batch_duration_seconds)."); err != nil {
		return err
	}
	if err := s.batchHist.write(w, "mc_batch_duration_seconds", "Whole-batch request latency histogram."); err != nil {
		return err
	}
	if err := s.retHist.write(w, "mc_query_retrievals", "Tuple retrievals charged per query (0 on cache hits)."); err != nil {
		return err
	}
	if err := s.fsyncHist.write(w, "mc_wal_fsync_seconds", "WAL fsync duration."); err != nil {
		return err
	}
	if err := s.deltaHist.write(w, "mc_delta_compile_seconds", "Delta compile (Extend) duration per append."); err != nil {
		return err
	}
	return s.snapHist.write(w, "mc_snapshot_seconds", "Snapshot write duration.")
}

// methodKey builds the byMethod key; WriteMetrics cuts it back apart
// for label rendering.
func methodKey(strategy, mode string) string { return strategy + "|" + mode }
