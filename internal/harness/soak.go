package harness

// This file is the analysis half of the soak harness: the SLO spec
// cmd/mcsoak asserts at end of run, the nearest-rank percentile used
// for per-class latency stats, a Prometheus text-exposition parser for
// the final /metrics scrape, the metric-consistency invariants that
// must hold on any idle server, and the SoakReport the driver emits as
// JSON and as a human summary. It is all pure computation — the HTTP
// driving lives in cmd/mcsoak — so every piece is unit-testable.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ClassSLO is the latency ceiling for one request class, in
// milliseconds. A zero ceiling is unlimited, so a partial spec file
// only constrains what it names.
type ClassSLO struct {
	P50MS float64 `json:"p50_ms,omitempty"`
	P99MS float64 `json:"p99_ms,omitempty"`
}

// SLOSpec is the declarative pass/fail contract a soak run is held
// to. Classes is keyed by request class ("query", "bad", "batch",
// "append", "stats" — the workload.OpKind names). The Max* ceilings
// all default to zero: any oracle divergence, unexpected HTTP status,
// or metric-invariant violation fails the run unless the spec says
// otherwise.
type SLOSpec struct {
	Classes                map[string]ClassSLO `json:"classes"`
	MaxDivergences         int                 `json:"max_divergences"`
	MaxUnexpectedStatuses  int                 `json:"max_unexpected_statuses"`
	MaxInvariantViolations int                 `json:"max_invariant_violations"`
	// MaxHeapGrowthFrac is the heap-watermark ceiling: the late-run
	// heap-in-use watermark may exceed the mid-run watermark by at
	// most this fraction (0.25 = 25% growth). Mid vs late (rather than
	// start vs end) skips the warm-up ramp, so what the rule catches
	// is monotonic growth in steady state — the leak signature. Zero
	// disables the rule; it also needs memory samples in the report.
	MaxHeapGrowthFrac float64 `json:"max_heap_growth_frac,omitempty"`
	// MaxCompiledBytes caps the resident compiled-artifact estimate
	// observed at any sample. Zero disables.
	MaxCompiledBytes int64 `json:"max_compiled_bytes,omitempty"`
	// MinRecoveries is the floor on kill/restart cycles a
	// fault-injection run must complete (each one verified across the
	// boundary); a run configured to inject faults that never did is a
	// vacuous pass. Zero disables.
	MinRecoveries int `json:"min_recoveries,omitempty"`
}

// DefaultSLO is the ceiling set the CI smoke job runs under: generous
// enough that a loaded shared runner passes, tight enough that a
// serving-path regression (a batch in the singleton window, a solver
// stall) still trips it.
func DefaultSLO() SLOSpec {
	return SLOSpec{
		Classes: map[string]ClassSLO{
			"query":  {P50MS: 50, P99MS: 250},
			"bad":    {P50MS: 50, P99MS: 250},
			"batch":  {P50MS: 250, P99MS: 1000},
			"append": {P50MS: 250, P99MS: 2000},
			"stats":  {P50MS: 50, P99MS: 250},
		},
	}
}

// LoadSLO reads a JSON SLOSpec from path. The file replaces the
// default spec wholesale; zero-valued ceilings mean unlimited.
func LoadSLO(path string) (SLOSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SLOSpec{}, err
	}
	var spec SLOSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return SLOSpec{}, fmt.Errorf("harness: parse SLO spec %s: %w", path, err)
	}
	return spec, nil
}

// Percentile returns the p-th (0..1) value of samples by nearest rank
// on a sorted copy, matching the server's own ring-buffer percentile
// so driver-side and server-side numbers are comparable. Empty input
// reads 0.
func Percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	buf := make([]float64, n)
	copy(buf, samples)
	sort.Float64s(buf)
	rank := int(p*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return buf[rank-1]
}

// ParseMetrics reads a Prometheus text exposition into a flat map.
// Keys are the series as written — "mc_queries_total" for plain
// series, `mc_queries_by_regime_total{regime="acyclic"}` for labeled
// ones — so invariant checks look up exact names. Comment and blank
// lines are skipped; a malformed sample line is an error (the scrape
// came from our own exposition writer, so leniency would only hide
// bugs in it).
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("harness: malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("harness: metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// invariant is one metric-consistency rule: check receives two lookups
// — get reads one series by its exact name, sum adds up a labeled family
// by its bare name — that record any metric they do not find as
// required, so a scrape missing one of them reports "metric missing"
// instead of silently passing on zeros.
type invariant struct {
	name  string
	check func(get, sum func(string) float64) (ok bool, detail string)
}

// invariants are the consistency rules every idle (no requests in
// flight, not shut down) server must satisfy, recomputed from the raw
// /metrics scrape rather than trusted from /v1/stats. They are the
// checks that originally flushed out the InFlight, bad-request, and
// batch-latency accounting bugs.
var invariants = []invariant{
	{"compiles == full + delta", func(get, _ func(string) float64) (bool, string) {
		c, f, d := get("mc_compiles_total"), get("mc_full_compiles_total"), get("mc_delta_compiles_total")
		return c == f+d, fmt.Sprintf("compiles=%g full=%g delta=%g", c, f, d)
	}},
	{"queries == hits + misses + errors + rejected + bad", func(get, _ func(string) float64) (bool, string) {
		q := get("mc_queries_total")
		h, m := get("mc_cache_hits_total"), get("mc_cache_misses_total")
		e, rej, bad := get("mc_query_errors_total"), get("mc_queries_rejected_total"), get("mc_bad_requests_total")
		return q == h+m+e+rej+bad,
			fmt.Sprintf("queries=%g hits=%g misses=%g errors=%g rejected=%g bad=%g", q, h, m, e, rej, bad)
	}},
	{"queries by method == hits + misses", func(get, sum func(string) float64) (bool, string) {
		m, h, mi := sum("mc_queries_by_method_total"), get("mc_cache_hits_total"), get("mc_cache_misses_total")
		return m == h+mi, fmt.Sprintf("by_method=%g hits=%g misses=%g", m, h, mi)
	}},
	{"queries by regime <= hits + misses", func(get, sum func(string) float64) (bool, string) {
		r, h, mi := sum("mc_queries_by_regime_total"), get("mc_cache_hits_total"), get("mc_cache_misses_total")
		return r <= h+mi, fmt.Sprintf("by_regime=%g hits=%g misses=%g", r, h, mi)
	}},
	{"retrieval samples == hits + misses", func(get, _ func(string) float64) (bool, string) {
		n, h, mi := get("mc_query_retrievals_count"), get("mc_cache_hits_total"), get("mc_cache_misses_total")
		return n == h+mi, fmt.Sprintf("samples=%g hits=%g misses=%g", n, h, mi)
	}},
	{"timeouts <= errors", func(get, _ func(string) float64) (bool, string) {
		to, e := get("mc_query_timeouts_total"), get("mc_query_errors_total")
		return to <= e, fmt.Sprintf("timeouts=%g errors=%g", to, e)
	}},
	{"query latency samples <= queries", func(get, _ func(string) float64) (bool, string) {
		n, q := get("mc_query_duration_seconds_count"), get("mc_queries_total")
		return n <= q, fmt.Sprintf("samples=%g queries=%g", n, q)
	}},
	{"batch latency samples <= batch requests", func(get, _ func(string) float64) (bool, string) {
		n, b := get("mc_batch_duration_seconds_count"), get("mc_batch_requests_total")
		return n <= b, fmt.Sprintf("samples=%g batches=%g", n, b)
	}},
	{"no queries in flight", func(get, _ func(string) float64) (bool, string) {
		n := get("mc_inflight_queries")
		return n == 0, fmt.Sprintf("inflight=%g", n)
	}},
	{"no snapshot failures", func(get, _ func(string) float64) (bool, string) {
		n := get("mc_snapshot_failures_total")
		return n == 0, fmt.Sprintf("failures=%g", n)
	}},
}

// CheckInvariants evaluates every metric-consistency rule against a
// parsed /metrics scrape and returns one violation string per broken
// rule (empty means all hold). A rule whose metrics are absent from
// the scrape is reported broken, not skipped.
func CheckInvariants(metrics map[string]float64) []string {
	var violations []string
	for _, inv := range invariants {
		var missing []string
		get := func(name string) float64 {
			v, ok := metrics[name]
			if !ok {
				missing = append(missing, name)
			}
			return v
		}
		sum := func(family string) (total float64) {
			found := false
			for series, v := range metrics {
				if strings.HasPrefix(series, family+"{") {
					total, found = total+v, true
				}
			}
			if !found {
				missing = append(missing, family+"{...}")
			}
			return total
		}
		ok, detail := inv.check(get, sum)
		if len(missing) > 0 {
			violations = append(violations, fmt.Sprintf("%s: metric missing: %s", inv.name, strings.Join(missing, ", ")))
			continue
		}
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: %s", inv.name, detail))
		}
	}
	return violations
}

// ClassStats summarizes one request class's latency and status
// distribution over a soak run. Statuses is keyed by the decimal HTTP
// status (string-keyed for JSON).
type ClassStats struct {
	Count    int            `json:"count"`
	P50MS    float64        `json:"p50_ms"`
	P99MS    float64        `json:"p99_ms"`
	MaxMS    float64        `json:"max_ms"`
	Statuses map[string]int `json:"statuses"`
}

// MakeClassStats folds raw millisecond samples and a status histogram
// into the report form.
func MakeClassStats(ms []float64, statuses map[int]int) *ClassStats {
	cs := &ClassStats{Count: len(ms), Statuses: make(map[string]int, len(statuses))}
	cs.P50MS = Percentile(ms, 0.50)
	cs.P99MS = Percentile(ms, 0.99)
	for _, v := range ms {
		if v > cs.MaxMS {
			cs.MaxMS = v
		}
	}
	for code, n := range statuses {
		cs.Statuses[strconv.Itoa(code)] = n
	}
	return cs
}

// OracleCheck summarizes the end-of-run answer verification:
// Generations and Sources count what was replayed through the oracle,
// Divergences counts answers that disagreed with it (or the same
// (generation, source) answered two different ways by the server),
// Unverifiable counts sampled answers skipped because the ledger had
// no complete fact set for their generation (a lost append response).
type OracleCheck struct {
	Generations  int      `json:"generations"`
	Sources      int      `json:"sources"`
	Divergences  int      `json:"divergences"`
	Unverifiable int      `json:"unverifiable"`
	Details      []string `json:"details,omitempty"`
}

// MemorySample is one periodic scrape of the server's /v1/stats
// memory block during a soak.
type MemorySample struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	HeapInuseBytes int64   `json:"heap_inuse_bytes"`
	CompiledBytes  int64   `json:"compiled_bytes"`
}

// MemoryCheck folds a soak's memory samples into the watermarks the
// SLO rules compare: HeapMidBytes is the peak heap over the second
// quarter of samples (past warm-up, before any late-run growth),
// HeapLateBytes the peak over the final quarter. A leak shows as late
// well above mid; a bounded server holds them within the allowed
// fraction of each other.
type MemoryCheck struct {
	Samples          int   `json:"samples"`
	HeapMidBytes     int64 `json:"heap_mid_bytes"`
	HeapLateBytes    int64 `json:"heap_late_bytes"`
	CompiledMaxBytes int64 `json:"compiled_max_bytes"`
}

// MakeMemoryCheck computes the watermarks from raw samples. Fewer
// than 8 samples (the windows would be 1-2 points of GC noise)
// returns a check with only Samples set; Evaluate treats that as "no
// memory data" when a heap rule is armed.
func MakeMemoryCheck(samples []MemorySample) *MemoryCheck {
	mc := &MemoryCheck{Samples: len(samples)}
	for _, s := range samples {
		if s.CompiledBytes > mc.CompiledMaxBytes {
			mc.CompiledMaxBytes = s.CompiledBytes
		}
	}
	n := len(samples)
	if n < 8 {
		return mc
	}
	peak := func(lo, hi int) int64 {
		var p int64
		for _, s := range samples[lo:hi] {
			if s.HeapInuseBytes > p {
				p = s.HeapInuseBytes
			}
		}
		return p
	}
	mc.HeapMidBytes = peak(n/4, n/2)
	mc.HeapLateBytes = peak(3*n/4, n)
	return mc
}

// SoakReport is the full outcome of one soak run, written as JSON for
// CI artifacts and rendered as a summary for humans. Pass is set by
// Evaluate.
type SoakReport struct {
	Seed            int64                  `json:"seed"`
	DurationSeconds float64                `json:"duration_seconds"`
	TargetQPS       float64                `json:"target_qps"`
	AchievedQPS     float64                `json:"achieved_qps"`
	Ops             int                    `json:"ops"`
	Classes         map[string]*ClassStats `json:"classes"`
	Oracle          OracleCheck            `json:"oracle"`
	// UnexpectedStatuses lists responses whose HTTP status was not the
	// one the operation's kind predicts (200, or 400 for the
	// intentional probes), capped by the driver.
	UnexpectedStatuses []string `json:"unexpected_statuses,omitempty"`
	// InvariantViolations is CheckInvariants over the final scrape.
	InvariantViolations []string `json:"invariant_violations,omitempty"`
	// Recoveries counts completed kill/restart cycles under fault
	// injection; RecoveryFailures lists boundary checks that failed
	// (a restart that lost generations, a child that never came back).
	Recoveries       int      `json:"recoveries,omitempty"`
	RecoveryFailures []string `json:"recovery_failures,omitempty"`
	// Memory is the folded memory-sample record (nil when the run did
	// not sample).
	Memory *MemoryCheck `json:"memory,omitempty"`
	// SLOViolations and Pass are filled by Evaluate.
	SLOViolations []string `json:"slo_violations,omitempty"`
	Pass          bool     `json:"pass"`
}

// Evaluate asserts spec against the report, filling SLOViolations and
// Pass. Latency ceilings apply only to classes the spec names and
// only when nonzero; the divergence, status, and invariant ceilings
// always apply.
func (r *SoakReport) Evaluate(spec SLOSpec) {
	r.SLOViolations = nil
	var names []string
	for name := range spec.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		slo := spec.Classes[name]
		cs := r.Classes[name]
		if cs == nil || cs.Count == 0 {
			continue
		}
		if slo.P50MS > 0 && cs.P50MS > slo.P50MS {
			r.SLOViolations = append(r.SLOViolations,
				fmt.Sprintf("%s p50 %.2fms exceeds ceiling %.2fms", name, cs.P50MS, slo.P50MS))
		}
		if slo.P99MS > 0 && cs.P99MS > slo.P99MS {
			r.SLOViolations = append(r.SLOViolations,
				fmt.Sprintf("%s p99 %.2fms exceeds ceiling %.2fms", name, cs.P99MS, slo.P99MS))
		}
	}
	if r.Oracle.Divergences > spec.MaxDivergences {
		r.SLOViolations = append(r.SLOViolations,
			fmt.Sprintf("%d oracle divergences exceed the allowed %d", r.Oracle.Divergences, spec.MaxDivergences))
	}
	if n := len(r.UnexpectedStatuses); n > spec.MaxUnexpectedStatuses {
		r.SLOViolations = append(r.SLOViolations,
			fmt.Sprintf("%d unexpected HTTP statuses exceed the allowed %d", n, spec.MaxUnexpectedStatuses))
	}
	if n := len(r.InvariantViolations); n > spec.MaxInvariantViolations {
		r.SLOViolations = append(r.SLOViolations,
			fmt.Sprintf("%d metric-invariant violations exceed the allowed %d", n, spec.MaxInvariantViolations))
	}
	// Recovery rules: any failed boundary check fails the run outright,
	// and a fault-injection spec demands its minimum cycle count.
	for _, f := range r.RecoveryFailures {
		r.SLOViolations = append(r.SLOViolations, fmt.Sprintf("recovery failure: %s", f))
	}
	if spec.MinRecoveries > 0 && r.Recoveries < spec.MinRecoveries {
		r.SLOViolations = append(r.SLOViolations,
			fmt.Sprintf("%d recoveries below the required %d", r.Recoveries, spec.MinRecoveries))
	}
	// Memory rules.
	if spec.MaxHeapGrowthFrac > 0 {
		switch {
		case r.Memory == nil || r.Memory.HeapMidBytes == 0:
			r.SLOViolations = append(r.SLOViolations,
				"heap-growth SLO set but the run collected no usable memory samples")
		case float64(r.Memory.HeapLateBytes) > float64(r.Memory.HeapMidBytes)*(1+spec.MaxHeapGrowthFrac):
			r.SLOViolations = append(r.SLOViolations,
				fmt.Sprintf("heap watermark grew %.1f%% mid-to-late (%d -> %d bytes), ceiling %.1f%%",
					100*(float64(r.Memory.HeapLateBytes)/float64(r.Memory.HeapMidBytes)-1),
					r.Memory.HeapMidBytes, r.Memory.HeapLateBytes, 100*spec.MaxHeapGrowthFrac))
		}
	}
	if spec.MaxCompiledBytes > 0 && r.Memory != nil && r.Memory.CompiledMaxBytes > spec.MaxCompiledBytes {
		r.SLOViolations = append(r.SLOViolations,
			fmt.Sprintf("compiled-artifact estimate peaked at %d bytes, ceiling %d",
				r.Memory.CompiledMaxBytes, spec.MaxCompiledBytes))
	}
	r.Pass = len(r.SLOViolations) == 0
}

// WriteJSON writes the report as indented JSON.
func (r *SoakReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the report for a terminal: per-class latency table,
// oracle verdict, and every violation.
func (r *SoakReport) Summary(w io.Writer) {
	fmt.Fprintf(w, "soak: seed=%d duration=%.1fs target=%.0fqps achieved=%.1fqps ops=%d\n",
		r.Seed, r.DurationSeconds, r.TargetQPS, r.AchievedQPS, r.Ops)
	tbl := &Table{
		ID:     "soak",
		Title:  "per-class latency",
		Header: []string{"class", "count", "p50 ms", "p99 ms", "max ms", "statuses"},
	}
	var names []string
	for name := range r.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := r.Classes[name]
		var codes []string
		for code := range cs.Statuses {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		parts := make([]string, 0, len(codes))
		for _, code := range codes {
			parts = append(parts, fmt.Sprintf("%s:%d", code, cs.Statuses[code]))
		}
		tbl.Rows = append(tbl.Rows, []string{
			name, strconv.Itoa(cs.Count),
			fmt.Sprintf("%.2f", cs.P50MS), fmt.Sprintf("%.2f", cs.P99MS), fmt.Sprintf("%.2f", cs.MaxMS),
			strings.Join(parts, " "),
		})
	}
	tbl.Render(w)
	fmt.Fprintf(w, "oracle: %d sources over %d generations checked, %d divergences, %d unverifiable\n",
		r.Oracle.Sources, r.Oracle.Generations, r.Oracle.Divergences, r.Oracle.Unverifiable)
	if r.Recoveries > 0 || len(r.RecoveryFailures) > 0 {
		fmt.Fprintf(w, "fault injection: %d kill/restart cycles, %d boundary failures\n",
			r.Recoveries, len(r.RecoveryFailures))
	}
	for _, f := range r.RecoveryFailures {
		fmt.Fprintf(w, "  recovery failure: %s\n", f)
	}
	if m := r.Memory; m != nil && m.Samples > 0 {
		fmt.Fprintf(w, "memory: %d samples, heap mid=%.1fMiB late=%.1fMiB, compiled max=%.1fMiB\n",
			m.Samples, float64(m.HeapMidBytes)/(1<<20), float64(m.HeapLateBytes)/(1<<20),
			float64(m.CompiledMaxBytes)/(1<<20))
	}
	for _, d := range r.Oracle.Details {
		fmt.Fprintf(w, "  divergence: %s\n", d)
	}
	for _, v := range r.UnexpectedStatuses {
		fmt.Fprintf(w, "unexpected status: %s\n", v)
	}
	for _, v := range r.InvariantViolations {
		fmt.Fprintf(w, "invariant violated: %s\n", v)
	}
	for _, v := range r.SLOViolations {
		fmt.Fprintf(w, "SLO violated: %s\n", v)
	}
	if r.Pass {
		fmt.Fprintln(w, "PASS")
	} else {
		fmt.Fprintln(w, "FAIL")
	}
}
