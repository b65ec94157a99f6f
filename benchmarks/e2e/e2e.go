package main

// The untraced end-to-end pass: a real mcserved child over loopback,
// two closed-loop clients, the workload's seeded stream for a fixed
// time, then the oracle check, SIGKILL and recovery.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/server"
)

const (
	// numClients never exceeds nproc on the 2-core reference box: a
	// third caller would compete with the server for the CPUs it is
	// being measured on.
	numClients = 2
	// Set-up and recovery are one-shot timings, so a run repeats them
	// and reports the median: at least minReps times, and up to maxReps
	// while the repetitions have used less than repBudget. The quick
	// ones (tens of ms, mostly process start) are the noisiest and get
	// the most repetitions.
	minReps   = 7
	maxReps   = 15
	repBudget = 2 * time.Second
)

// moreReps says whether a repeated timing should go round again.
func moreReps(done []float64) bool {
	spent := 0.0
	for _, d := range done {
		spent += d
	}
	return len(done) < minReps || len(done) < maxReps && spent < repBudget.Seconds()
}

// opRecord is one completed request of the timed phase.
type opRecord struct {
	kind    opKind
	start   time.Duration // since the phase began
	lat     time.Duration
	visible time.Duration // probes: from the append's send to this response
}

// clientLog is what one client brings back from the timed phase.
type clientLog struct {
	ops      []opRecord
	failed   int
	firstErr error
	acked    [][]core.Pair // acknowledged appends
	probes   []string      // their fresh top nodes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the IQR across windows for windowed metrics and across
	// repetitions for setup_s and recovery_s; Detail says what the
	// estimate rests on.
	Spread float64 `json:"spread,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// e2eResult is one workload's end-to-end pass.
type e2eResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// ServerCounts are /v1/stats deltas over the timed phase.
	ServerCounts map[string]float64 `json:"server_counts"`
}

func (r *e2eResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// checkResponse is the inline check every response of the timed phase
// passes: status 200, a generation that never goes back on this
// client, and the class's structural invariant. Full answers are
// compared with the oracle after the run, on the sample.
func checkResponse(o *op, status int, body []byte, lastGen *uint64) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", o.Kind, status)
	}
	gen, ok := responseGeneration(body)
	if !ok {
		return fmt.Errorf("%s: no generation in the response", o.Kind)
	}
	if gen < *lastGen {
		return fmt.Errorf("%s: generation went back from %d to %d", o.Kind, *lastGen, gen)
	}
	*lastGen = gen
	switch {
	case o.Probe:
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Answers) != 1 || resp.Answers[0] != o.Source {
			return fmt.Errorf("probe %s answered %v, want exactly itself", o.Source, resp.Answers)
		}
	case o.Kind == opBatch:
		var resp server.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Items) != len(o.Sources) {
			return fmt.Errorf("batch of %d answered %d items", len(o.Sources), len(resp.Items))
		}
		for i, it := range resp.Items {
			if it.Error != "" || it.Source != o.Sources[i] {
				return fmt.Errorf("batch item %d (%s): source %q, error %q", i, o.Sources[i], it.Source, it.Error)
			}
		}
	}
	return nil
}

// runClient drives one stream until the deadline, finishing a pending
// probe so every acknowledged append has its visibility sample.
func runClient(c *client, s *stream, began time.Time, d time.Duration) *clientLog {
	lg := &clientLog{}
	var lastGen uint64
	var appendStart time.Time
	for s.probe != "" || time.Since(began) < d {
		s.batchPhase = time.Since(began) >= time.Duration((1-batchTail)*float64(d))
		o := s.next()
		body := o.body()
		start := time.Now()
		status, out, err := c.do(http.MethodPost, o.path(), body)
		lat := time.Since(start)
		if err == nil {
			err = checkResponse(&o, status, out, &lastGen)
		}
		if err != nil {
			lg.failed++
			if lg.firstErr == nil {
				lg.firstErr = err
			}
			if o.Kind == opAppend {
				s.probe = "" // nothing to probe for
			}
			continue
		}
		rec := opRecord{kind: o.Kind, start: start.Sub(began), lat: lat}
		switch {
		case o.Kind == opAppend:
			appendStart = start
			lg.acked = append(lg.acked, o.Parent)
			lg.probes = append(lg.probes, s.probe)
		case o.Probe:
			rec.visible = start.Add(lat).Sub(appendStart)
		}
		lg.ops = append(lg.ops, rec)
	}
	return lg
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowMetrics cuts the phase's ops, ordered by start, into equal
// windows and derives the throughput and latency metrics.
func windowMetrics(ops []opRecord, phaseEnd time.Duration, out map[string]metric) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	bounds := split(len(ops), numWindows)
	var rates []float64
	classes := map[string][][]float64{}
	add := func(class string, w int, v time.Duration) {
		if classes[class] == nil {
			classes[class] = make([][]float64, numWindows)
		}
		classes[class][w] = append(classes[class][w], ms(v))
	}
	for w := 0; w < numWindows; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			continue
		}
		end := phaseEnd
		if hi < len(ops) {
			end = ops[hi].start
		}
		rates = append(rates, float64(hi-lo)/(end-ops[lo].start).Seconds())
		for _, o := range ops[lo:hi] {
			switch o.kind {
			case opQuery:
				add("query", w, o.lat)
				if o.visible > 0 {
					add("append_visible", w, o.visible)
				}
			case opBatch:
				add("batch", w, o.lat)
			case opAppend:
				add("append_ack", w, o.lat)
			}
		}
	}
	if len(rates) > 0 {
		out["ops_per_s"] = metric{Value: median(rates), Unit: "ops/s", Spread: iqr(rates),
			Detail: fmt.Sprintf("median of %d window rates, %d ops", len(rates), len(ops))}
	}
	for _, q := range []struct {
		name, class string
		q           float64
	}{
		{"query_p50_ms", "query", 0.50},
		{"query_p99_ms", "query", 0.99},
		{"batch_p50_ms", "batch", 0.50},
		{"append_ack_p50_ms", "append_ack", 0.50},
		{"append_ack_p99_ms", "append_ack", 0.99},
		{"append_visible_p50_ms", "append_visible", 0.50},
	} {
		est, ok := windowQuantile(classes[q.class], q.q)
		if !ok {
			continue // the class does not occur on this workload
		}
		out[q.name] = metric{Value: est.Value, Unit: "ms", Spread: est.Spread,
			Detail: fmt.Sprintf("p%.4g, %d samples, %d window(s)", est.Quantile*100, est.Samples, est.Windows)}
	}
}

// statCounts flattens the /v1/stats counters the layers export.
func statCounts(st *server.Stats) map[string]float64 {
	m := map[string]float64{
		"queries":          float64(st.Queries),
		"batch_requests":   float64(st.BatchRequests),
		"cache_hits":       float64(st.CacheHits),
		"cache_misses":     float64(st.CacheMisses),
		"compiles":         float64(st.Compiles),
		"full_compiles":    float64(st.DeltaCompile.FullCompiles),
		"delta_compiles":   float64(st.DeltaCompile.DeltaCompiles),
		"delta_fallbacks":  float64(st.DeltaCompile.Fallbacks),
		"chain_collapses":  float64(st.Memory.ChainCollapses),
		"fact_appends":     float64(st.FactAppends),
		"wal_appends":      float64(st.WALAppends),
		"snapshots":        float64(st.Snapshots),
		"tuple_retrievals": float64(st.TupleRetrievals),
	}
	if st.Shards != nil {
		m["shard_merges"] = float64(st.Shards.Merges)
	}
	return m
}

// runE2E measures one workload end to end.
func runE2E(cfg *config, in *instance) (*e2eResult, error) {
	res := &e2eResult{Workload: in.w.Name, Seed: in.seed, Seconds: cfg.seconds, Correct: true,
		Metrics: map[string]metric{}, ServerCounts: map[string]float64{}}

	var bodies [][]byte
	for _, c := range chunks(in.db.allPairs()) {
		bodies = append(bodies, []byte(factsBody(c)))
	}
	dataDir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", in.w.Name, os.Getpid()))
	defer os.RemoveAll(dataDir)

	// Set-up, repeated on a fresh child and an empty directory each
	// time; the last child serves the timed phase.
	var ch *child
	var c0 *client
	var setUps []float64
	for moreReps(setUps) {
		if ch != nil {
			c0.close()
			ch.kill()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		var d time.Duration
		var err error
		if ch, c0, d, err = setUp(cfg.serverBin, dataDir, in, bodies); err != nil {
			return nil, err
		}
		setUps = append(setUps, d.Seconds())
	}
	defer func() { ch.kill() }()
	res.Metrics["setup_s"] = metric{Value: median(setUps), Unit: "s", Spread: iqr(setUps),
		Detail: fmt.Sprintf("median of %d fresh set-ups", len(setUps))}

	clients := []*client{c0}
	for len(clients) < numClients {
		clients = append(clients, newClient(ch.base))
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	// Connect every client and fill the cache before timing starts.
	for _, c := range clients {
		if _, _, err := c.do(http.MethodGet, "/healthz", nil); err != nil {
			return nil, err
		}
	}
	for _, s := range in.warmup() {
		if _, err := c0.query(s); err != nil {
			return nil, err
		}
	}

	before, err := c0.stats()
	if err != nil {
		return nil, err
	}
	cpuBefore, err := childCPUSeconds(ch.pid())
	if err != nil {
		return nil, err
	}
	logs := make([]*clientLog, numClients)
	phase := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			logs[i] = runClient(c, in.stream(i), began, phase)
		}(i, c)
	}
	wg.Wait()
	phaseEnd := time.Since(began)
	cpuAfter, err := childCPUSeconds(ch.pid())
	if err != nil {
		return nil, err
	}
	after, err := c0.stats()
	if err != nil {
		return nil, err
	}
	rss, err := childPeakRSSMB(ch.pid())
	if err != nil {
		return nil, err
	}

	var ops []opRecord
	lg := newLedger(in.db)
	var probes []string
	appends := 0
	for _, l := range logs {
		ops = append(ops, l.ops...)
		res.Failed += l.failed
		if l.firstErr != nil {
			res.fail("%v", l.firstErr)
		}
		for _, parent := range l.acked {
			lg.add(parent)
		}
		probes = append(probes, l.probes...)
		appends += len(l.acked)
	}
	res.Attempted = len(ops) + res.Failed
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %v", in.w.Name, res.Errors)
	}
	windowMetrics(ops, phaseEnd, res.Metrics)
	res.Metrics["server_cpu_ms_per_op"] = metric{Value: (cpuAfter - cpuBefore) * 1000 / float64(len(ops)), Unit: "ms",
		Detail: fmt.Sprintf("%.2f CPU s over %d ops", cpuAfter-cpuBefore, len(ops))}
	res.Metrics["server_rss_peak_mb"] = metric{Value: rss, Unit: "MB", Detail: "VmHWM"}
	res.Metrics["failed_frac"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "fraction",
		Detail: fmt.Sprintf("%d of %d", res.Failed, res.Attempted)}
	beforeCounts := statCounts(before)
	for k, v := range statCounts(after) {
		res.ServerCounts[k] = v - beforeCounts[k]
	}

	// Every chunk of the load and every acknowledged append bumped the
	// generation once, and nothing else may have.
	lastAcked := uint64(len(bodies) + appends)
	if after.Generation != lastAcked {
		res.fail("server is at generation %d, acknowledged appends make it %d", after.Generation, lastAcked)
	}
	sample := pickSample(in, probes)
	want, err := lg.expected(sample)
	if err != nil {
		return nil, err
	}
	if wrong, first := verifySample(c0, sample, want, lastAcked); wrong > 0 {
		res.fail("%d of %d sampled answers differ from the oracle: %v", wrong, len(sample), first)
	}

	// kill -9, restart on the data directory, and time the way back to
	// a query answered at exactly the last acknowledged generation.
	var recoveries []float64
	for moreReps(recoveries) {
		for _, c := range clients {
			c.close()
		}
		ch.kill()
		started := time.Now()
		restarted, err := startChild(cfg.serverBin, dataDir, in.w.flags())
		if err != nil {
			return nil, err
		}
		ch = restarted
		c0 = newClient(ch.base)
		clients = []*client{c0}
		resp, err := c0.query(sample[0])
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, time.Since(started).Seconds())
		if resp.Generation != lastAcked {
			res.fail("recovered at generation %d, last acknowledged was %d", resp.Generation, lastAcked)
		}
	}
	res.Metrics["recovery_s"] = metric{Value: median(recoveries), Unit: "s", Spread: iqr(recoveries),
		Detail: fmt.Sprintf("median of %d kill -9 restarts", len(recoveries))}
	if wrong, first := verifySample(c0, sample, want, lastAcked); wrong > 0 {
		res.fail("after recovery %d of %d sampled answers differ from the oracle: %v", wrong, len(sample), first)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}
