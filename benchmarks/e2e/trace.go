package main

// The traced pass. The head of each workload's op stream is replayed
// sequentially in-process, every op applied to a shadow instance of
// each layer and timed through that layer's public entry point:
//
//	client.roundtrip  loopback POST to an httptest server over server.NewHandler
//	server.http       ServeHTTP into a recorder
//	server.service    Service.Query / QueryBatch / AppendFacts / Checkpoint / Open
//	core.*            Compile, ChooseMethod, Solve, Extend, Flatten on a Compiled
//	                  chain, or the ShardedCompiled equivalents under -shards
//	durable.*         Store.Append (with its fsyncs), WriteSnapshot, Open
//
// Each level is its own instance holding the same database, so an op
// is new to every level it is applied to. A span's parent is the span
// one level up for the same op; a layer's self time is its span's
// duration minus its children's. Spans of one op were measured one
// after another, so a child's clock interval lies after its parent's,
// not inside it: nesting is by parent id.
//
// The pass also replays what surrounds the stream: the bulk load and
// the first query (cold compile) before it, a recovery from a crash
// image of the data directory and the shutdown checkpoint after it.
// That is what makes the append-, snapshot- and recovery-side layer
// metrics exist on the read-only workloads too, where they describe
// the load.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/obs"
	"magiccounting/internal/server"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's outermost span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// driverPerLayer are the layer metrics measured on every workload: the
// set BENCHMARK.json declares. The per-workload ones (cache-hit time,
// batch item time, delta, flatten and shard timings, tracing overhead)
// are printed and recorded where they occur.
var driverPerLayer = []metricDef{
	{Name: "server.http.query_self_us", Unit: "us", Better: "lower"},
	{Name: "server.http.resp_bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "server.http.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "server.http.facts_self_us", Unit: "us", Better: "lower"},
	{Name: "server.service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.service.miss_self_us", Unit: "us", Better: "lower"},
	{Name: "server.service.append_self_us", Unit: "us", Better: "lower"},
	{Name: "server.service.bytes_per_append", Unit: "bytes", Better: "lower"},
	{Name: "server.service.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.select.choose_us", Unit: "us", Better: "lower"},
	{Name: "core.solve.solve_us", Unit: "us", Better: "lower"},
	{Name: "core.solve.step1_us", Unit: "us", Better: "lower"},
	{Name: "core.solve.step2_us", Unit: "us", Better: "lower"},
	{Name: "core.solve.allocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.solve.bytes_per_solve", Unit: "bytes", Better: "lower"},
	{Name: "core.solve.retrievals_per_query", Unit: "count", Better: "lower"},
	{Name: "core.compile.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile.full_compiles", Unit: "count", Better: "lower"},
	{Name: "core.delta.delta_compiles", Unit: "count", Better: "higher"},
	{Name: "core.delta.fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.flatten.collapses", Unit: "count", Better: "lower"},
	{Name: "core.shard.merges", Unit: "count", Better: "lower"},
	{Name: "durable.wal.append_us", Unit: "us", Better: "lower"},
	{Name: "durable.wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "durable.wal.appends", Unit: "count", Better: "lower"},
	{Name: "durable.wal.bytes_per_fact", Unit: "bytes", Better: "lower"},
	{Name: "durable.snapshot.write_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.snapshot.count", Unit: "count", Better: "lower"},
	{Name: "durable.snapshot.bytes_per_fact", Unit: "bytes", Better: "lower"},
	{Name: "durable.recover.open_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.recover.replayed_records", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.negative_self_frac", Unit: "fraction", Better: "lower"},
}

// otherPerLayer occur on some workloads only.
var otherPerLayer = []metricDef{
	{Name: "server.service.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.service.batch_item_us", Unit: "us", Better: "lower"},
	{Name: "core.delta.extend_us", Unit: "us", Better: "lower"},
	{Name: "core.delta.bytes_per_extend", Unit: "bytes", Better: "lower"},
	{Name: "core.flatten.flatten_ms", Unit: "ms", Better: "lower"},
	{Name: "core.shard.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.shard.route_ns", Unit: "ns", Better: "lower"},
	{Name: "core.shard.extend_us", Unit: "us", Better: "lower"},
	{Name: "core.shard.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// traceResult is one workload's traced pass.
type traceResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Shares is each layer's self time as a share of the server.http
	// spans of the op class ("query" or "append").
	Shares map[string]map[string]float64 `json:"shares"`
}

func (r *traceResult) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// level is one service-entering shadow: its own Service on its own
// data directory.
type level struct {
	svc     *server.Service
	handler http.Handler
	dir     string
}

// artifact is what a query needs from either compiled form.
type artifact interface {
	ChooseMethod(source string) core.Selection
	Solve(source string, strategy core.Strategy, mode core.Mode, opts core.Options) (*core.Result, error)
}

// opSample is what the metric derivation keeps of one op.
type opSample struct {
	kind     opKind
	special  string // "", "open" or "checkpoint"
	items    int    // batch size
	cached   bool   // query answered from the cache
	rt       time.Duration
	http     time.Duration
	svc      time.Duration
	children time.Duration // direct children of the service span
	negative bool          // some span's children outlasted it

	respBytes  int
	httpAllocs uint64 // mallocs inside ServeHTTP, the service call included
	svcAllocs  uint64 // mallocs inside the service call
	svcBytes   uint64
}

// tracedPass is the state of one replay.
type tracedPass struct {
	in    *instance
	res   *traceResult
	began time.Time
	spans []span
	ops   []opSample

	cfg      server.Config
	rt, http *level
	svc      *level
	ts       *httptest.Server
	hc       *http.Client

	// The service's own maintenance policy, echoed by its Stats, which
	// the core shadow follows.
	maxFrac     float64
	maxResident int
	maxBytes    int64

	// Core shadow: exactly one of mono and sharded is in use; nil means
	// no artifact (not yet compiled, or dropped by a bulk append).
	mono    *core.Compiled
	sharded *core.ShardedCompiled
	l, e, r []core.Pair
	seen    map[string]bool

	// Durable shadow.
	store    *durable.Store
	storeDir string
	gen      uint64
	fsyncMu  sync.Mutex
	fsyncs   []time.Duration

	// Layer samples, in the unit of the metric they feed.
	chooseUS, solveUS, step1US, step2US []float64
	solveAllocs, solveBytes             []float64
	retrievals, solves                  int64
	coldMS, shardCompileMS              []float64
	extendUS, extendBytes               []float64
	flattenMS                           []float64
	routeNS, shardExtendUS, mergeMS     []float64
	walUS, fsyncUS                      []float64
	snapshotMS                          []float64
	fullCompiles, deltaCompiles         int
	fallbacks, collapses, merges        int
	walAppends, walFacts                int
	// self is each layer's self time over the stream's ops, by op class
	// ("query" or "append"); streamFrom is the first of those ops.
	self       map[string]map[string]time.Duration
	streamFrom int

	heap, gcAt uint64 // live heap at the last reading; collect at gcAt
}

func newSelf() map[string]map[string]time.Duration {
	return map[string]map[string]time.Duration{"query": {}, "append": {}}
}

// maxDeltaChain mirrors the service's hard bound on Extend depth.
const maxDeltaChain = 256

func (t *tracedPass) span(parent, op int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.began).Nanoseconds(), End: end.Sub(t.began).Nanoseconds()})
	return id
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mallocs reads the allocation counters; ReadMemStats flushes the
// per-P caches, which makes the deltas exact for a sequential caller.
func (t *tracedPass) mallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.heap = m.HeapAlloc
	return m.Mallocs, m.TotalAlloc
}

// collect runs the garbage collector between timed calls once the
// garbage amounts to half the live heap, which is half-way to the
// runtime's own trigger. An ordinary call then never shares its CPU
// with a mark phase that another level's garbage set off, which
// halves the repeat-to-repeat noise of a solve; a call that allocates
// more than the live heap by itself still meets the collector, as it
// does in the server. What a layer allocates is reported beside its
// time.
func (t *tracedPass) collect() {
	if t.heap < t.gcAt {
		return
	}
	runtime.GC()
	t.mallocs()
	t.gcAt = t.heap + max(t.heap/2, 16<<20)
}

func (t *tracedPass) newLevel(dir string) (*level, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc := server.New(t.cfg)
	if _, err := svc.Open(dir); err != nil {
		return nil, err
	}
	return &level{svc: svc, handler: server.NewHandler(svc), dir: dir}, nil
}

// runTraced replays the workload's set-up, the first tracedOps of its
// stream, a crash recovery and the shutdown checkpoint through every
// shadow level. e2e, when the end-to-end pass ran in the same
// command, prices the tracing overhead.
func runTraced(cfg *config, in *instance, e2e *e2eResult) (*traceResult, []span, error) {
	t := &tracedPass{in: in, began: time.Now(), seen: map[string]bool{},
		res:  &traceResult{Workload: in.w.Name, Seed: in.seed, Correct: true, Metrics: map[string]metric{}},
		self: newSelf()}
	// One solver slot: a batch's item solves then run one after
	// another, like the replay itself, and sibling spans never overlap.
	// No background snapshots: nothing runs beside a timed call.
	t.cfg = server.Config{Workers: 1, Fsync: in.w.Fsync, Shards: in.w.Shards}
	root := filepath.Join(cfg.workDir, fmt.Sprintf("traced-%s-%d", in.w.Name, os.Getpid()))
	defer os.RemoveAll(root)

	var err error
	if t.rt, err = t.newLevel(filepath.Join(root, "roundtrip")); err != nil {
		return nil, nil, err
	}
	defer t.rt.svc.Close(context.Background())
	if t.http, err = t.newLevel(filepath.Join(root, "http")); err != nil {
		return nil, nil, err
	}
	defer t.http.svc.Close(context.Background())
	if t.svc, err = t.newLevel(filepath.Join(root, "service")); err != nil {
		return nil, nil, err
	}
	defer t.svc.svc.Close(context.Background())
	t.ts = httptest.NewServer(t.rt.handler)
	defer t.ts.Close()
	t.hc = t.ts.Client()
	st := t.svc.svc.Stats()
	t.maxFrac, t.maxResident, t.maxBytes = st.DeltaCompile.MaxFraction, st.Memory.MaxResidentCompiled, st.Memory.MaxCompiledBytes

	t.storeDir = filepath.Join(root, "durable")
	if t.store, _, err = durable.Open(t.storeDir, t.durableOptions(), nil); err != nil {
		return nil, nil, err
	}
	defer func() { t.store.Close() }()

	// Set-up, as the end-to-end pass does it: the chunked load, the
	// first query and the cache warm-up. These ops feed the layer
	// metrics; the hit ratio and the shares describe the stream alone.
	for _, c := range chunks(in.db.allPairs()) {
		t.apply(&op{Kind: opAppend, Parent: c})
	}
	t.apply(&op{Kind: opQuery, Source: in.db.nodes[len(in.db.nodes)-1]})
	for _, s := range in.warmup() {
		t.apply(&op{Kind: opQuery, Source: s})
	}
	t.streamFrom = len(t.ops)
	t.self = newSelf()
	for _, o := range in.prefix(tracedOps(cfg.scale)) {
		t.apply(&o)
	}
	// Under the interval policy the ticker may not have come round in a
	// short pass; this is the sync it would have made.
	if err := t.store.Sync(); err != nil {
		return nil, nil, err
	}
	t.takeFsyncs()
	if err := t.recoverFromCrashImage(root); err != nil {
		return nil, nil, err
	}
	if err := t.checkpoint(); err != nil {
		return nil, nil, err
	}
	t.res.Attempted = len(t.ops)
	t.derive(e2e)
	return t.res, t.spans, nil
}

func (t *tracedPass) durableOptions() durable.Options {
	return durable.Options{Fsync: t.in.w.Fsync, OnFsync: func(d time.Duration) {
		t.fsyncMu.Lock()
		t.fsyncs = append(t.fsyncs, d)
		t.fsyncMu.Unlock()
	}}
}

// takeFsyncs files the fsync durations observed since the last call
// under durable.wal.fsync_us and returns them.
func (t *tracedPass) takeFsyncs() []time.Duration {
	t.fsyncMu.Lock()
	defer t.fsyncMu.Unlock()
	out := t.fsyncs
	t.fsyncs = nil
	for _, d := range out {
		t.fsyncUS = append(t.fsyncUS, us(d))
	}
	return out
}

// apply runs one op through every level, outermost first.
func (t *tracedPass) apply(o *op) {
	id := len(t.ops)
	smp := opSample{kind: o.Kind, items: len(o.Sources)}
	body := o.body()

	// client.roundtrip
	start := time.Now()
	resp, err := t.hc.Post(t.ts.URL+o.path(), "application/json", bytes.NewReader(body))
	var rtBody []byte
	if err == nil {
		rtBody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rtBody))
		}
	}
	end := time.Now()
	if err != nil {
		t.res.fail("op %d %s: client.roundtrip: %v", id, o.Kind, err)
	}
	smp.rt = end.Sub(start)
	rtID := t.span(-1, id, "client.roundtrip", start, end)

	// server.http
	req := httptest.NewRequest(http.MethodPost, o.path(), bytes.NewReader(body))
	rec := httptest.NewRecorder()
	a0, _ := t.mallocs()
	start = time.Now()
	t.http.handler.ServeHTTP(rec, req)
	end = time.Now()
	a1, _ := t.mallocs()
	if rec.Code != http.StatusOK {
		t.res.fail("op %d %s: server.http: status %d: %s", id, o.Kind, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	smp.http, smp.httpAllocs, smp.respBytes = end.Sub(start), a1-a0, rec.Body.Len()
	httpID := t.span(rtID, id, "server.http", start, end)

	// server.service and below
	var answers map[string][]string
	switch o.Kind {
	case opQuery:
		a0, b0 := t.mallocs()
		start = time.Now()
		r, err := t.svc.svc.Query(context.Background(), server.QueryRequest{Source: o.Source})
		end = time.Now()
		a1, b1 := t.mallocs()
		smp.svcAllocs, smp.svcBytes = a1-a0, b1-b0
		svcID := t.span(httpID, id, "server.service", start, end)
		if err != nil {
			t.res.fail("op %d query %s: server.service: %v", id, o.Source, err)
			break
		}
		smp.cached = r.Cached
		answers = map[string][]string{o.Source: r.Answers}
		if !r.Cached {
			smp.children = t.solveShadow(svcID, id, o.Source, r.Answers)
		}
	case opBatch:
		start = time.Now()
		r, err := t.svc.svc.QueryBatch(context.Background(), server.BatchRequest{Sources: o.Sources})
		end = time.Now()
		svcID := t.span(httpID, id, "server.service", start, end)
		if err != nil {
			t.res.fail("op %d batch: server.service: %v", id, err)
			break
		}
		answers = map[string][]string{}
		for _, it := range r.Items {
			if it.Error != "" {
				t.res.fail("op %d batch item %s: %s", id, it.Source, it.Error)
			}
			answers[it.Source] = it.Answers
			if !it.Cached {
				smp.children += t.solveShadow(svcID, id, it.Source, it.Answers)
			}
		}
	case opAppend:
		a0, b0 := t.mallocs()
		start = time.Now()
		_, err := t.svc.svc.AppendFacts(server.FactsRequest{Parent: o.Parent})
		end = time.Now()
		a1, b1 := t.mallocs()
		smp.svcAllocs, smp.svcBytes = a1-a0, b1-b0
		svcID := t.span(httpID, id, "server.service", start, end)
		if err != nil {
			t.res.fail("op %d append: server.service: %v", id, err)
			break
		}
		smp.children = t.appendShadow(svcID, id, o.Parent)
	}
	if answers != nil {
		t.sameBody(id, "client.roundtrip", o.Kind, rtBody, answers)
		t.sameBody(id, "server.http", o.Kind, rec.Body.Bytes(), answers)
	}
	smp.svc = end.Sub(start)
	smp.negative = smp.http > smp.rt || smp.svc > smp.http || smp.children > smp.svc
	t.ops = append(t.ops, smp)
	t.collect()

	class := "query"
	if o.Kind == opAppend {
		class = "append"
	}
	t.self[class]["server.http"] += smp.http - smp.svc
	t.self[class]["server.service"] += smp.svc - smp.children
	t.self[class]["total"] += smp.http
}

// sameBody checks that a level's response body carries the answers
// the service level gave: for a singleton the answers field, for a
// batch every item's.
func (t *tracedPass) sameBody(id int, levelName string, kind opKind, body []byte, want map[string][]string) {
	got := map[string][]string{}
	var err error
	if kind == opBatch {
		var batch server.BatchResponse
		err = json.Unmarshal(body, &batch)
		for _, it := range batch.Items {
			got[it.Source] = it.Answers
		}
	} else {
		var single server.QueryResponse
		err = json.Unmarshal(body, &single)
		for s := range want {
			got[s] = single.Answers
		}
	}
	if err != nil {
		t.res.fail("op %d: %s: %v", id, levelName, err)
		return
	}
	for s, w := range want {
		if !sameSet(got[s], w) {
			t.res.fail("op %d: %s answers %d names for %s, server.service %d", id, levelName, len(got[s]), s, len(w))
		}
	}
}

// sameSet compares two answer lists as sets.
func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

// routeReps times ShardOf in a run: one call is shorter than the
// clock's own cost.
const routeReps = 32

// solveShadow does on the core shadow what a cache miss makes the
// service do — compile if there is no artifact, select, solve — and
// checks the answers against the service's. It returns the time its
// spans, the children of the service span, add up to.
func (t *tracedPass) solveShadow(parent, id int, source string, want []string) time.Duration {
	class := t.self["query"]
	var total time.Duration
	var art artifact
	t.collect() // a batch solves many items within one op
	if t.in.w.Shards > 1 {
		if t.sharded == nil {
			start := time.Now()
			t.sharded = core.CompileSharded(t.l, t.e, t.r, core.ShardOpts{Shards: t.in.w.Shards})
			end := time.Now()
			t.span(parent, id, "core.shard.compile", start, end)
			d := end.Sub(start)
			t.shardCompileMS = append(t.shardCompileMS, ms(d))
			t.coldMS = append(t.coldMS, ms(d))
			t.fullCompiles++
			total += d
			class["core.shard.compile"] += d
		}
		start := time.Now()
		for i := 0; i < routeReps; i++ {
			t.sharded.ShardOf(source)
		}
		run := time.Since(start)
		d := run / routeReps
		t.span(parent, id, "core.shard.route", start, start.Add(d))
		t.routeNS = append(t.routeNS, float64(run)/routeReps)
		total += d
		class["core.shard.route"] += d
		art = t.sharded
	} else {
		if t.mono == nil {
			start := time.Now()
			t.mono = core.Compile(t.l, t.e, t.r)
			end := time.Now()
			t.span(parent, id, "core.compile", start, end)
			d := end.Sub(start)
			t.coldMS = append(t.coldMS, ms(d))
			t.fullCompiles++
			total += d
			class["core.compile"] += d
		}
		art = t.mono
	}

	start := time.Now()
	sel := art.ChooseMethod(source)
	end := time.Now()
	t.span(parent, id, "core.select", start, end)
	t.chooseUS = append(t.chooseUS, us(end.Sub(start)))
	total += end.Sub(start)
	class["core.select"] += end.Sub(start)

	opts := core.Options{SCCStep1: sel.Options.SCCStep1}
	a0, b0 := t.mallocs()
	start = time.Now()
	res, err := art.Solve(source, sel.Strategy, sel.Mode, opts)
	end = time.Now()
	a1, b1 := t.mallocs()
	solveID := t.span(parent, id, "core.solve", start, end)
	if err != nil {
		t.res.fail("op %d: core.solve %s: %v", id, source, err)
		return total
	}
	t.solveUS = append(t.solveUS, us(end.Sub(start)))
	t.solveAllocs = append(t.solveAllocs, float64(a1-a0))
	t.solveBytes = append(t.solveBytes, float64(b1-b0))
	t.retrievals += res.Stats.Retrievals
	t.solves++
	total += end.Sub(start)
	class["core.solve"] += end.Sub(start)
	if !sameSet(res.Answers, want) {
		t.res.fail("op %d: core answers %d names for %s, server.service %d", id, len(res.Answers), source, len(want))
	}

	// The Step 1 / Step 2 split comes from a second solve with the
	// public core.Options.Trace armed, so the span above stays the
	// untraced cost the service pays.
	opts.Trace = obs.New("solve", 0)
	start = time.Now()
	if _, err := art.Solve(source, sel.Strategy, sel.Mode, opts); err != nil {
		t.res.fail("op %d: traced core.solve %s: %v", id, source, err)
		return total
	}
	for _, step := range opts.Trace.Finish(0).Children {
		name, _, _ := strings.Cut(step.Name, "/")
		from := start.Add(time.Duration(step.StartMS * float64(time.Millisecond)))
		d := time.Duration(step.DurationMS * float64(time.Millisecond))
		switch name {
		case "step1":
			t.step1US = append(t.step1US, us(d))
		case "step2":
			t.step2US = append(t.step2US, us(d))
		default:
			continue
		}
		t.span(solveID, id, "core.solve."+name, from, from.Add(d))
	}
	return total
}

func (t *tracedPass) shouldCollapse(c *core.Compiled) bool {
	depth := c.DeltaDepth()
	return depth >= maxDeltaChain ||
		t.maxResident > 0 && depth >= t.maxResident ||
		t.maxBytes > 0 && c.ResidentBytes() > t.maxBytes
}

// flatten collapses an Extend chain under a core.flatten span.
func (t *tracedPass) flatten(parent, id int, c *core.Compiled) (*core.Compiled, time.Duration) {
	start := time.Now()
	flat := c.Flatten()
	end := time.Now()
	t.span(parent, id, "core.flatten", start, end)
	t.flattenMS = append(t.flattenMS, ms(end.Sub(start)))
	t.collapses++
	t.self["append"]["core.flatten"] += end.Sub(start)
	return flat, end.Sub(start)
}

// appendShadow does on the core and durable shadows what an append
// makes the service do: log the deduplicated delta, then roll the
// artifact forward by the service's own policy.
func (t *tracedPass) appendShadow(parent, id int, pairs []core.Pair) time.Duration {
	class := t.self["append"]
	var total time.Duration
	var dE []core.Pair
	for _, p := range pairs {
		for _, n := range [2]string{p.From, p.To} {
			if !t.seen[n] {
				t.seen[n] = true
				dE = append(dE, core.P(n, n))
			}
		}
	}
	facts, added := len(t.l)+len(t.e)+len(t.r), 2*len(pairs)+len(dE)
	t.l, t.e, t.r = append(t.l, pairs...), append(t.e, dE...), append(t.r, pairs...)

	// durable.wal
	t.gen++
	t.takeFsyncs()
	start := time.Now()
	err := t.store.Append(durable.Record{Gen: t.gen, L: pairs, E: dE, R: pairs})
	end := time.Now()
	if err != nil {
		t.res.fail("op %d: durable.wal: %v", id, err)
	}
	walID := t.span(parent, id, "durable.wal", start, end)
	for _, d := range t.takeFsyncs() {
		// Under fsync always the sync is the tail of the append; under
		// interval it ran on the store's ticker and is no child of it.
		if t.in.w.Fsync == durable.FsyncAlways {
			t.span(walID, id, "durable.wal.fsync", end.Add(-d), end)
		}
	}
	t.walUS = append(t.walUS, us(end.Sub(start)))
	t.walAppends++
	t.walFacts += added
	total += end.Sub(start)
	class["durable.wal"] += end.Sub(start)

	if t.in.w.Shards > 1 {
		if t.sharded == nil {
			return total
		}
		start = time.Now()
		next, st := t.sharded.Extend(pairs, dE, pairs, t.maxFrac)
		end = time.Now()
		d := end.Sub(start)
		if st.Merges > 0 {
			t.span(parent, id, "core.shard.merge", start, end)
			t.mergeMS = append(t.mergeMS, ms(d))
			class["core.shard.merge"] += d
		} else {
			t.span(parent, id, "core.shard.extend", start, end)
			t.shardExtendUS = append(t.shardExtendUS, us(d))
			class["core.shard.extend"] += d
		}
		total += d
		t.merges += st.Merges
		t.deltaCompiles += st.DeltaExtended
		t.fullCompiles += st.Rebuilt
		for _, slot := range st.Touched {
			if c := next.ShardArtifact(slot); c.DeltaDepth() > 0 && t.shouldCollapse(c) {
				flat, d := t.flatten(parent, id, c)
				next.SetShardArtifact(slot, flat)
				total += d
			}
		}
		t.sharded = next
		return total
	}

	if t.mono == nil {
		return total
	}
	if float64(added)/float64(facts+added) > t.maxFrac {
		// A bulk append: the service drops the artifact and lets the
		// next miss compile cold.
		t.fallbacks++
		t.mono = nil
		return total
	}
	_, b0 := t.mallocs()
	start = time.Now()
	next := t.mono.Extend(pairs, dE, pairs)
	end = time.Now()
	_, b1 := t.mallocs()
	t.span(parent, id, "core.delta", start, end)
	t.extendUS = append(t.extendUS, us(end.Sub(start)))
	t.extendBytes = append(t.extendBytes, float64(b1-b0))
	t.deltaCompiles++
	total += end.Sub(start)
	class["core.delta"] += end.Sub(start)
	if t.shouldCollapse(next) {
		var d time.Duration
		next, d = t.flatten(parent, id, next)
		total += d
	}
	t.mono = next
	return total
}

// copyDir copies the regular files of src into a fresh dst: the image
// a crash at this instant would leave on disk.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// recoverFromCrashImage opens a fresh Service and a fresh Store on
// copies of the live data directories, as a restart after kill -9
// would, and checks that they come back at the live generation.
func (t *tracedPass) recoverFromCrashImage(root string) error {
	id := len(t.ops)
	image := filepath.Join(root, "service-image")
	if err := copyDir(t.svc.dir, image); err != nil {
		return err
	}
	recovered := server.New(t.cfg)
	start := time.Now()
	_, err := recovered.Open(image)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("server.service Open on the crash image: %w", err)
	}
	defer recovered.Close(context.Background())
	svcID := t.span(-1, id, "server.service", start, end)
	smp := opSample{special: "open", svc: end.Sub(start)}
	if got, want := recovered.Stats().Generation, t.svc.svc.Stats().Generation; got != want {
		t.res.fail("service recovered at generation %d, the live one is at %d", got, want)
	}

	image = filepath.Join(root, "durable-image")
	if err := copyDir(t.storeDir, image); err != nil {
		return err
	}
	start = time.Now()
	st, info, err := durable.Open(image, durable.Options{Fsync: t.in.w.Fsync}, nil)
	end = time.Now()
	if err != nil {
		return fmt.Errorf("durable.Open on the crash image: %w", err)
	}
	defer st.Close()
	t.span(svcID, id, "durable.recover", start, end)
	smp.children = end.Sub(start)
	smp.negative = smp.children > smp.svc
	if info.Generation != t.gen {
		t.res.fail("store recovered at generation %d, %d were logged", info.Generation, t.gen)
	}
	t.res.Metrics["server.service.open_ms"] = metric{Value: ms(smp.svc), Unit: "ms", Detail: "Service.Open on a crash image"}
	t.res.Metrics["durable.recover.open_ms"] = metric{Value: ms(smp.children), Unit: "ms", Detail: "durable.Open on a crash image"}
	t.res.Metrics["durable.recover.replayed_records"] = metric{Value: float64(info.ReplayedRecords), Unit: "count"}
	t.ops = append(t.ops, smp)
	return nil
}

// dirBytes sums the sizes of dir's files whose names start with prefix.
func dirBytes(dir, prefix string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// checkpoint is the snapshot a graceful shutdown writes.
func (t *tracedPass) checkpoint() error {
	id := len(t.ops)
	facts := len(t.l) + len(t.e) + len(t.r)
	walBytes, err := dirBytes(t.storeDir, "wal-")
	if err != nil {
		return err
	}
	t.res.Metrics["durable.wal.bytes_per_fact"] = metric{Value: float64(walBytes) / float64(t.walFacts), Unit: "bytes",
		Detail: fmt.Sprintf("%d log bytes for %d facts", walBytes, t.walFacts)}

	start := time.Now()
	err = t.svc.svc.Checkpoint()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("server.service Checkpoint: %w", err)
	}
	svcID := t.span(-1, id, "server.service", start, end)
	smp := opSample{special: "checkpoint", svc: end.Sub(start)}

	// The service snapshots its artifact with the facts, compiling one
	// if none is resident; a sharded service snapshots facts only.
	var comp *core.Compiled
	if t.in.w.Shards <= 1 {
		if t.mono == nil {
			start = time.Now()
			t.mono = core.Compile(t.l, t.e, t.r)
			end = time.Now()
			t.span(svcID, id, "core.compile", start, end)
			t.coldMS = append(t.coldMS, ms(end.Sub(start)))
			t.fullCompiles++
			smp.children += end.Sub(start)
		}
		comp = t.mono
	}
	floor, err := t.store.Rotate()
	if err != nil {
		return err
	}
	start = time.Now()
	err = t.store.WriteSnapshot(durable.Snapshot{Gen: t.gen, L: t.l, E: t.e, R: t.r, Compiled: comp}, floor)
	end = time.Now()
	if err != nil {
		return fmt.Errorf("durable WriteSnapshot: %w", err)
	}
	t.span(svcID, id, "durable.snapshot", start, end)
	t.snapshotMS = append(t.snapshotMS, ms(end.Sub(start)))
	smp.children += end.Sub(start)
	smp.negative = smp.children > smp.svc
	snapBytes, err := dirBytes(t.storeDir, "snap-")
	if err != nil {
		return err
	}
	t.res.Metrics["durable.snapshot.bytes_per_fact"] = metric{Value: float64(snapBytes) / float64(facts), Unit: "bytes",
		Detail: fmt.Sprintf("%d snapshot bytes for %d facts", snapBytes, facts)}
	t.ops = append(t.ops, smp)
	return nil
}

// derive turns the samples into the per-layer metrics.
func (t *tracedPass) derive(e2e *e2eResult) {
	m := t.res.Metrics
	put := func(name, unit string, samples []float64) {
		if len(samples) == 0 {
			return // the layer did no such work on this workload
		}
		m[name] = metric{Value: midmean(samples), Unit: unit, Spread: iqr(samples),
			Detail: fmt.Sprintf("interquartile mean of %d", len(samples))}
	}
	count := func(name string, n int) {
		m[name] = metric{Value: float64(n), Unit: "count"}
	}

	var querySelf, respBytes, httpAllocs, factsSelf, hit, missSelf, batchItem, appendSelf, appendBytes, rtQuery []float64
	var hits, misses, negatives int
	var svcTotal, childTotal time.Duration
	for i, o := range t.ops {
		if o.negative {
			negatives++
		}
		svcTotal += o.svc
		childTotal += o.children
		if o.special != "" {
			continue
		}
		switch o.kind {
		case opQuery:
			rtQuery = append(rtQuery, ms(o.rt))
			querySelf = append(querySelf, us(o.http-o.svc))
			respBytes = append(respBytes, float64(o.respBytes))
			httpAllocs = append(httpAllocs, float64(o.httpAllocs)-float64(o.svcAllocs))
			if o.cached {
				hit = append(hit, us(o.svc))
			} else {
				missSelf = append(missSelf, us(o.svc-o.children))
			}
			if i >= t.streamFrom {
				if o.cached {
					hits++
				} else {
					misses++
				}
			}
		case opBatch:
			batchItem = append(batchItem, us(o.svc)/float64(o.items))
		case opAppend:
			factsSelf = append(factsSelf, us(o.http-o.svc))
			appendSelf = append(appendSelf, us(o.svc-o.children))
			appendBytes = append(appendBytes, float64(o.svcBytes))
		}
	}
	put("server.http.query_self_us", "us", querySelf)
	put("server.http.resp_bytes_per_query", "bytes", respBytes)
	put("server.http.allocs_per_query", "count", httpAllocs)
	put("server.http.facts_self_us", "us", factsSelf)
	put("server.service.hit_us", "us", hit)
	put("server.service.miss_self_us", "us", missSelf)
	put("server.service.batch_item_us", "us", batchItem)
	put("server.service.append_self_us", "us", appendSelf)
	put("server.service.bytes_per_append", "bytes", appendBytes)
	if hits+misses > 0 {
		m["server.service.cache_hit_ratio"] = metric{Value: float64(hits) / float64(hits+misses), Unit: "ratio",
			Detail: fmt.Sprintf("%d hits, %d misses among the stream's singleton queries", hits, misses)}
	}
	put("core.select.choose_us", "us", t.chooseUS)
	put("core.solve.solve_us", "us", t.solveUS)
	put("core.solve.step1_us", "us", t.step1US)
	put("core.solve.step2_us", "us", t.step2US)
	put("core.solve.allocs_per_solve", "count", t.solveAllocs)
	put("core.solve.bytes_per_solve", "bytes", t.solveBytes)
	if t.solves > 0 {
		m["core.solve.retrievals_per_query"] = metric{Value: float64(t.retrievals) / float64(t.solves), Unit: "count",
			Detail: fmt.Sprintf("%d tuple retrievals over %d solves, exact", t.retrievals, t.solves)}
	}
	put("core.compile.cold_ms", "ms", t.coldMS)
	count("core.compile.full_compiles", t.fullCompiles)
	put("core.delta.extend_us", "us", t.extendUS)
	put("core.delta.bytes_per_extend", "bytes", t.extendBytes)
	count("core.delta.delta_compiles", t.deltaCompiles)
	count("core.delta.fallbacks", t.fallbacks)
	put("core.flatten.flatten_ms", "ms", t.flattenMS)
	count("core.flatten.collapses", t.collapses)
	put("core.shard.compile_ms", "ms", t.shardCompileMS)
	put("core.shard.route_ns", "ns", t.routeNS)
	put("core.shard.extend_us", "us", t.shardExtendUS)
	put("core.shard.merge_ms", "ms", t.mergeMS)
	count("core.shard.merges", t.merges)
	put("durable.wal.append_us", "us", t.walUS)
	put("durable.wal.fsync_us", "us", t.fsyncUS)
	count("durable.wal.appends", t.walAppends)
	put("durable.snapshot.write_ms", "ms", t.snapshotMS)
	count("durable.snapshot.count", len(t.snapshotMS))

	m["trace.coverage"] = metric{Value: float64(childTotal) / float64(svcTotal), Unit: "ratio",
		Detail: "share of the server.service spans explained by lower-layer shadow calls"}
	m["trace.negative_self_frac"] = metric{Value: float64(negatives) / float64(len(t.ops)), Unit: "fraction",
		Detail: fmt.Sprintf("%d of %d ops had children outlasting a parent", negatives, len(t.ops))}
	if e2e != nil && len(rtQuery) > 0 {
		if q, ok := e2e.Metrics["query_p50_ms"]; ok {
			m["trace.overhead_frac"] = metric{Value: median(rtQuery)/q.Value - 1, Unit: "fraction",
				Detail: "traced roundtrip p50 over end-to-end query_p50_ms, minus 1"}
		}
	}

	t.res.Shares = map[string]map[string]float64{}
	for class, layers := range t.self {
		total := layers["total"]
		if total == 0 {
			continue
		}
		t.res.Shares[class] = map[string]float64{}
		for layer, d := range layers {
			if layer != "total" {
				t.res.Shares[class][layer] = float64(d) / float64(total)
			}
		}
	}
}

func printTraced(w io.Writer, r *traceResult) {
	fmt.Fprintf(w, "== %s: traced pass (seed %d, %d ops through every shadow level, %d failed)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed)
	printMetrics(w, r.Metrics, append(append([]metricDef(nil), driverPerLayer...), otherPerLayer...)) // universal ones first
	for _, class := range []string{"query", "append"} {
		shares := r.Shares[class]
		if shares == nil {
			continue
		}
		var parts []string
		for _, layer := range sortedKeys(shares) {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", layer, 100*shares[layer]))
		}
		fmt.Fprintf(w, "  self time as a share of the server.http spans, %s ops: %s\n", class, strings.Join(parts, " "))
	}
	printVerdict(w, r.Correct, r.Errors)
}
