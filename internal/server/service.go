// Package server is the serving layer over the core magic counting
// solvers: a long-lived Service owning one always-current compiled
// artifact (core.Compiled) that is the database — it holds the
// relations L, E, and R, answers every query of its generation
// read-only, tells an append which of its facts are new, and is
// rolled forward by every append — plus a bounded worker pool and a
// per-(source, strategy, mode) result cache, purged by every append
// and bounded by evicting an arbitrary entry, so repeated bound
// queries against a slowly-changing database amortize interning,
// Step 1, and Step 2 instead of recomputing them — the workload the
// paper (and the magic-sets literature after it) is about. QueryBatch
// answers many bound constants against one snapshot of the artifact.
//
// cmd/mcserved wraps the Service in a JSON HTTP API.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
	"magiccounting/internal/obs"
)

// ErrBadRequest wraps client errors (empty source, unknown strategy
// or mode) so the HTTP layer can map them to 400 responses.
var ErrBadRequest = errors.New("server: bad request")

// ErrClosed reports a query received after Close; the HTTP layer maps
// it to 503 so load balancers retry elsewhere during shutdown.
var ErrClosed = errors.New("server: service closed")

// Config tunes a Service.
type Config struct {
	// Workers bounds the number of queries solving concurrently;
	// excess requests queue (respecting their context). Zero selects
	// GOMAXPROCS.
	Workers int
	// DefaultTimeout applies to queries that carry no deadline of
	// their own. Zero selects 30 seconds.
	DefaultTimeout time.Duration
	// CacheCap bounds the number of cached results. Zero selects 1024.
	CacheCap int
	// Fsync and FsyncInterval tune the durable store opened by Open
	// (see durable.Options); they have no effect on a memory-only
	// service. The zero Fsync is durable.FsyncAlways.
	Fsync         durable.FsyncPolicy
	FsyncInterval time.Duration
	// SnapshotEvery triggers a background Checkpoint once that many
	// facts have been appended since the last snapshot. Zero disables
	// automatic snapshots (Close still writes a final one).
	SnapshotEvery int
	// Shards is ignored: the service holds one artifact, which confines
	// each miss to what its source reaches (Fact 2) without a router.
	//
	// Deprecated: kept because the end-to-end benchmark's shadow tracer
	// sets it; ROADMAP item 1's [benchmark] half deletes it.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 1024
	}
	return c
}

// cacheKey identifies one cached evaluation. Auto-selected queries
// cache under their own key so a hit skips even the graph
// classification that selection would redo.
type cacheKey struct {
	source   string
	strategy core.Strategy
	mode     core.Mode
	auto     bool
}

// of is k for another source: a request's sources share one method.
func (k cacheKey) of(source string) cacheKey {
	k.source = source
	return k
}

// cacheEntry is a result valid for exactly one database generation.
type cacheEntry struct {
	generation uint64
	result     *core.Result
	strategy   core.Strategy
	mode       core.Mode
	regime     string
	reason     string
}

// Service owns a database of L/E/R facts and answers magic counting
// queries against it. All methods are safe for concurrent use.
type Service struct {
	cfg Config
	sem chan struct{} // worker-pool slots

	// appendMu serializes fact commits end to end — dedupe, the
	// write-ahead log append, and the published generation bump — so
	// record generations are assigned gaplessly and the WAL order
	// matches the commit order. Queries never touch it.
	appendMu sync.Mutex

	mu sync.RWMutex // guards art and the cache
	// art is the database: the compiled artifact of the current
	// generation (art.Generation), never nil, immutable once published
	// and shared read-only by every query that snapshots it. It holds
	// the facts themselves, so appends ask it what is new, checkpoints
	// and stats read the relations from it, and only AppendFacts (under
	// appendMu) and Open ever replace it.
	art   *core.Compiled
	cache map[cacheKey]*cacheEntry

	// dur is the durable store behind Open; nil on a memory-only
	// service. Immutable once set (Open runs before serving), so the
	// hot path reads it without a lock. ckptMu serializes checkpoints;
	// the remaining fields drive the snapshot trigger and durability
	// metrics (see durability.go and metrics.go).
	dur              *durable.Store
	ckptMu           sync.Mutex
	sinceSnap        atomic.Int64
	snapshotting     atomic.Bool
	walAppends       atomic.Int64
	snapshots        atomic.Int64
	snapFailures     atomic.Int64
	recoveryReplayed atomic.Int64
	recoverSpan      *obs.Span
	fsyncHist        *histogram
	snapHist         *histogram

	start time.Time
	// latHist holds singleton-query latencies and batchHist whole-batch
	// ones, apart on purpose: one batch solves up to maxBatchSources
	// items in a single wall-clock sample, so mixed streams would drag
	// the query p99 up with every large batch (and bury batch regressions
	// among the singleton samples). retHist observes NewRetrievals and
	// byMethod/byRegime count answered queries over their closed key
	// spaces; those three and the outcome counters below change in
	// account and nowhere else.
	latHist   *histogram
	batchHist *histogram
	retHist   *histogram
	byMethod  *labeledCounters
	byRegime  *labeledCounters

	closed atomic.Bool

	// deltaCompiles + fullCompiles partition compiles. lastAppendSpan
	// is the most recent append's finished span tree, surfaced in
	// /v1/stats.
	deltaCompiles  atomic.Int64
	fullCompiles   atomic.Int64
	deltaHist      *histogram
	lastAppendSpan atomic.Pointer[obs.Span]

	queries     atomic.Int64
	batches     atomic.Int64
	compiles    atomic.Int64
	rejected    atomic.Int64
	badRequests atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	queryErrors atomic.Int64
	timeouts    atomic.Int64
	factAppends atomic.Int64
	retrievals  atomic.Int64
	traced      atomic.Int64

	// inFlight counts solves currently holding a worker slot. It is
	// tracked separately from len(sem) because Close drains the pool by
	// filling every slot and never releasing them — after a drain,
	// len(sem) permanently reads all-workers-busy, and during the drain
	// it counts Close's own slots as if they were queries.
	inFlight atomic.Int64
}

// New creates a Service with an empty database.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.Workers),
		art:       core.Compile(nil, nil, nil),
		cache:     make(map[cacheKey]*cacheEntry),
		start:     time.Now(),
		latHist:   newHistogram(latencyBuckets...),
		batchHist: newHistogram(latencyBuckets...),
		retHist:   newHistogram(retrievalBuckets...),
		fsyncHist: newHistogram(fsyncBuckets...),
		snapHist:  newHistogram(snapshotBuckets...),
		deltaHist: newHistogram(deltaCompileBuckets...),
		byMethod: newLabeledCounters(
			methodKey("basic", "independent"), methodKey("basic", "integrated"),
			methodKey("single", "independent"), methodKey("single", "integrated"),
			methodKey("multiple", "independent"), methodKey("multiple", "integrated"),
			methodKey("recurring", "independent"), methodKey("recurring", "integrated"),
		),
		byRegime: newLabeledCounters("regular", "acyclic", "cyclic"),
	}
}

// QueryRequest asks for the answers to ?- P(Source, Y). Strategy and
// Mode are the core names ("basic", "single", "multiple", "recurring"
// / "independent", "integrated"); an empty Strategy selects the
// method automatically per the query graph's Figure 3 regime, and an
// empty Mode with an explicit Strategy defaults to "integrated".
type QueryRequest struct {
	Source   string `json:"source"`
	Strategy string `json:"strategy,omitempty"`
	Mode     string `json:"mode,omitempty"`
	TimeoutM int64  `json:"timeout_ms,omitempty"`
	// Trace opts this request into per-stage span recording; the
	// response then carries the span tree. Off by default: the solver
	// hot path pays nothing for untraced requests.
	Trace bool `json:"trace,omitempty"`
}

// Answer is what the service reports about one answered query: the
// part a singleton response and a batch item share.
type Answer struct {
	Answers []string   `json:"answers"`
	Stats   core.Stats `json:"stats"`
	// Strategy and Mode are the method actually run (resolved when
	// auto-selected); empty only on a failed batch item.
	Strategy string `json:"strategy,omitempty"`
	Mode     string `json:"mode,omitempty"`
	// Auto reports that the method was selected automatically; Regime
	// and Reason then carry the Figure-3 justification.
	Auto   bool   `json:"auto"`
	Regime string `json:"regime,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Cached reports a cache hit; NewRetrievals is the tuple
	// retrievals this request itself caused (zero on a hit; equal to
	// Stats.Retrievals on a miss).
	Cached        bool  `json:"cached"`
	NewRetrievals int64 `json:"new_retrievals"`
}

// QueryResponse is one answered query.
type QueryResponse struct {
	Answer
	Generation uint64  `json:"generation"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Trace is the span tree recorded when the request set "trace";
	// its per-stage retrievals sum exactly to NewRetrievals.
	Trace *obs.Span `json:"trace,omitempty"`
}

// ParseStrategy resolves a core strategy name.
func ParseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "basic":
		return core.Basic, nil
	case "single":
		return core.Single, nil
	case "multiple":
		return core.Multiple, nil
	case "recurring":
		return core.Recurring, nil
	}
	return 0, fmt.Errorf("%w: unknown strategy %q (want basic, single, multiple, or recurring)", ErrBadRequest, s)
}

// ParseMode resolves a core mode name.
func ParseMode(s string) (core.Mode, error) {
	switch s {
	case "independent":
		return core.Independent, nil
	case "integrated":
		return core.Integrated, nil
	}
	return 0, fmt.Errorf("%w: unknown mode %q (want independent or integrated)", ErrBadRequest, s)
}

// parseMethod resolves a request's method selection into the cache key
// every source of the request is answered under: an empty strategy
// selects automatically (mode must then be empty too); an explicit
// strategy defaults to integrated mode. Shared by the singleton and
// batch paths so the two cannot drift.
func parseMethod(strategy, mode string) (key cacheKey, err error) {
	if strategy == "" {
		if mode != "" {
			return key, fmt.Errorf("%w: mode %q given without a strategy (omit both for automatic selection)", ErrBadRequest, mode)
		}
		return cacheKey{auto: true}, nil
	}
	if key.strategy, err = ParseStrategy(strategy); err != nil {
		return key, err
	}
	key.mode = core.Integrated
	if mode != "" {
		key.mode, err = ParseMode(mode)
	}
	return key, err
}

// errEmptySource is the one per-source validation failure.
var errEmptySource = errors.New("empty source")

// validateQuery is parseMethod plus the source check, under a
// "validate" span closed on every path. The deferred End matters:
// early error returns used to leave the span open, so anything started
// afterwards on the same trace would nest under a stage that had
// already failed, corrupting the span tree.
func validateQuery(tr *obs.Trace, source, strategy, mode string) (cacheKey, error) {
	vs := tr.Start("validate", 0)
	defer tr.End(vs, 0)
	if source == "" {
		return cacheKey{}, fmt.Errorf("%w: %v", ErrBadRequest, errEmptySource)
	}
	key, err := parseMethod(strategy, mode)
	return key.of(source), err
}

// outcomeKind is how one query, singleton or batch item, ended. Both
// entry points plan (one read-locked pass: snapshot the artifact, answer
// what probeLocked finds cached), execute the misses, store the fresh
// entries and account for every outcome; they differ in how many sources
// they plan and in what they time. The zero kind is none of these.
type outcomeKind uint8

const (
	outHit      outcomeKind = iota + 1 // answered from the cache, or a batch duplicate answered by its first occurrence
	outMiss                            // answered by a solve that ran to completion
	outFailed                          // the slot wait or the solve failed (deadline, cancellation)
	outRejected                        // refused because the service is closed
	outBad                             // refused by validation
)

// outcome is one query's answer — a cache entry, resident or about to
// be — or its error.
type outcome struct {
	kind  outcomeKind
	entry *cacheEntry // outHit, outMiss
	err   error       // outFailed, outRejected, outBad
}

// newRetrievals is what the query itself charged: the solver's meter
// on a miss, nothing otherwise.
func (o outcome) newRetrievals() int64 {
	if o.kind == outMiss {
		return o.entry.result.Stats.Retrievals
	}
	return 0
}

// answer renders o for the wire. A failed outcome (reported per item
// by a batch) keeps the empty, non-nil answer list.
func (o outcome) answer(auto bool) Answer {
	if o.err != nil {
		return Answer{Answers: []string{}, Auto: auto}
	}
	e := o.entry
	return Answer{
		Answers:       nonNilAnswers(e.result.Answers),
		Stats:         e.result.Stats,
		Strategy:      e.strategy.String(),
		Mode:          e.mode.String(),
		Auto:          auto,
		Regime:        e.regime,
		Reason:        e.reason,
		Cached:        o.kind == outHit,
		NewRetrievals: o.newRetrievals(),
	}
}

// account performs every counter update one query's outcome calls for,
// and nothing else touches these counters: each query received ends in
// exactly one of hits, misses, errors, rejected and bad requests, and
// every answered one — hit, folded duplicate or miss — is in byMethod
// and retHist, whichever entry point it came through.
func (s *Service) account(o outcome) {
	switch o.kind {
	case outHit, outMiss:
		if o.kind == outHit {
			s.cacheHits.Add(1)
		} else {
			s.cacheMisses.Add(1)
			s.retrievals.Add(o.newRetrievals())
		}
		s.retHist.observe(float64(o.newRetrievals()))
		s.byMethod.inc(methodKey(o.entry.strategy.String(), o.entry.mode.String()))
		if o.entry.regime != "" { // auto-selected
			s.byRegime.inc(o.entry.regime)
		}
	case outFailed:
		s.queryErrors.Add(1)
		if errors.Is(o.err, context.DeadlineExceeded) {
			s.timeouts.Add(1)
		}
	case outRejected:
		s.rejected.Add(1)
	case outBad:
		s.badRequests.Add(1)
	}
}

// probeLocked returns key's cache entry if it is live for the published
// artifact. Caller holds mu, read or write.
func (s *Service) probeLocked(key cacheKey) *cacheEntry {
	entry := s.cache[key]
	if entry == nil || entry.generation != s.art.Generation {
		return nil
	}
	return entry
}

// withTimeout bounds ctx by the request's timeout_ms, or by the service
// default when the request carries none.
func (s *Service) withTimeout(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(ctx, timeout)
}

// execute answers one cache miss against art — the only caller of
// ChooseMethod and Solve. It waits for a worker slot (a cancelled wait
// counts against the request's own deadline, keeping the pool bounded
// under overload), selects the method when key asks for that, and
// solves. It closes every span it opens and touches no counter.
func (s *Service) execute(ctx context.Context, art *core.Compiled, key cacheKey, tr *obs.Trace) outcome {
	as := tr.Start("acquire", 0)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		tr.End(as, 0)
		return outcome{kind: outFailed, err: ctx.Err()}
	}
	tr.End(as, 0)
	defer func() { <-s.sem }()
	if s.closed.Load() {
		// Close is draining the pool: hand the slot straight back.
		return outcome{kind: outRejected, err: ErrClosed}
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	entry := &cacheEntry{generation: art.Generation, strategy: key.strategy, mode: key.mode}
	opts := core.Options{Ctx: ctx, Trace: tr}
	if key.auto {
		cls := tr.Start("classify", 0)
		sel := art.ChooseMethod(key.source)
		if cls != nil {
			cls.Name = "classify/" + sel.Regime.String()
		}
		tr.End(cls, 0)
		entry.strategy, entry.mode = sel.Strategy, sel.Mode
		entry.regime, entry.reason = sel.Regime.String(), sel.Reason
		opts.SCCStep1 = sel.Options.SCCStep1
	}
	ss := tr.Start("solve", 0)
	res, err := art.Solve(key.source, entry.strategy, entry.mode, opts)
	if err != nil {
		tr.End(ss, 0)
		return outcome{kind: outFailed, err: err}
	}
	tr.End(ss, res.Stats.Retrievals)
	entry.result = res
	return outcome{kind: outMiss, entry: entry}
}

// store caches the entries outs solved fresh (outs[i] answers
// sources[i] under base's method) with one write lock for all of them.
func (s *Service) store(base cacheKey, sources []string, outs []outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range outs {
		if o.kind == outMiss {
			s.storeResultLocked(base.of(sources[i]), o.entry)
		}
	}
}

// Query answers req, from the result cache when it can. A miss is
// bounded by ctx, req.TimeoutM and the service default timeout, whichever
// is tightest, and by a worker-pool slot; a hit waits for nothing.
func (s *Service) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	started := time.Now()
	s.queries.Add(1)
	if s.closed.Load() {
		s.account(outcome{kind: outRejected})
		return nil, ErrClosed
	}
	// tr stays nil for untraced requests; every obs call below is
	// nil-safe, so the untraced path pays one nil check per stage.
	var tr *obs.Trace
	if req.Trace {
		s.traced.Add(1)
		tr = obs.New("query", 0)
	}
	key, err := validateQuery(tr, req.Source, req.Strategy, req.Mode)
	if err != nil {
		s.account(outcome{kind: outBad})
		return nil, err
	}

	// Snapshot the database under the read lock: the artifact is
	// immutable, so a solve runs lock-free on one generation.
	cs := tr.Start("cache", 0)
	s.mu.RLock()
	art := s.art
	o := outcome{kind: outHit, entry: s.probeLocked(key)}
	s.mu.RUnlock()
	if o.entry != nil {
		cs.Set("hit", 1)
		tr.End(cs, 0)
	} else {
		cs.Set("hit", 0)
		tr.End(cs, 0)
		sctx, cancel := s.withTimeout(ctx, req.TimeoutM)
		o = s.execute(sctx, art, key, tr)
		cancel()
		if o.kind == outMiss { // a failed solve has nothing worth the write lock
			s.store(key, []string{req.Source}, []outcome{o})
		}
	}
	s.account(o)
	if o.kind == outRejected {
		return nil, o.err
	}
	// Rejected and invalid requests return without a latency sample:
	// neither reached a solver, and their sub-microsecond turnaround (one
	// client sending garbage, every deploy) would drag p50 toward zero.
	elapsed := time.Since(started)
	s.latHist.observe(elapsed.Seconds())
	if o.err != nil {
		return nil, o.err
	}
	return &QueryResponse{
		Answer:     o.answer(key.auto),
		Generation: art.Generation,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		Trace:      tr.Finish(o.newRetrievals()),
	}, nil
}

// nonNilAnswers pins the no-answers case to an empty non-nil slice so
// the HTTP layer marshals "answers": [], never null — clients index
// into the field without a presence check.
func nonNilAnswers(a []string) []string {
	if a == nil {
		return []string{}
	}
	return a
}

// maxBatchSources bounds one batch request, so that a single request
// cannot monopolize the worker pool for an unbounded stretch.
const maxBatchSources = 1024

// BatchRequest asks for the answers to ?- P(a, Y) for many bound
// constants a at once against one database snapshot: every item
// shares one compiled artifact and one generation, so per-query work
// shrinks to bind-and-solve. Strategy and Mode apply to every item; empty
// Strategy selects per-item automatically. TimeoutM bounds the whole
// batch.
type BatchRequest struct {
	Sources  []string `json:"sources"`
	Strategy string   `json:"strategy,omitempty"`
	Mode     string   `json:"mode,omitempty"`
	TimeoutM int64    `json:"timeout_ms,omitempty"`
}

// BatchItem is one source's outcome. Items fail independently: a
// per-item Error (timeout, shutdown) leaves the rest of the batch
// intact. A duplicate source is folded onto its first occurrence and
// reported Cached with zero NewRetrievals.
type BatchItem struct {
	Source string `json:"source"`
	Answer
	Error string `json:"error,omitempty"`
}

// BatchResponse answers a batch; Items aligns with Sources.
type BatchResponse struct {
	Items      []BatchItem `json:"items"`
	Generation uint64      `json:"generation"`
	ElapsedMS  float64     `json:"elapsed_ms"`
}

// QueryBatch answers every source of req against one snapshot of the
// database: one read-lock pass snapshots the artifact and answers the
// cached sources, and the misses run on at most Workers goroutines,
// each item acquiring a slot like a singleton query would. Per-item failures are reported in the item.
func (s *Service) QueryBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	started := time.Now()
	s.batches.Add(1)
	if len(req.Sources) == 0 {
		return nil, fmt.Errorf("%w: empty sources", ErrBadRequest)
	}
	if len(req.Sources) > maxBatchSources {
		return nil, fmt.Errorf("%w: %d sources exceed the batch limit of %d", ErrBadRequest, len(req.Sources), maxBatchSources)
	}
	base, err := parseMethod(req.Strategy, req.Mode)
	if err != nil {
		return nil, err
	}
	s.queries.Add(int64(len(req.Sources)))
	if s.closed.Load() {
		// Every item is a rejected query, counted after queries so the
		// accounting identity holds across a shutdown.
		for range req.Sources {
			s.account(outcome{kind: outRejected})
		}
		return nil, ErrClosed
	}

	// Plan. One snapshot serves the whole batch: every item evaluates
	// the same immutable generation, however many appends land
	// mid-flight. Only the first occurrence of a source gets an outcome.
	outs := make([]outcome, len(req.Sources))
	first := make(map[string]int, len(req.Sources))
	var misses []int
	s.mu.RLock()
	art := s.art
	for i, src := range req.Sources {
		if _, dup := first[src]; dup {
			continue
		}
		first[src] = i
		if src == "" {
			outs[i] = outcome{kind: outBad, err: errEmptySource}
		} else if entry := s.probeLocked(base.of(src)); entry != nil {
			outs[i] = outcome{kind: outHit, entry: entry}
		} else {
			misses = append(misses, i)
		}
	}
	s.mu.RUnlock()

	// Execute the misses on min(Workers, misses) goroutines, this one
	// included (more could not hold a slot), sharing one cursor.
	if len(misses) > 0 {
		sctx, cancel := s.withTimeout(ctx, req.TimeoutM)
		var cursor atomic.Int64
		work := func() {
			for n := cursor.Add(1); int(n) <= len(misses); n = cursor.Add(1) {
				i := misses[n-1]
				outs[i] = s.execute(sctx, art, base.of(req.Sources[i]), nil)
			}
		}
		var wg sync.WaitGroup
		for w := min(s.cfg.Workers, len(misses)); w > 1; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		cancel()
		s.store(base, req.Sources, outs)
	}

	// Account. A duplicate is one more query of the batch, answered by
	// its first occurrence without a solve of its own: a hit when that
	// one succeeded, the same failure when it did not.
	items := make([]BatchItem, len(req.Sources))
	for i, src := range req.Sources {
		o := outs[first[src]]
		if first[src] != i && o.kind == outMiss {
			o.kind = outHit
		}
		s.account(o)
		items[i] = BatchItem{Source: src, Answer: o.answer(base.auto)}
		if o.err != nil {
			items[i].Error = o.err.Error()
		}
	}

	// One whole-batch wall-time sample, into the batch histogram only
	// (see latHist).
	elapsed := time.Since(started)
	s.batchHist.observe(elapsed.Seconds())
	return &BatchResponse{
		Items:      items,
		Generation: art.Generation,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
	}, nil
}

// current snapshots the published artifact.
func (s *Service) current() *core.Compiled {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.art
}

// storeResultLocked caches entry under key if the generation it was
// solved on is still current: if AppendFacts bumped the generation
// mid-solve, the result reflects the old snapshot and must not serve
// future queries. A first-time key in a full cache evicts one
// arbitrary entry, the first of a map range, whose start Go
// randomises: every append purges the cache, so a policy that ranks
// entries by use has nothing to rank on the traffic that fills it
// (DESIGN.md, "Caching").
func (s *Service) storeResultLocked(key cacheKey, entry *cacheEntry) {
	if s.art.Generation != entry.generation {
		return
	}
	if _, exists := s.cache[key]; !exists && len(s.cache) >= s.cfg.CacheCap {
		for victim := range s.cache {
			delete(s.cache, victim)
			break
		}
	}
	s.cache[key] = entry
}

// FactsRequest appends facts to the database relations. Parent is the
// same-generation convenience: each pair is added to both L and R,
// and identity E pairs are added for both endpoints — the classic
// L = R = parent, E = identity instance built incrementally.
type FactsRequest struct {
	L      []core.Pair `json:"l,omitempty"`
	E      []core.Pair `json:"e,omitempty"`
	R      []core.Pair `json:"r,omitempty"`
	Parent []core.Pair `json:"parent,omitempty"`
}

// FactsResponse reports an append.
type FactsResponse struct {
	Generation uint64 `json:"generation"`
	AddedL     int    `json:"added_l"`
	AddedE     int    `json:"added_e"`
	AddedR     int    `json:"added_r"`
}

// AppendFacts appends the request's pairs that the database does not
// already hold and bumps the cache generation only when something new
// was added: relations are sets, so re-POSTing known facts (a retried
// load, an idempotent producer) is a no-op that leaves every cached
// result valid. Added counts report actually-added pairs, after
// deduplication against the database and within the request.
//
// The commit runs in four steps under appendMu, none of them under a
// query-visible lock except the final pointer swap. The current
// artifact is asked which pairs are new (Novel: it is the database,
// so there is no second copy to consult). On a durable
// service that novel delta is then logged — and, under FsyncAlways,
// fsynced — before anything becomes visible (the write-ahead contract:
// an acknowledged append survives a crash, and a logged-but-
// unacknowledged one is at worst replayed as the exact committed
// delta). The artifact is rolled forward by the delta (roll). Only the
// publish of the new artifact takes the write lock, for one pointer
// swap and the cache purge; queries already holding the previous
// artifact keep evaluating an immutable database.
func (s *Service) AppendFacts(req FactsRequest) (*FactsResponse, error) {
	for _, set := range [][]core.Pair{req.L, req.E, req.R, req.Parent} {
		for _, p := range set {
			if p.From == "" || p.To == "" {
				return nil, fmt.Errorf("%w: pair with empty endpoint %+v", ErrBadRequest, p)
			}
		}
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	addL, addE, addR := req.L, req.E, req.R
	if len(req.Parent) > 0 {
		// Clamped, so the appends never write into the caller's arrays.
		addL = append(addL[:len(addL):len(addL)], req.Parent...)
		addR = append(addR[:len(addR):len(addR)], req.Parent...)
		addE = addE[:len(addE):len(addE)]
		for _, p := range req.Parent {
			addE = append(addE, core.Pair{From: p.From, To: p.From}, core.Pair{From: p.To, To: p.To})
		}
	}
	s.factAppends.Add(1)

	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	art := s.current()
	// Novel returns fresh slices, which the next artifact keeps.
	addL, addE, addR = art.Novel(addL, addE, addR)
	added := len(addL) + len(addE) + len(addR)
	if added == 0 {
		return &FactsResponse{Generation: art.Generation}, nil
	}

	// Write-ahead: appendMu guarantees art is still current, so the
	// record carries the generation this commit will produce, and the
	// delta is duplicate-free — replay concatenates records without
	// re-deduplication.
	if s.dur != nil {
		if err := s.dur.Append(durable.Record{Gen: art.Generation + 1, L: addL, E: addE, R: addR}); err != nil {
			return nil, fmt.Errorf("server: wal append: %w", err)
		}
		s.walAppends.Add(1)
	}

	next := s.roll(art, added, addL, addE, addR)

	// Every cached entry was solved on an older generation, so the
	// publish purges them all rather than leave dead entries holding
	// cache slots.
	s.mu.Lock()
	s.art = next
	clear(s.cache)
	s.mu.Unlock()

	s.maybeSnapshot(added)
	return &FactsResponse{
		Generation: next.Generation,
		AddedL:     len(addL),
		AddedE:     len(addE),
		AddedR:     len(addR),
	}, nil
}

// roll produces the artifact to publish for the generation this commit
// creates: the current one rolled forward by the delta with
// core.Extend, at a cost of O(delta) plus the pages the delta touches,
// whatever share of the database the delta is. Extend bounds its own
// symbol-table chains, so the result is published as it is. The caller
// holds appendMu — and only appendMu — so none of this blocks a query,
// and art cannot go stale before the publish. Each roll is one delta
// compile.
func (s *Service) roll(art *core.Compiled, added int, addL, addE, addR []core.Pair) *core.Compiled {
	tr := obs.New("append", 0)
	sp := tr.Start("delta-compile", 0)
	started := time.Now()
	next := art.Extend(addL, addE, addR)
	next.Generation = art.Generation + 1
	s.deltaHist.observe(time.Since(started).Seconds())
	sp.Set("added", int64(added))
	sp.Set("depth", int64(next.DeltaDepth()))
	tr.End(sp, 0)
	s.compiles.Add(1)
	s.deltaCompiles.Add(1)
	s.lastAppendSpan.Store(tr.Finish(0))
	return next
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Generation      uint64  `json:"generation"`
	FactsL          int     `json:"facts_l"`
	FactsE          int     `json:"facts_e"`
	FactsR          int     `json:"facts_r"`
	Queries         int64   `json:"queries"`
	BatchRequests   int64   `json:"batch_requests"`
	Compiles        int64   `json:"compiles"`
	QueriesRejected int64   `json:"queries_rejected"`
	BadRequests     int64   `json:"bad_requests"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheEntries    int     `json:"cache_entries"`
	QueryErrors     int64   `json:"query_errors"`
	QueryTimeouts   int64   `json:"query_timeouts"`
	FactAppends     int64   `json:"fact_appends"`
	TupleRetrievals int64   `json:"tuple_retrievals"`
	TracedQueries   int64   `json:"traced_queries"`
	Workers         int     `json:"workers"`
	InFlight        int     `json:"in_flight"`
	// Latency* are since-start estimates read off the latency
	// histogram's buckets (histogram.quantile), not a recent window.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// BatchLatency* are the same estimates over whole-batch requests.
	BatchLatencyP50MS float64 `json:"batch_latency_p50_ms"`
	BatchLatencyP99MS float64 `json:"batch_latency_p99_ms"`
	// Durable reports whether a durable store is open; the remaining
	// fields are zero on a memory-only service.
	Durable                 bool  `json:"durable"`
	WALAppends              int64 `json:"wal_appends"`
	Snapshots               int64 `json:"snapshots"`
	SnapshotFailures        int64 `json:"snapshot_failures"`
	RecoveryReplayedRecords int64 `json:"recovery_replayed_records"`
	// DeltaCompile reports the incremental-compilation state (see
	// AppendFacts and roll).
	DeltaCompile DeltaCompileStats `json:"delta_compile"`
	// Memory reports the artifact's resident-bytes estimate and the
	// process heap watermark.
	Memory MemoryStats `json:"memory"`
	// Deprecated: Shards is always nil. The end-to-end benchmark reads
	// it; ROADMAP item 1's [benchmark] half deletes it.
	Shards *ShardsStats `json:"shards,omitempty"`
}

// ShardsStats is what is left of the region-sharding block of Stats.
//
// Deprecated: Stats.Shards is always nil. The end-to-end benchmark
// reads Merges; ROADMAP item 1's [benchmark] half deletes the type.
type ShardsStats struct {
	Merges int64 `json:"merges"`
}

// DeltaCompileStats is the delta-compilation block of Stats.
type DeltaCompileStats struct {
	// DeltaCompiles and FullCompiles partition Compiles.
	DeltaCompiles int64 `json:"delta_compiles"`
	FullCompiles  int64 `json:"full_compiles"`
	// Deprecated: Fallbacks is always 0; no append rebuilds cold.
	Fallbacks int64 `json:"fallbacks"`
	// Deprecated: MaxFraction is always 1: an append extends whatever
	// share of the database it adds.
	MaxFraction float64 `json:"max_fraction"`
	// ChainDepth is the longer overlay chain of the artifact's symbol
	// tables: at most core.MaxOverlayLinks, since Extend folds them
	// itself (0 when cold-compiled or decoded).
	ChainDepth int `json:"chain_depth"`
	// LastAppend is the most recent committed append's span tree.
	LastAppend *obs.Span `json:"last_append,omitempty"`
}

// MemoryStats is the memory block of Stats.
type MemoryStats struct {
	// CompiledBytes is the live artifact's ResidentBytes estimate.
	CompiledBytes int64 `json:"compiled_bytes"`
	// HeapInuseBytes is the runtime's heap-in-use watermark (spans
	// holding live objects, scraped from runtime/metrics) — the field
	// soak harnesses watch for monotonic growth.
	HeapInuseBytes int64 `json:"heap_inuse_bytes"`

	// Deprecated: always zero; appends no longer collapse the artifact.
	ChainCollapses int64 `json:"chain_collapses"`
	// MaxResidentCompiled is core.MaxOverlayLinks, the overlay links a
	// symbol table holds before Extend folds it.
	//
	// Deprecated: it used to echo a configured collapse cap.
	MaxResidentCompiled int `json:"max_resident_compiled"`
	// Deprecated: always zero; there is no resident-bytes cap.
	MaxCompiledBytes int64 `json:"max_compiled_bytes"`
}

// Close marks the service closed and drains the worker pool: new
// queries and appends fail fast with ErrClosed, and Close returns once
// every in-flight solve has released its slot (or ctx expires). The
// drained slots are never released, so the pool stays shut. On a
// durable service Close then writes a final snapshot (so the next
// start recovers without replay) and closes the store; a failed drain
// does not skip that — losing the checkpoint because a query was slow
// would trade a startup cost for nothing. Idempotent: only the first
// call does the work (a second drain of the never-released slots
// would block forever).
func (s *Service) Close(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var errs []error
	if err := s.drain(ctx); err != nil {
		errs = append(errs, err)
	}
	if s.dur != nil {
		// appendMu: no commit may straddle the store shutdown.
		s.appendMu.Lock()
		if err := s.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("server: final checkpoint: %w", err))
		}
		if err := s.dur.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: close durable store: %w", err))
		}
		s.appendMu.Unlock()
	}
	return errors.Join(errs...)
}

// drain fills the worker pool so no further query can take a slot.
func (s *Service) drain(ctx context.Context) error {
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("server: close: %d of %d workers still busy: %w",
				cap(s.sem)-i, cap(s.sem), ctx.Err())
		}
	}
	return nil
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	art := s.art
	entries := len(s.cache)
	s.mu.RUnlock()
	// Everything below reads the artifact, so it runs on the snapshot
	// outside the lock; the artifact is immutable once published.
	fl, fe, fr := art.Arcs()
	return Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Generation:      art.Generation,
		FactsL:          fl,
		FactsE:          fe,
		FactsR:          fr,
		Queries:         s.queries.Load(),
		BatchRequests:   s.batches.Load(),
		Compiles:        s.compiles.Load(),
		QueriesRejected: s.rejected.Load(),
		BadRequests:     s.badRequests.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMisses.Load(),
		CacheEntries:    entries,
		QueryErrors:     s.queryErrors.Load(),
		QueryTimeouts:   s.timeouts.Load(),
		FactAppends:     s.factAppends.Load(),
		TupleRetrievals: s.retrievals.Load(),
		TracedQueries:   s.traced.Load(),
		Workers:         s.cfg.Workers,
		InFlight:        int(s.inFlight.Load()),
		LatencyP50MS:    s.latHist.quantileMS(0.50),
		LatencyP99MS:    s.latHist.quantileMS(0.99),

		BatchLatencyP50MS: s.batchHist.quantileMS(0.50),
		BatchLatencyP99MS: s.batchHist.quantileMS(0.99),

		Durable:                 s.dur != nil,
		WALAppends:              s.walAppends.Load(),
		Snapshots:               s.snapshots.Load(),
		SnapshotFailures:        s.snapFailures.Load(),
		RecoveryReplayedRecords: s.recoveryReplayed.Load(),

		DeltaCompile: DeltaCompileStats{
			DeltaCompiles: s.deltaCompiles.Load(),
			FullCompiles:  s.fullCompiles.Load(),
			MaxFraction:   1,
			ChainDepth:    art.DeltaDepth(),
			LastAppend:    s.lastAppendSpan.Load(),
		},

		Memory: MemoryStats{
			CompiledBytes:       art.ResidentBytes(),
			HeapInuseBytes:      heapInuseBytes(),
			MaxResidentCompiled: core.MaxOverlayLinks,
		},
	}
}
