package workload

// This file holds the serving-tier soak mix: a deterministic,
// seed-replayable stream of HTTP-shaped operations — singleton queries
// (auto and explicit methods, trace-sampled), batch queries (duplicate
// sources included, to exercise folding), fact appends sized to land
// on both the delta-compile and fallback paths, stats scrapes, and
// intentional bad-request probes. cmd/mcsoak replays the stream
// against a live mcserved; the same seed always produces the same
// operation sequence, so a failing soak replays from its seed alone.

import (
	"fmt"
	"math/rand"

	"magiccounting/internal/core"
)

// OpKind names one soak operation.
type OpKind uint8

const (
	// OpQuery is a singleton POST /v1/query expected to return 200.
	OpQuery OpKind = iota
	// OpBadQuery is an intentionally invalid singleton query expected
	// to return 400 — the probe that asserts validation failures stay
	// out of the latency percentiles and error counters.
	OpBadQuery
	// OpBatch is a POST /v1/query/batch expected to return 200.
	OpBatch
	// OpAppend is a POST /v1/facts expected to return 200 and bump the
	// generation (every append carries at least one fresh fact).
	OpAppend
	// OpStats is a GET /v1/stats scrape.
	OpStats
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpQuery:
		return "query"
	case OpBadQuery:
		return "bad"
	case OpBatch:
		return "batch"
	case OpAppend:
		return "append"
	default:
		return "stats"
	}
}

// Op is one generated operation. Exactly the fields for its kind are
// set; appends come pre-expanded to raw L/E/R facts so the driver can
// both POST them and feed its generation ledger from the same value.
type Op struct {
	// Seq is the operation's position in the schedule, starting at 0.
	Seq  int
	Kind OpKind

	// OpQuery / OpBadQuery.
	Source         string
	Strategy, Mode string
	Trace          bool

	// OpBatch. Sources may repeat (folding) and may include "" (a
	// per-item bad request).
	Sources []string

	// OpAppend: the delta, disjoint from every fact generated before
	// it (fresh node names), so the server's dedupe never turns the
	// append into a generation-preserving no-op.
	L, E, R []core.Pair
	// Bulk marks an append sized above bulkFrac of the database at
	// generation time: one large Extend on the server.
	Bulk bool
}

// MixConfig tunes a Mix. Fractions are weights in [0, 1]; the
// remainder after BatchFrac+AppendFrac+StatsFrac+BadFrac goes to
// singleton queries.
type MixConfig struct {
	Seed int64
	// BaseLayers and BaseWidth shape the seeded base instance: a
	// layered same-generation DAG (acyclic magic graph, so every
	// explicit strategy is safe to request). Zero selects 6×8.
	BaseLayers, BaseWidth int
	// SkipFrac adds layer-skipping arcs to the base, making some nodes
	// multiple so the auto-selector exercises more than one regime.
	// Zero selects 0.15.
	SkipFrac float64

	BatchFrac, AppendFrac, StatsFrac, BadFrac float64
	// TraceFrac of singleton queries set "trace": true.
	TraceFrac float64
	// ExplicitFrac of singleton queries pin an explicit strategy (and
	// half of those an explicit mode); the rest auto-select.
	ExplicitFrac float64
	// GhostFrac of query sources name a node absent from the database
	// (empty answer set, still a 200).
	GhostFrac float64
	// SourceSkew > 1 draws query sources from a Zipf distribution with
	// that exponent instead of uniformly: low-ranked nodes dominate
	// the stream, concentrating traffic on few graph regions — the
	// shape that makes result caching pay, and that Fact 2 confines
	// to those regions of the one artifact. Values <= 1 keep the
	// uniform draw.
	SourceSkew float64

	// BatchMax bounds batch size (min 2). Zero selects 16.
	BatchMax int
	// AppendMax bounds a small append's chain length. Zero selects 4.
	AppendMax int
	// BulkEvery makes every Nth append bulk (sized to add more than
	// bulkFrac of the resulting database). Zero disables bulk appends.
	BulkEvery int
	// MaxFacts soft-caps database growth: every bulk append multiplies
	// the database by ~1/(1−bulkFrac), so an uncapped stream grows it
	// geometrically (and pushes the end-of-run oracle fixpoints past
	// any CI budget). At the cap, bulk appends demote to small ones and
	// small ones shrink to single links — the generation still churns,
	// the database stops compounding. Zero selects 10000.
	MaxFacts int
}

// bulkFrac is the share of the resulting database a bulk append adds,
// at least: a quarter, large enough that the Extend it costs the
// server is a bulk one.
const bulkFrac = 0.25

func (c MixConfig) withDefaults() MixConfig {
	if c.BaseLayers <= 0 {
		c.BaseLayers = 6
	}
	if c.BaseWidth <= 0 {
		c.BaseWidth = 8
	}
	if c.SkipFrac == 0 {
		c.SkipFrac = 0.15
	}
	if c.BatchMax < 2 {
		c.BatchMax = 16
	}
	if c.AppendMax <= 0 {
		c.AppendMax = 4
	}
	if c.MaxFacts <= 0 {
		c.MaxFacts = 10000
	}
	return c
}

// Mix generates the operation stream. Not safe for concurrent use:
// the driver pulls ops under a lock, which also fixes the request
// sequence — the property the determinism test pins down.
type Mix struct {
	cfg  MixConfig
	rng  *rand.Rand
	base core.Query
	// nodes are the L-side constants queries may name; appends push
	// the roots of their fresh chains so later queries reach new
	// regions of the graph.
	nodes []string
	// facts estimates the database size (appends are disjoint by
	// construction, so the estimate is exact) — the input to bulk
	// append sizing.
	facts int
	// fresh numbers fresh append nodes; seq numbers ops; appends
	// counts appends for the BulkEvery cadence.
	fresh, seq, appends int
}

// NewMix builds the generator and its base instance.
func NewMix(cfg MixConfig) *Mix {
	cfg = cfg.withDefaults()
	m := &Mix{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	m.base = RandomDAG(cfg.Seed, cfg.BaseLayers, cfg.BaseWidth, cfg.SkipFrac)
	seen := make(map[string]bool)
	for _, p := range m.base.L {
		for _, n := range []string{p.From, p.To} {
			if !seen[n] {
				seen[n] = true
				m.nodes = append(m.nodes, n)
			}
		}
	}
	m.facts = len(m.base.L) + len(m.base.E) + len(m.base.R)
	return m
}

// Base returns the instance the driver seeds the server with before
// replaying the stream.
func (m *Mix) Base() core.Query { return m.base }

// Next generates the next operation of the schedule.
func (m *Mix) Next() Op {
	op := Op{Seq: m.seq}
	m.seq++
	roll := m.rng.Float64()
	c := m.cfg
	switch {
	case roll < c.BadFrac:
		op.Kind = OpBadQuery
		m.fillBadQuery(&op)
	case roll < c.BadFrac+c.BatchFrac:
		op.Kind = OpBatch
		m.fillBatch(&op)
	case roll < c.BadFrac+c.BatchFrac+c.AppendFrac:
		op.Kind = OpAppend
		m.fillAppend(&op)
	case roll < c.BadFrac+c.BatchFrac+c.AppendFrac+c.StatsFrac:
		op.Kind = OpStats
	default:
		op.Kind = OpQuery
		m.fillQuery(&op)
	}
	return op
}

var strategies = []string{"basic", "single", "multiple", "recurring"}
var modes = []string{"independent", "integrated"}

func (m *Mix) source() string {
	if m.rng.Float64() < m.cfg.GhostFrac {
		return fmt.Sprintf("ghost%d", m.rng.Intn(1000))
	}
	if m.cfg.SourceSkew > 1 && len(m.nodes) > 1 {
		// A fresh Zipf per draw keeps the stream a pure function of
		// the rng state even as appends grow the node set (rand.Zipf
		// memoizes its imax). Rank 0 is the hottest node; appends
		// push fresh roots to the back, so the hot set stays the base
		// instance's early nodes.
		z := rand.NewZipf(m.rng, m.cfg.SourceSkew, 1, uint64(len(m.nodes)-1))
		return m.nodes[z.Uint64()]
	}
	return m.nodes[m.rng.Intn(len(m.nodes))]
}

func (m *Mix) fillQuery(op *Op) {
	op.Source = m.source()
	if m.rng.Float64() < m.cfg.ExplicitFrac {
		op.Strategy = strategies[m.rng.Intn(len(strategies))]
		if m.rng.Intn(2) == 0 {
			op.Mode = modes[m.rng.Intn(len(modes))]
		}
	}
	op.Trace = m.rng.Float64() < m.cfg.TraceFrac
}

func (m *Mix) fillBadQuery(op *Op) {
	switch m.rng.Intn(4) {
	case 0: // empty source
		op.Source = ""
	case 1: // unknown strategy
		op.Source, op.Strategy = m.source(), "bogus"
	case 2: // unknown mode
		op.Source, op.Strategy, op.Mode = m.source(), strategies[m.rng.Intn(len(strategies))], "bogus"
	default: // mode without strategy
		op.Source, op.Mode = m.source(), modes[m.rng.Intn(len(modes))]
	}
}

func (m *Mix) fillBatch(op *Op) {
	n := 2 + m.rng.Intn(m.cfg.BatchMax-1)
	op.Sources = make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && m.rng.Intn(8) == 0:
			// Deliberate duplicate: exercises in-batch folding.
			op.Sources = append(op.Sources, op.Sources[m.rng.Intn(len(op.Sources))])
		case m.rng.Intn(32) == 0:
			// Deliberate empty source: a per-item bad request.
			op.Sources = append(op.Sources, "")
		default:
			op.Sources = append(op.Sources, m.source())
		}
	}
}

// fillAppend grows the graph with a chain of fresh nodes hanging off
// an existing node — parent-style facts (the pair joins L and R, fresh
// endpoints get identity E arcs), expanded here so the driver's ledger
// sees exactly what the server will add. Fresh names guarantee the
// delta is disjoint from the database: the append always bumps the
// generation, and the client-side fact count stays exact. Arcs only
// run existing→fresh and fresh→fresh, so G_L stays acyclic and every
// explicit strategy remains safe.
func (m *Mix) fillAppend(op *Op) {
	m.appends++
	k := 1 + m.rng.Intn(m.cfg.AppendMax)
	if m.facts >= m.cfg.MaxFacts {
		k = 1 // at the cap: keep the generation churning, stop growing
	} else if m.cfg.BulkEvery > 0 && m.appends%m.cfg.BulkEvery == 0 {
		// Size the chain so added/(facts+added) exceeds bulkFrac: each
		// chain link adds 3 facts (L, R, identity E), so 3k > facts·f/(1−f).
		k = int(float64(m.facts)*bulkFrac/(1-bulkFrac))/3 + 2
		op.Bulk = true
	}
	from := m.nodes[m.rng.Intn(len(m.nodes))]
	var chain []string
	for i := 0; i < k; i++ {
		to := fmt.Sprintf("z%d", m.fresh)
		m.fresh++
		op.L = append(op.L, core.P(from, to))
		op.R = append(op.R, core.P(from, to))
		op.E = append(op.E, core.P(to, to))
		chain = append(chain, to)
		from = to
	}
	// Only the chain root joins the queryable node set: keeping the
	// set's growth bounded keeps query sources concentrated enough for
	// the result cache to see hits.
	m.nodes = append(m.nodes, chain[0])
	m.facts += 3 * k
}

// FactCount reports the generator's running database-size estimate
// (exact, since every generated append is disjoint).
func (m *Mix) FactCount() int { return m.facts }
