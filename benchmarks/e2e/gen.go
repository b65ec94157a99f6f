package main

// Seeded generators: the region forests the children are loaded with
// and the four op streams. Everything here is a pure function of
// (seed, scale); the program under test receives only the requests
// these generators render.

import (
	"math"
	"math/rand"
	"strconv"
	"strings"

	"magiccounting/internal/core"
	"magiccounting/internal/durable"
)

// regionKind is the Figure-3 regime a region's magic graph falls in
// for (almost) every source inside it.
type regionKind uint8

const (
	kindRegular regionKind = iota // a tree: every ancestor at one distance
	kindAcyclic                   // tree + skip arcs: some ancestors at several distances
	kindCyclic                    // tree + a back arc above the root: ancestors recur
)

// region is one weakly connected component of a forest: a layered
// parent relation over its own node names. A pair (child, parent) is
// an L and an R fact and contributes identity E facts, the classic
// same-generation instance.
type region struct {
	nodes []string // layer-major; nodes[0] is the root
	last  int      // index of the first node of the deepest layer
	pairs []core.Pair
}

// forest is a generated database.
type forest struct {
	regions []*region
	nodes   []string // every node, region-major
	npairs  int
}

// facts is the fact count the server must report after the bulk load:
// one L and one R fact per pair, one identity E fact per node.
func (f *forest) facts() int { return 2*f.npairs + len(f.nodes) }

func (f *forest) add(r *region) {
	f.regions = append(f.regions, r)
	f.nodes = append(f.nodes, r.nodes...)
	f.npairs += len(r.pairs)
}

// allPairs returns the parent pairs in load order.
func (f *forest) allPairs() []core.Pair {
	out := make([]core.Pair, 0, f.npairs)
	for _, r := range f.regions {
		out = append(out, r.pairs...)
	}
	return out
}

// Sizes at scale 1. The main forest is ~110k facts (≈37.6k pairs over
// ≈35k nodes) in 200 regions; the hot forest is ~30k facts in 30
// complete 4-ary trees whose deepest generation holds 256 nodes, so a
// hot answer is ≥256 names and its indented JSON body ≥4 KB.
const (
	mainRegions   = 200
	regionLayers  = 7
	regionMinSize = 155
	regionMaxSize = 205
	bigRegionSize = 260 // regions 0 and 1: strictly the two largest
	skipArcFrac   = 0.10
	hotTrees      = 30
	hotBranch     = 4
	hotDepth      = 4
	hotPerTree    = 20
	tracedOpsFull = 1000
)

// scaled multiplies a scale-1 count, keeping at least min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		return min
	}
	return v
}

// layeredRegion grows a region of n nodes in regionLayers layers whose
// widths roughly double, every non-root node taking one parent in the
// layer above; the kind adds its regime-forcing arcs.
func layeredRegion(rng *rand.Rand, id int, kind regionKind, n int) *region {
	r := &region{}
	widths := make([]int, regionLayers)
	total := 0
	for i := range widths {
		widths[i] = 1 << i
		total += widths[i]
	}
	starts := make([]int, regionLayers+1)
	used := 0
	for i := range widths {
		w := widths[i] * n / total
		if i == 0 || w < 1 {
			w = 1
		}
		if i == regionLayers-1 {
			w = n - used
		}
		starts[i] = used
		used += w
	}
	starts[regionLayers] = used
	r.nodes = make([]string, used)
	for i := range r.nodes {
		r.nodes[i] = "r" + strconv.Itoa(id) + "n" + strconv.Itoa(i)
	}
	r.last = starts[regionLayers-1]
	for l := 1; l < regionLayers; l++ {
		for i := starts[l]; i < starts[l+1]; i++ {
			up := starts[l-1] + rng.Intn(starts[l]-starts[l-1])
			r.pairs = append(r.pairs, core.P(r.nodes[i], r.nodes[up]))
			if kind == kindAcyclic && l >= 2 && rng.Float64() < skipArcFrac {
				// A second parent two layers up: its ancestors are now
				// reached at two distances (multiple nodes, no cycle).
				up2 := starts[l-2] + rng.Intn(starts[l-1]-starts[l-2])
				r.pairs = append(r.pairs, core.P(r.nodes[i], r.nodes[up2]))
			}
		}
	}
	if kind == kindCyclic {
		// The root's "parent" is a layer-2 node, which climbs back to
		// the root: every source reaches the cycle.
		down := starts[2] + rng.Intn(starts[3]-starts[2])
		r.pairs = append(r.pairs, core.P(r.nodes[0], r.nodes[down]))
	}
	return r
}

// mainForest is the 110k-fact database of read-cold, append-durable
// and mixed-sharded. Kinds rotate so auto-selection meets every
// regime. Regions 0 and 1 are strictly the largest, so a
// largest-first packing puts them on different shards and the
// bridging append of mixed-sharded forces exactly one merge.
func mainForest(seed int64, scale float64) *forest {
	rng := rand.New(rand.NewSource(seed<<8 | 1))
	f := &forest{}
	for id := 0; id < scaled(mainRegions, scale, 6); id++ {
		n := regionMinSize + rng.Intn(regionMaxSize-regionMinSize+1)
		if id < 2 {
			n = bigRegionSize
		}
		f.add(layeredRegion(rng, id, regionKind(id%3), n))
	}
	return f
}

// hotForest is read-hot's database: complete trees, so a query from a
// deepest-generation node answers with that whole generation.
func hotForest(scale float64) *forest {
	f := &forest{}
	for id := 0; id < scaled(hotTrees, scale, 2); id++ {
		r := &region{nodes: []string{"t" + strconv.Itoa(id) + "n0"}}
		layerStart, layerEnd := 0, 1
		for d := 1; d <= hotDepth; d++ {
			r.last = len(r.nodes)
			for p := layerStart; p < layerEnd; p++ {
				for b := 0; b < hotBranch; b++ {
					name := "t" + strconv.Itoa(id) + "n" + strconv.Itoa(len(r.nodes))
					r.nodes = append(r.nodes, name)
					r.pairs = append(r.pairs, core.P(name, r.nodes[p]))
				}
			}
			layerStart, layerEnd = layerEnd, len(r.nodes)
		}
		f.add(r)
	}
	return f
}

// hotKeys picks hotPerTree deepest-generation nodes per tree: 600 keys
// at scale 1, inside the server's default 1024-entry result cache.
func hotKeys(f *forest, seed int64) []string {
	rng := rand.New(rand.NewSource(seed<<8 | 2))
	var keys []string
	for _, r := range f.regions {
		deepest := r.nodes[r.last:]
		for _, i := range rng.Perm(len(deepest))[:hotPerTree] {
			keys = append(keys, deepest[i])
		}
	}
	return keys
}

// opKind names one request class.
type opKind uint8

const (
	opQuery opKind = iota
	opBatch
	opAppend
)

var opKindNames = [...]string{"query", "batch", "append"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated request. An append's parent pairs climb from an
// existing node (or from nowhere, for a fresh region) through fresh
// nodes; the op that follows it on the same client queries Probe, the
// topmost fresh node, whose only answer is itself.
type op struct {
	Kind    opKind
	Source  string      // opQuery
	Probe   bool        // opQuery: read-after-write probe of the preceding append
	Sources []string    // opBatch
	Parent  []core.Pair // opAppend
}

var opPaths = [...]string{"/v1/query", "/v1/query/batch", "/v1/facts"}

func (o *op) path() string { return opPaths[o.Kind] }

// body renders the request JSON. Node names are generated ASCII
// without quotes or escapes, so plain concatenation is exact.
func (o *op) body() []byte {
	switch o.Kind {
	case opQuery:
		return []byte(`{"source":"` + o.Source + `"}`)
	case opBatch:
		return []byte(`{"sources":["` + strings.Join(o.Sources, `","`) + `"]}`)
	default:
		return []byte(factsBody(o.Parent))
	}
}

func factsBody(parent []core.Pair) string {
	var b strings.Builder
	b.WriteString(`{"parent":[`)
	for i, p := range parent {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"from":"` + p.From + `","to":"` + p.To + `"}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

// workload describes one of the four traffic mixes. Every child runs
// with -data-dir, so each workload ends in a kill -9 recovery; the
// fields are the flags that differ, all others stay at their defaults.
type workload struct {
	Name string
	Why  string
	// Fsync and SnapshotEvery are the child's -fsync and
	// -snapshot-every; Shards > 1 adds -shards.
	Fsync         durable.FsyncPolicy
	SnapshotEvery int
	Shards        int
	// Hot selects the tree forest and its hot keys.
	Hot bool
}

func (w *workload) flags() []string {
	f := []string{"-fsync", w.Fsync.String(), "-snapshot-every", strconv.Itoa(w.SnapshotEvery)}
	if w.Shards > 1 {
		f = append(f, "-shards", strconv.Itoa(w.Shards))
	}
	return f
}

var workloads = []workload{
	{
		Name:  "read-hot",
		Why:   "600 hot keys with >=4 KB answers fit the result cache: HTTP decode/encode and the service hit path do the work, core almost none",
		Fsync: durable.FsyncAlways,
		Hot:   true,
	},
	{
		Name:  "read-cold",
		Why:   "uniform sources over ~36k nodes defeat the 1024-entry cache: select and solve dominate, HTTP is noise; the bypass for cache and HTTP changes",
		Fsync: durable.FsyncAlways,
	},
	{
		Name:          "append-durable",
		Why:           "fsync-always appends of 1-4 fresh links each followed by a probe query: dedupe, publish, delta Extend, Flatten, WAL write and fsync, snapshots",
		Fsync:         durable.FsyncAlways,
		SnapshotEvery: 10000,
	},
	{
		Name:          "mixed-sharded",
		Why:           "Zipf reads, batches and cache-purging appends on -shards 4 with one bridging merge: a read-side gain that costs writes, or the reverse, shows here",
		Fsync:         durable.FsyncInterval,
		SnapshotEvery: 5000,
		Shards:        4,
	},
}

func (w *workload) index() int {
	for i := range workloads {
		if &workloads[i] == w {
			return i
		}
	}
	panic("workload not in table: " + w.Name)
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// instance is one workload bound to a seed: its database and whatever
// its streams draw from.
type instance struct {
	w      *workload
	seed   int64
	db     *forest
	hot    []string // read-hot key set
	byRank []string // mixed-sharded: Zipf rank -> node
	// bridgeAt is the index in client 0's stream of mixed-sharded's
	// single bridging append: the midpoint of the traced prefix, which
	// alternates the two clients op by op.
	bridgeAt int
}

func newInstance(w *workload, seed int64, scale float64) *instance {
	in := &instance{w: w, seed: seed, bridgeAt: tracedOps(scale) / 4}
	if w.Hot {
		in.db = hotForest(scale)
		in.hot = hotKeys(in.db, seed)
		return in
	}
	in.db = mainForest(seed, scale)
	if w.Name == "mixed-sharded" {
		in.byRank = zipfRanks(in.db, seed)
	}
	return in
}

// zipfRanks orders the nodes by popularity. The ranks go round the
// regions, deepest generation first, so the few keys that carry most
// of a Zipf(1.2) stream always spread over the three region kinds the
// same way and the seed only picks which node of a region it is. With
// a free permutation the regime of the top two or three keys moved
// query_p50_ms by ±15% from seed to seed.
func zipfRanks(f *forest, seed int64) []string {
	rng := rand.New(rand.NewSource(seed<<8 | 3))
	perRegion := make([][]string, len(f.regions))
	for i, r := range f.regions {
		order := append([]string(nil), r.nodes...)
		deep, rest := order[r.last:], order[:r.last]
		rng.Shuffle(len(deep), func(a, b int) { deep[a], deep[b] = deep[b], deep[a] })
		rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
		perRegion[i] = append(deep, rest...)
	}
	ranks := make([]string, 0, len(f.nodes))
	for round := 0; len(ranks) < len(f.nodes); round++ {
		for _, nodes := range perRegion {
			if round < len(nodes) {
				ranks = append(ranks, nodes[round])
			}
		}
	}
	return ranks
}

func tracedOps(scale float64) int { return scaled(tracedOpsFull, scale, 80) }

// warmup lists the queries that fill the cache before timing starts:
// users of a hot key set see the steady state, not the first touch.
func (in *instance) warmup() []string { return in.hot }

const (
	coldBatchSize = 64
	// read-cold ends with a batch phase: the last batchTail of the timed
	// phase and the last 1% of the traced prefix. Interleaved, each
	// batch parked one singleton of the other client behind up to 63
	// items, about 0.7% of the singletons: query_p99_ms sat on the edge
	// of that mode and swung 4x between seeds. mixed-sharded keeps
	// batches among the singletons, where they collide often enough for
	// a steady p99.
	batchTail = 0.15
	// mixed-sharded deals its op classes from a shuffled deck, so every
	// run of mixedDeck ops holds the same 80/5/15 mix and only the order
	// depends on the seed.
	mixedDeck      = 20
	mixedBatches   = 1
	mixedAppends   = 3
	mixedBatchSize = 16
	zipfS          = 1.2
	freshRegionOf  = 20 // mixed-sharded: 1 append in 20 starts a region
)

// stream is one client's endless op sequence.
type stream struct {
	in      *instance
	client  int
	rng     *rand.Rand
	zipf    *rand.Zipf
	n       int    // ops generated
	appends int    // appends generated, names the fresh nodes
	probe   string // pending probe of the last append
	bridged bool   // mixed-sharded client 0: the bridging append is out
	deck    []opKind
	// batchPhase switches read-cold from singletons to batches; the
	// caller sets it from the clock or the op index.
	batchPhase bool
}

func (in *instance) stream(client int) *stream {
	s := &stream{in: in, client: client}
	s.rng = rand.New(rand.NewSource(in.seed<<8 | (0x10 + int64(in.w.index())<<2 + int64(client))))
	if in.byRank != nil {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(in.byRank)-1))
	}
	return s
}

func (s *stream) node() string { return s.in.db.nodes[s.rng.Intn(len(s.in.db.nodes))] }

func (s *stream) zipfNode() string { return s.in.byRank[s.zipf.Uint64()] }

// climb appends links fresh nodes above from ("" starts a region at a
// fresh node): from -> f1 -> ... -> fk, each fresh node the parent of
// the one below. The probe is fk.
func (s *stream) climb(from string, links int) op {
	prefix := "w" + strconv.Itoa(s.client) + "x" + strconv.Itoa(s.appends) + "_"
	s.appends++
	o := op{Kind: opAppend}
	if from == "" {
		from = prefix + "base"
	}
	for j := 0; j < links; j++ {
		name := prefix + strconv.Itoa(j)
		o.Parent = append(o.Parent, core.P(from, name))
		from = name
	}
	s.probe = from
	return o
}

// next returns the client's next op.
func (s *stream) next() op {
	i := s.n
	s.n++
	if s.probe != "" {
		o := op{Kind: opQuery, Source: s.probe, Probe: true}
		s.probe = ""
		return o
	}
	switch s.in.w.Name {
	case "read-hot":
		return op{Kind: opQuery, Source: s.in.hot[s.rng.Intn(len(s.in.hot))]}
	case "read-cold":
		if s.batchPhase {
			o := op{Kind: opBatch, Sources: make([]string, coldBatchSize)}
			for j := range o.Sources {
				o.Sources[j] = s.node()
			}
			return o
		}
		return op{Kind: opQuery, Source: s.node()}
	case "append-durable":
		return s.climb(s.node(), 1+s.rng.Intn(4))
	default: // mixed-sharded
		if s.client == 0 && i >= s.in.bridgeAt && !s.bridged {
			// One fresh node becomes a common parent of the roots of
			// regions 0 and 1, joining the two largest regions.
			s.bridged = true
			name := "bridge" + strconv.Itoa(s.appends)
			s.appends++
			s.probe = name
			return op{Kind: opAppend, Parent: []core.Pair{
				core.P(s.in.db.regions[0].nodes[0], name),
				core.P(s.in.db.regions[1].nodes[0], name),
			}}
		}
		if len(s.deck) == 0 {
			s.deck = make([]opKind, mixedDeck)
			for j, at := range s.rng.Perm(mixedDeck) {
				switch {
				case j < mixedBatches:
					s.deck[at] = opBatch
				case j < mixedBatches+mixedAppends:
					s.deck[at] = opAppend
				}
			}
		}
		kind := s.deck[0]
		s.deck = s.deck[1:]
		switch {
		case kind == opQuery:
			return op{Kind: opQuery, Source: s.zipfNode()}
		case kind == opBatch:
			o := op{Kind: opBatch, Sources: make([]string, mixedBatchSize)}
			for j := range o.Sources {
				o.Sources[j] = s.zipfNode()
			}
			return o
		case s.rng.Intn(freshRegionOf) == 0:
			return s.climb("", 1+s.rng.Intn(3))
		default:
			return s.climb(s.node(), 1+s.rng.Intn(4))
		}
	}
}

// prefix is the first n ops of the workload in the order the traced
// pass replays them: the two clients alternate op by op, and the last
// 1% come from the batch phase.
func (in *instance) prefix(n int) []op {
	clients := []*stream{in.stream(0), in.stream(1)}
	out := make([]op, n)
	for i := range out {
		c := clients[i%2]
		c.batchPhase = i >= n-max(n/100, 2)
		out[i] = c.next()
	}
	return out
}
