package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// forestDB is a same-generation database over n nodes, each node's
// parent drawn at random from the nodes before it: about 3n facts, the
// shape the serving benchmarks append to.
func forestDB(n int, seed int64) Query {
	rng := rand.New(rand.NewSource(seed))
	parent := make([]Pair, 0, n-1)
	for i := 1; i < n; i++ {
		parent = append(parent, P(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", rng.Intn(i))))
	}
	return SameGeneration(parent, "v0")
}

// linkDelta is append i of the serving benchmarks' shape: one fresh
// node climbing above an existing one.
func linkDelta(i, n int) (dL, dE, dR []Pair) {
	old, fresh := fmt.Sprintf("v%d", (i*7919)%n), fmt.Sprintf("fresh%d", i)
	return []Pair{P(old, fresh)}, []Pair{P(fresh, fresh)}, []Pair{P(old, fresh)}
}

// allocBytes reports the bytes f allocates per call, averaged over runs.
func allocBytes(runs int, f func(i int)) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// TestExtendCostIsDelta pins that a 1-link Extend allocates in
// proportion to the delta and the pages it touches, not to the
// database: the same append costs the same few pages whether the
// artifact holds about 10k facts or about 100k. The average includes
// the folds the symbol tables run on themselves every MaxOverlayLinks
// links.
func TestExtendCostIsDelta(t *testing.T) {
	const budget = 128 << 10
	var cost []int64
	for _, n := range []int{3_400, 34_000} {
		q := forestDB(n, 1)
		c := Compile(q.L, q.E, q.R)
		l, e, r := c.Arcs()
		b := allocBytes(64, func(i int) { c = c.Extend(linkDelta(i, n)) })
		t.Logf("%d facts: %d B per 1-link Extend", l+e+r, b)
		if b > budget {
			t.Errorf("%d facts: a 1-link Extend allocates %d B, budget %d", l+e+r, b, budget)
		}
		cost = append(cost, b)
	}
	if cost[1] > 2*cost[0] {
		t.Errorf("a 1-link Extend allocates %d B on the large artifact, more than twice the %d B on the small one", cost[1], cost[0])
	}
}

// TestBulkExtendCostsLessThanCompile pins what lets every append
// extend, however large: on about 100k facts, one Extend adding the
// last quarter or the last half of every relation allocates less than
// a cold Compile of the whole database, and compiles the same one.
func TestBulkExtendCostsLessThanCompile(t *testing.T) {
	q := forestDB(34_000, 1)
	var cold *Compiled
	whole := allocBytes(3, func(int) { cold = Compile(q.L, q.E, q.R) })
	for _, frac := range []float64{0.25, 0.5} {
		cut := func(p []Pair) int { return len(p) - int(float64(len(p))*frac) }
		l, e, r := cut(q.L), cut(q.E), cut(q.R)
		base := Compile(q.L[:l], q.E[:e], q.R[:r])
		var ext *Compiled
		b := allocBytes(3, func(int) { ext = base.Extend(q.L[l:], q.E[e:], q.R[r:]) })
		t.Logf("last %.0f%%: Extend %d B, cold Compile %d B (%.2fx)", 100*frac, b, whole, float64(b)/float64(whole))
		if b >= whole {
			t.Errorf("an Extend adding the last %.0f%% allocates %d B, a cold Compile of the whole %d B", 100*frac, b, whole)
		}
		if err := ext.StructuralEqual(cold); err != nil {
			t.Fatalf("last %.0f%%: %v", 100*frac, err)
		}
	}
}

// TestMissCostIsReach pins that a miss allocates in proportion to what
// its source reaches, not to the database: on about 10k facts and on
// about 100k, auto-selection and every method that has a reached set —
// the eight magic counting methods, the Tarjan Step 1, magic sets and
// the two counting methods — allocate within a fixed budget per query,
// and the large database costs at most twice the small one. Both
// sources are children of the forest's root, which the two databases
// draw identically: each reaches two L-nodes, and its answers, the
// root's children, number about ln n.
func TestMissCostIsReach(t *testing.T) {
	const budget = 4 << 10
	type method struct {
		name  string
		solve func(c *Compiled, source string) error
	}
	methods := []method{
		{"auto", func(c *Compiled, s string) error { _, _, err := c.SolveAuto(s, Options{}); return err }},
		{"recurring/integrated/scc", func(c *Compiled, s string) error {
			_, err := c.Solve(s, Recurring, Integrated, Options{SCCStep1: true})
			return err
		}},
		{"magic", func(c *Compiled, s string) error { _, err := c.SolveMagic(s); return err }},
		{"counting", func(c *Compiled, s string) error { _, err := c.SolveCounting(s, Options{}); return err }},
		{"counting-cyclic", func(c *Compiled, s string) error { _, err := c.SolveCountingCyclic(s, Options{}); return err }},
	}
	for _, spec := range allMagicCountingSpecs() {
		spec := spec
		methods = append(methods, method{spec.Strategy.String() + "/" + spec.Mode.String(), func(c *Compiled, s string) error {
			_, err := c.Solve(s, spec.Strategy, spec.Mode, Options{})
			return err
		}})
	}
	cost := make(map[string][]int64)
	for _, n := range []int{3_400, 34_000} {
		q := forestDB(n, 1)
		c := Compile(q.L, q.E, q.R)
		for _, m := range methods {
			var err error
			b := allocBytes(64, func(i int) {
				if e := m.solve(c, []string{"v1", "v6"}[i%2]); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%s on %d nodes: %v", m.name, n, err)
			}
			t.Logf("%d nodes, %s: %d B per miss", n, m.name, b)
			if b > budget {
				t.Errorf("%d nodes: a %s miss allocates %d B, budget %d", n, m.name, b, budget)
			}
			cost[m.name] = append(cost[m.name], b)
		}
	}
	for _, m := range methods {
		if c := cost[m.name]; c[1] > 2*c[0] {
			t.Errorf("a %s miss allocates %d B on the large database, more than twice the %d B on the small one", m.name, c[1], c[0])
		}
	}
}

// TestFlattenCostIsChain pins that folding a chain costs what the chain
// added, whether Extend runs the fold on its own every MaxOverlayLinks
// links or Flatten runs it now: a depth-8 chain of 1-link appends on
// about 100k facts flattens within a small allocation budget, to at
// most one overlay link per symbol domain.
func TestFlattenCostIsChain(t *testing.T) {
	const n, budget = 34_000, 256 << 10
	q := forestDB(n, 2)
	chain := Compile(q.L, q.E, q.R)
	for i := 0; i < MaxOverlayLinks; i++ {
		chain = chain.Extend(linkDelta(i, n))
	}
	var flat *Compiled
	b := allocBytes(8, func(int) { flat = chain.Flatten() })
	t.Logf("Flatten of a depth-%d chain: %d B", chain.DeltaDepth(), b)
	if b > budget {
		t.Errorf("Flatten of a depth-%d chain allocates %d B, budget %d", chain.DeltaDepth(), b, budget)
	}
	if flat.DeltaDepth() > 1 {
		t.Errorf("DeltaDepth = %d after Flatten, want at most 1", flat.DeltaDepth())
	}
	if err := flat.StructuralEqual(chain); err != nil {
		t.Fatal(err)
	}
}

// TestExtendChainStaysBounded runs 2,000 one-link appends on about 100k
// facts through one artifact and through a 4-shard one, with no
// Flatten anywhere: after every step each symbol table, the router's
// included, holds at most MaxOverlayLinks overlay links, and each Extend
// stays within TestExtendCostIsDelta's budget on average, folds
// included. At the end both chains answer every probe exactly as the
// cold compile of the same facts does, retrieval counts included, and
// the monolithic one is structurally that compile.
func TestExtendChainStaysBounded(t *testing.T) {
	const n, steps, budget = 34_000, 2_000, 128 << 10
	q := forestDB(n, 2)
	l, e, r := q.L, q.E, q.R
	for i := 0; i < steps; i++ {
		dL, dE, dR := linkDelta(i, n)
		l, e, r = append(l, dL...), append(e, dE...), append(r, dR...)
	}
	cold := Compile(l, e, r)

	mono := Compile(q.L, q.E, q.R)
	b := allocBytes(steps, func(i int) {
		if mono = mono.Extend(linkDelta(i, n)); mono.DeltaDepth() > MaxOverlayLinks {
			t.Fatalf("step %d: %d overlay links", i, mono.DeltaDepth())
		}
	})
	t.Logf("%d B per 1-link Extend over %d steps", b, steps)
	if b > budget {
		t.Errorf("a 1-link Extend allocates %d B on average over %d steps, budget %d", b, steps, budget)
	}
	if err := mono.StructuralEqual(cold); err != nil {
		t.Fatal(err)
	}

	sc := CompileSharded(q.L, q.E, q.R, ShardOpts{Shards: 4})
	for i := 0; i < steps; i++ {
		dL, dE, dR := linkDelta(i, n)
		var st ShardExtendStats
		if sc, st = sc.Extend(dL, dE, dR, 0); st.DeltaExtended != 1 {
			t.Fatalf("step %d: %+v, want one delta Extend", i, st)
		}
		for _, slot := range sc.liveSlots() {
			if d, links := sc.ShardArtifact(slot).DeltaDepth(), max(sc.routeL.links(), sc.routeR.links()); d > MaxOverlayLinks || links > MaxOverlayLinks {
				t.Fatalf("step %d: %d overlay links in shard %d, %d in the router", i, d, slot, links)
			}
		}
	}

	for _, src := range []string{q.Source, "v4242", "fresh0", fmt.Sprintf("fresh%d", steps-1), "absent"} {
		for _, a := range []interface {
			Solve(string, Strategy, Mode, Options) (*Result, error)
		}{mono, sc} {
			want, werr := cold.Solve(src, Multiple, Integrated, Options{})
			got, gerr := a.Solve(src, Multiple, Integrated, Options{})
			if werr != nil || gerr != nil {
				t.Fatalf("%s: %T: %v; cold: %v", src, a, gerr, werr)
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) || got.Stats != want.Stats {
				t.Fatalf("%s: %T answers %d names %+v, cold %d names %+v",
					src, a, len(got.Answers), got.Stats, len(want.Answers), want.Stats)
			}
		}
	}
}
