package core

import (
	"fmt"
	"math/rand"
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
// artifact holds about 10k facts or about 100k. The appends run as the
// serving layer runs them, a chain collapsed every 8 links.
func TestExtendCostIsDelta(t *testing.T) {
	const budget = 128 << 10
	var cost []int64
	for _, n := range []int{3_400, 34_000} {
		q := forestDB(n, 1)
		c := Compile(q.L, q.E, q.R)
		l, e, r := c.Arcs()
		b := allocBytes(64, func(i int) {
			if c = c.Extend(linkDelta(i, n)); c.DeltaDepth() == 8 {
				c = c.Flatten()
			}
		})
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

// TestFlattenCostIsChain pins that collapsing a chain costs what the
// chain added: a depth-8 chain of 1-link appends on about 100k facts
// flattens within a small allocation budget, to depth 0 with at most
// one overlay link per symbol domain.
func TestFlattenCostIsChain(t *testing.T) {
	const n, budget = 34_000, 256 << 10
	q := forestDB(n, 2)
	chain := Compile(q.L, q.E, q.R)
	for i := 0; i < 8; i++ {
		chain = chain.Extend(linkDelta(i, n))
	}
	var flat *Compiled
	b := allocBytes(8, func(int) { flat = chain.Flatten() })
	t.Logf("Flatten of a depth-%d chain: %d B", chain.DeltaDepth(), b)
	if b > budget {
		t.Errorf("Flatten of a depth-%d chain allocates %d B, budget %d", chain.DeltaDepth(), b, budget)
	}
	if flat.DeltaDepth() != 0 {
		t.Errorf("DeltaDepth = %d after Flatten", flat.DeltaDepth())
	}
	for _, ov := range []*symOv{flat.lidOv, flat.ridOv} {
		if ov != nil && ov.prev != nil {
			t.Errorf("Flatten left an overlay chain of more than one link")
		}
	}
	if err := flat.StructuralEqual(chain); err != nil {
		t.Fatal(err)
	}
}
