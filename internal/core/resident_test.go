package core

import (
	"math/rand"
	"testing"
)

// residentGroundTruth recomputes a flat artifact's resident-byte
// estimate from first principles: it asserts the artifact really is
// in flat form (no Extend chain, no symbol overlays, no row-form
// graphs) and then walks every table with the estimator's published
// constants written out literally, independent of ResidentBytes'
// own traversal.
func residentGroundTruth(t *testing.T, c *Compiled) int64 {
	t.Helper()
	if c.depth != 0 {
		t.Fatalf("ground truth needs a flat artifact, got depth %d", c.depth)
	}
	if c.lidOv != nil || c.ridOv != nil {
		t.Fatal("ground truth needs a flat artifact, got symbol overlays")
	}
	var b int64
	for _, names := range [][]string{c.lNames, c.rNames} {
		b += int64(len(names)) * 16 // string headers
		for _, s := range names {
			b += int64(len(s))
		}
	}
	b += int64(len(c.lid)+len(c.rid)) * 48 // interning map entries
	for _, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		if g.rows != nil {
			t.Fatal("ground truth needs a flat artifact, got a row-form graph")
		}
		b += int64(len(g.off)+len(g.arcs)) * 4
	}
	return b
}

// TestResidentBytesExactOnFlat is the estimator-exactness property
// across seeded instances: on a flat artifact (cold compile, and a
// Flatten of any Extend chain) the estimate must equal the recomputed
// ground-truth walk, and the flat estimate must never exceed the
// chain's estimate — the direction a retention policy relies on when
// it collapses a chain to get back under budget.
func TestResidentBytesExactOnFlat(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng)

		cold := Compile(q.L, q.E, q.R)
		if got, want := cold.ResidentBytes(), residentGroundTruth(t, cold); got != want {
			t.Fatalf("seed %d: cold estimate %d, ground truth %d", seed, got, want)
		}

		// Build a chain over a random split, then collapse it.
		cut := func(p []Pair) ([]Pair, []Pair) {
			k := rng.Intn(len(p) + 1)
			return p[:k], p[k:]
		}
		bl, dl := cut(q.L)
		be, de := cut(q.E)
		br, dr := cut(q.R)
		chain := Compile(bl, be, br).Extend(dl, de, dr)
		flat := chain.Flatten()
		if got, want := flat.ResidentBytes(), residentGroundTruth(t, flat); got != want {
			t.Fatalf("seed %d: flattened estimate %d, ground truth %d", seed, got, want)
		}
		if flat.ResidentBytes() > chain.ResidentBytes() {
			t.Fatalf("seed %d: flat estimate %d exceeds the chain's %d",
				seed, flat.ResidentBytes(), chain.ResidentBytes())
		}
	}
}
