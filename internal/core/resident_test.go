package core

import (
	"math/rand"
	"testing"
)

// residentGroundTruth recomputes a flat artifact's resident-byte
// estimate from first principles: it asserts the artifact really is
// in flat form (at most one symbol-overlay link per domain) and then
// walks every page of every table with the estimator's published
// constants written out literally, independent of the totals
// ResidentBytes reads.
func residentGroundTruth(t *testing.T, c *Compiled) int64 {
	t.Helper()
	var b int64
	for _, tab := range []*names{&c.lNames, &c.rNames} {
		pages := tab.pages
		if len(tab.tail) > 0 {
			pages = append(pages[:len(pages):len(pages)], tab.tail)
		}
		b += int64(len(pages)) * 24 // page headers
		for _, p := range pages {
			for _, s := range p {
				b += 16 + int64(len(s)) // string header and characters
			}
		}
	}
	for _, syms := range []*symTable{&c.lid, &c.rid} {
		if syms.links() > 1 {
			t.Fatal("ground truth needs a flat artifact, got an overlay chain")
		}
		b += int64(len(syms.base)) * 48 // interning map entries
		if syms.ov != nil {
			b += int64(len(syms.ov.m))*48 + 24
		}
	}
	for _, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		for _, p := range append(g.pages[:len(g.pages):len(g.pages)], g.tail) {
			if p != nil {
				b += 24 + int64(len(p))*4 // page header, offsets and arcs
			}
		}
	}
	return b
}

// TestResidentBytesExactOnFlat is the estimator-exactness property
// across seeded instances: on a flat artifact (cold compile, and a
// Flatten of any Extend chain) the estimate must equal the recomputed
// ground-truth walk, and the flat estimate must never exceed the
// chain's estimate.
func TestResidentBytesExactOnFlat(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng)

		cold := Compile(q.L, q.E, q.R)
		if got, want := cold.ResidentBytes(), residentGroundTruth(t, cold); got != want {
			t.Fatalf("seed %d: cold estimate %d, ground truth %d", seed, got, want)
		}

		// Build a chain over a random split, then flatten it.
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
