// Delta-compilation equivalence suite: Extend(dL,dE,dR) on a
// compiled prefix must be indistinguishable from a cold Compile over
// the concatenated relations — structurally (same symbol tables, same
// per-row CSR contents and order, same magic graph) and
// observationally (byte-identical Results, Stats included, for every
// method). The suite drives seeded workload.RandomRegime instances
// through randomized prefix/delta splits, multi-step extend chains,
// and the snapshot codec, and a fuzz target extends the split search.
package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/workload"
)

// splitQuery cuts each relation of q at the given fractions of its
// length: the prefix plays the already-compiled database, the tail
// the append delta.
func splitQuery(q core.Query, fl, fe, fr float64) (base, delta core.Query) {
	cut := func(p []core.Pair, f float64) ([]core.Pair, []core.Pair) {
		k := int(f * float64(len(p)))
		return p[:k], p[k:]
	}
	base.Source, delta.Source = q.Source, q.Source
	base.L, delta.L = cut(q.L, fl)
	base.E, delta.E = cut(q.E, fe)
	base.R, delta.R = cut(q.R, fr)
	return base, delta
}

// checkExtendEquivalence compiles base, extends by delta, and demands
// the result match a cold compile of the whole instance: structural
// identity, then identical solver outcomes across methods and a few
// sources (including one interned only by the delta and one absent
// everywhere).
func checkExtendEquivalence(t *testing.T, label string, whole, base, delta core.Query) {
	t.Helper()
	cold := core.Compile(whole.L, whole.E, whole.R)
	parent := core.Compile(base.L, base.E, base.R)
	ext := parent.Extend(delta.L, delta.E, delta.R)
	if err := ext.StructuralEqual(cold); err != nil {
		t.Fatalf("%s: extended artifact diverges from cold compile: %v", label, err)
	}
	// Its rows give back its facts, in an order that lays every row out
	// again as it stands.
	if err := core.Compile(ext.Facts()).StructuralEqual(ext); err != nil {
		t.Fatalf("%s: compiling the extended artifact's Facts diverges from it: %v", label, err)
	}
	// The parent must be untouched by the extension (in-flight queries
	// keep using it): re-extending must still match.
	again := parent.Extend(delta.L, delta.E, delta.R)
	if err := again.StructuralEqual(cold); err != nil {
		t.Fatalf("%s: second Extend of the same parent diverges: %v", label, err)
	}
	sources := []string{whole.Source, "absent-from-everything"}
	if len(delta.L) > 0 {
		sources = append(sources, delta.L[len(delta.L)-1].To)
	}
	for _, src := range sources {
		for _, s := range equivStrategies {
			for _, m := range equivModes {
				want, werr := cold.Solve(src, s, m, core.Options{})
				got, gerr := ext.Solve(src, s, m, core.Options{})
				checkSame(t, fmt.Sprintf("%s src=%s %v/%v", label, src, s, m), want, werr, got, gerr)
			}
		}
		want, wsel, werr := cold.SolveAuto(src, core.Options{})
		got, gsel, gerr := ext.SolveAuto(src, core.Options{})
		checkSame(t, fmt.Sprintf("%s src=%s auto", label, src), want, werr, got, gerr)
		if werr == nil && !reflect.DeepEqual(wsel, gsel) {
			t.Errorf("%s src=%s: auto selection diverged: %+v != %+v", label, src, wsel, gsel)
		}
	}
}

// TestExtendAgainstCompile is the property test over the seeded regime
// generators: for every regime kind, seed, and a few random splits,
// Compile(prefix)+Extend(tail) ≡ Compile(whole).
func TestExtendAgainstCompile(t *testing.T) {
	kinds := []struct {
		name string
		kind workload.RegimeKind
	}{
		{"regular", workload.KindRegular},
		{"cyclic-regular", workload.KindCyclicRegular},
		{"multiple", workload.KindMultiple},
		{"recurring", workload.KindRecurring},
	}
	for _, k := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			q := workload.RandomRegime(k.kind, seed, 3)
			rng := rand.New(rand.NewSource(seed * 977))
			for split := 0; split < 3; split++ {
				fl, fe, fr := rng.Float64(), rng.Float64(), rng.Float64()
				label := fmt.Sprintf("%s/seed=%d/split=%.2f,%.2f,%.2f", k.name, seed, fl, fe, fr)
				base, delta := splitQuery(q, fl, fe, fr)
				checkExtendEquivalence(t, label, q, base, delta)
			}
		}
	}
}

// TestExtendEdgeCases pins the boundary shapes: empty parent, empty
// delta, delta entirely duplicating the parent (idempotency), and a
// delta touching a single relation (the wholesale-aliasing path).
func TestExtendEdgeCases(t *testing.T) {
	q := workload.Lasso(5, 4)
	cold := core.Compile(q.L, q.E, q.R)

	t.Run("empty-parent", func(t *testing.T) {
		ext := core.Compile(nil, nil, nil).Extend(q.L, q.E, q.R)
		if err := ext.StructuralEqual(cold); err != nil {
			t.Fatalf("extend from empty diverges: %v", err)
		}
	})
	t.Run("empty-delta", func(t *testing.T) {
		ext := cold.Extend(nil, nil, nil)
		if err := ext.StructuralEqual(cold); err != nil {
			t.Fatalf("empty delta diverges: %v", err)
		}
		if ext.DeltaDepth() != 0 {
			t.Fatalf("DeltaDepth = %d, want 0: an empty delta adds no overlay link", ext.DeltaDepth())
		}
	})
	t.Run("duplicate-delta", func(t *testing.T) {
		ext := cold.Extend(q.L, q.E, q.R)
		if err := ext.StructuralEqual(cold); err != nil {
			t.Fatalf("re-sent facts changed the artifact: %v", err)
		}
	})
	t.Run("single-relation", func(t *testing.T) {
		whole := q
		whole.L = append(append([]core.Pair(nil), q.L...), core.Pair{From: "fresh-x", To: "fresh-y"})
		ext := cold.Extend([]core.Pair{{From: "fresh-x", To: "fresh-y"}}, nil, nil)
		if err := ext.StructuralEqual(core.Compile(whole.L, whole.E, whole.R)); err != nil {
			t.Fatalf("L-only delta diverges: %v", err)
		}
	})
}

// TestExtendOntoHub bounds the dedupe probe: m delta arcs aimed at one
// node of out-degree d must cost O(m + d), not the m·d (1.6·10¹⁰ compares
// here) of a row scan per arc. The same probe answers the append-side
// membership test, so Novel is held to the same bound.
func TestExtendOntoHub(t *testing.T) {
	const d, m = 400_000, 40_000
	L := make([]core.Pair, d)
	for i := range L {
		L[i] = core.Pair{From: "hub", To: fmt.Sprintf("x%d", i)}
	}
	delta := make([]core.Pair, m)
	for i := range delta {
		delta[i] = core.Pair{From: "hub", To: fmt.Sprintf("y%d", i/2)} // every arc sent twice
	}
	parent := core.Compile(L, nil, nil)
	start := time.Now()
	ext := parent.Extend(delta, nil, nil)
	novel, _, _ := ext.Novel(append(delta, L[:m]...), nil, nil)
	took := time.Since(start)
	t.Logf("Extend and Novel took %v", took)
	if took > 2*time.Second {
		t.Fatalf("Extend and Novel of %d arcs onto a %d-arc hub took %v", m, d, took)
	}
	if l, _, _ := ext.Arcs(); l != d+m/2 {
		t.Fatalf("extended hub has %d arcs, want %d", l, d+m/2)
	}
	if len(novel) != 0 {
		t.Fatalf("Novel reports %d held arcs as new", len(novel))
	}
}

// TestExtendChain extends the same artifact many times in sequence —
// the serving layer's rolling-artifact shape — and checks structural
// identity against a cold compile at every step, and that each link
// starts at its parent's Generation for the caller to restamp. Each link
// adds at most one overlay link per symbol table.
func TestExtendChain(t *testing.T) {
	q := workload.RandomRegime(workload.KindMultiple, 7, 3)
	base, rest := splitQuery(q, 0.3, 0.3, 0.3)
	comp := core.Compile(base.L, base.E, base.R)
	comp.Generation = 1
	accL := append([]core.Pair(nil), base.L...)
	accE := append([]core.Pair(nil), base.E...)
	accR := append([]core.Pair(nil), base.R...)

	steps := 8
	for i := 0; i < steps; i++ {
		lo := func(p []core.Pair) []core.Pair {
			k := len(p) / steps
			if i == steps-1 {
				return p[i*k:]
			}
			return p[i*k : (i+1)*k]
		}
		dL, dE, dR := lo(rest.L), lo(rest.E), lo(rest.R)
		next := comp.Extend(dL, dE, dR)
		if next.Generation != comp.Generation {
			t.Fatalf("step %d: Extend changed Generation %d -> %d", i, comp.Generation, next.Generation)
		}
		next.Generation++
		if d := next.DeltaDepth(); d > i+1 {
			t.Fatalf("step %d: DeltaDepth = %d, want at most %d", i, d, i+1)
		}
		accL = append(accL, dL...)
		accE = append(accE, dE...)
		accR = append(accR, dR...)
		if err := next.StructuralEqual(core.Compile(accL, accE, accR)); err != nil {
			t.Fatalf("step %d: chain diverged from cold compile: %v", i, err)
		}
		// The previous link must still answer for its own prefix.
		if res, err := comp.Solve(q.Source, core.Basic, core.Integrated, core.Options{}); err != nil && res == nil && err.Error() == "" {
			t.Fatalf("step %d: parent artifact broken: %v", i, err)
		}
		comp = next
	}
}

// TestExtendCodecIdentity checks the snapshot interplay: an extended
// artifact encodes through the same flat layout as a cold-compiled
// one, the decode round trip is exact (re-encoding reproduces the
// bytes), and the decoded artifact still compiles the same database
// as the cold build.
func TestExtendCodecIdentity(t *testing.T) {
	q := workload.RandomRegime(workload.KindRecurring, 11, 3)
	base, delta := splitQuery(q, 0.5, 0.4, 0.6)
	cold := core.Compile(q.L, q.E, q.R)
	ext := core.Compile(base.L, base.E, base.R).Extend(delta.L, delta.E, delta.R)
	ext.Generation = 42

	enc := ext.AppendBinary(nil)
	dec, rest, err := core.DecodeCompiled(enc)
	if err != nil {
		t.Fatalf("decode extended encoding: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d bytes", len(rest))
	}
	if dec.Generation != 42 {
		t.Fatalf("decoded generation %d, want 42", dec.Generation)
	}
	if err := dec.StructuralEqual(ext); err != nil {
		t.Fatalf("decoded artifact diverges from the encoded one: %v", err)
	}
	if err := dec.StructuralEqual(cold); err != nil {
		t.Fatalf("decoded artifact diverges from the cold compile: %v", err)
	}
	re := dec.AppendBinary(nil)
	if len(re) != len(enc) {
		t.Fatalf("re-encoding length diverges: %d != %d", len(re), len(enc))
	}
	for i := range re {
		if re[i] != enc[i] {
			t.Fatalf("re-encoding diverges at byte %d", i)
		}
	}
	for _, src := range []string{q.Source, "absent-from-everything"} {
		want, werr := cold.Solve(src, core.Multiple, core.Integrated, core.Options{})
		got, gerr := dec.Solve(src, core.Multiple, core.Integrated, core.Options{})
		checkSame(t, fmt.Sprintf("decoded src=%s", src), want, werr, got, gerr)
	}
}

// pagedQuery is a random database over n nodes in both domains, wide
// enough to span several pages of every table: a random forest in L,
// identity plus random cross arcs in E, random pairs in R, a few pairs
// repeated.
func pagedQuery(rng *rand.Rand, n int) core.Query {
	name := func(i int) string { return fmt.Sprintf("p%d", i) }
	q := core.Query{Source: name(0)}
	for i := 1; i < n; i++ {
		q.L = append(q.L, core.P(name(rng.Intn(i)), name(i)))
		if rng.Intn(4) == 0 {
			q.L = append(q.L, core.P(name(i), name(rng.Intn(n))))
		}
	}
	for i := 0; i < n; i++ {
		q.E = append(q.E, core.P(name(i), name(i)))
		if rng.Intn(3) == 0 {
			q.E = append(q.E, core.P(name(i), name(rng.Intn(n))))
		}
		q.R = append(q.R, core.P(name(rng.Intn(n)), name(rng.Intn(n))))
	}
	for _, rel := range []*[]core.Pair{&q.L, &q.E, &q.R} {
		for k := 0; k < 8; k++ {
			*rel = append(*rel, (*rel)[rng.Intn(len(*rel))])
		}
	}
	rng.Shuffle(len(q.L), func(i, j int) { q.L[i], q.L[j] = q.L[j], q.L[i] })
	return q
}

// TestExtendAcrossPages drives Extend chains whose deltas cross page
// boundaries every way a paged table can: arcs from rows on full pages
// of the parent, growth inside the tail page, a tail that fills into a
// full page, and deltas adding several pages of fresh nodes at once.
// Every link must match a cold compile structurally, answer the same,
// and encode to bytes its decode reproduces; the parent must stay
// intact.
func TestExtendAcrossPages(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := pagedQuery(rng, 700+rng.Intn(400))
		cut := func(p []core.Pair, k int) ([]core.Pair, []core.Pair) { return p[:k], p[k:] }
		// A base of a few pages, then deltas of 1, a few, hundreds and
		// the rest of each relation.
		var base core.Query
		var rest core.Query
		base.L, rest.L = cut(q.L, len(q.L)/3)
		base.E, rest.E = cut(q.E, len(q.E)/3)
		base.R, rest.R = cut(q.R, len(q.R)/3)
		acc := base
		comp := core.Compile(base.L, base.E, base.R)
		for step, size := range []int{1, 3, 40, 300, 1 << 30} {
			take := func(p *[]core.Pair) []core.Pair {
				k := min(size, len(*p))
				d := (*p)[:k]
				*p = (*p)[k:]
				return d
			}
			dL, dE, dR := take(&rest.L), take(&rest.E), take(&rest.R)
			before := comp.AppendBinary(nil)
			next := comp.Extend(dL, dE, dR)
			if !bytes.Equal(comp.AppendBinary(nil), before) {
				t.Fatalf("seed %d step %d: Extend modified its parent", seed, step)
			}
			acc.L = append(acc.L[:len(acc.L):len(acc.L)], dL...)
			acc.E = append(acc.E[:len(acc.E):len(acc.E)], dE...)
			acc.R = append(acc.R[:len(acc.R):len(acc.R)], dR...)
			cold := core.Compile(acc.L, acc.E, acc.R)
			label := fmt.Sprintf("seed %d step %d (%d L-nodes)", seed, step, cold.NumL())
			if err := next.StructuralEqual(cold); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			enc := next.AppendBinary(nil)
			dec, _, err := core.DecodeCompiled(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			if !bytes.Equal(dec.AppendBinary(nil), enc) {
				t.Fatalf("%s: decode does not reproduce the encoding", label)
			}
			for _, src := range []string{q.Source, acc.L[len(acc.L)-1].To, "absent-from-everything"} {
				want, werr := cold.Solve(src, core.Multiple, core.Integrated, core.Options{})
				got, gerr := next.Solve(src, core.Multiple, core.Integrated, core.Options{})
				checkSame(t, label+" src="+src, want, werr, got, gerr)
			}
			comp = next
		}
		if cold := core.Compile(q.L, q.E, q.R); comp.Flatten().StructuralEqual(cold) != nil {
			t.Fatalf("seed %d: the flattened chain diverges from the cold compile", seed)
		}
	}
}

// TestExtendSiblings extends one parent four times at once, with
// different fresh symbols and arcs, while the parent answers queries —
// the way racing appends and in-flight queries could meet. Each sibling
// must keep its own names and rows, whichever claimed the parent's last
// name page first, and the parent neither. The parent is itself
// extended, so its last name pages have room to grow in place — exactly
// what all but one sibling must not do.
func TestExtendSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := pagedQuery(rng, 600)
	q.L = append(q.L, core.P("p1", "mid"))
	q.E = append(q.E, core.P("mid", "mid"))
	q.R = append(q.R, core.P("mid", "p1"))
	n := len(q.L) - 1
	parent := core.Compile(q.L[:n], q.E[:len(q.E)-1], q.R[:len(q.R)-1]).Extend(q.L[n:], q.E[len(q.E)-1:], q.R[len(q.R)-1:])
	before := parent.AppendBinary(nil)
	want, werr := parent.Solve("p0", core.Multiple, core.Integrated, core.Options{})

	type sibling struct {
		dL, dE, dR []core.Pair
		c          *core.Compiled
	}
	sibs := make([]*sibling, 4)
	for k := range sibs {
		sib := &sibling{}
		for i := 0; i < 3; i++ {
			fresh := fmt.Sprintf("s%d-%d", k, i)
			old := fmt.Sprintf("p%d", rng.Intn(600))
			sib.dL = append(sib.dL, core.P(old, fresh))
			sib.dE = append(sib.dE, core.P(fresh, fresh))
			sib.dR = append(sib.dR, core.P(fresh, old))
		}
		sibs[k] = sib
	}
	var wg sync.WaitGroup
	for _, sib := range sibs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			sib.c = parent.Extend(sib.dL, sib.dE, sib.dR)
		}()
		go func() {
			defer wg.Done()
			got, gerr := parent.Solve("p0", core.Multiple, core.Integrated, core.Options{})
			if (gerr == nil) != (werr == nil) || (gerr == nil && !reflect.DeepEqual(got, want)) {
				t.Error("the parent answered differently while being extended")
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(parent.AppendBinary(nil), before) {
		t.Fatal("extending a parent four times modified it")
	}
	for k, sib := range sibs {
		cold := core.Compile(append(q.L[:len(q.L):len(q.L)], sib.dL...), append(q.E[:len(q.E):len(q.E)], sib.dE...), append(q.R[:len(q.R):len(q.R)], sib.dR...))
		if err := sib.c.StructuralEqual(cold); err != nil {
			t.Fatalf("sibling %d diverges from its cold compile: %v", k, err)
		}
		src := sib.dL[0].From
		want, werr := cold.Solve(src, core.Basic, core.Integrated, core.Options{})
		got, gerr := sib.c.Solve(src, core.Basic, core.Integrated, core.Options{})
		checkSame(t, fmt.Sprintf("sibling %d", k), want, werr, got, gerr)
	}
}

// FuzzExtendAgainstCompile lets the fuzzer hunt for a (regime, seed,
// split) combination where Extend and Compile disagree. Bit 2 of kind
// applies the delta one pair per Extend: a chain of hundreds of links
// on the larger seeds, which run every symbol table through many folds
// and must never leave more than 8 overlay links. The bits above it
// tile the instance into up to 32 disjoint prefixed copies, so the
// database spans several pages of every table and the splits land on
// and across page boundaries.
func FuzzExtendAgainstCompile(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(40), uint8(80), uint8(120))
	f.Add(uint8(1), int64(2), uint8(0), uint8(255), uint8(128))
	f.Add(uint8(2), int64(3), uint8(200), uint8(10), uint8(90))
	f.Add(uint8(3), int64(4), uint8(255), uint8(255), uint8(255))
	f.Add(uint8(254), int64(5), uint8(100), uint8(170), uint8(30))
	f.Add(uint8(5), int64(6), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(255), int64(7), uint8(0), uint8(30), uint8(0))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, cl, ce, cr uint8) {
		q := workload.RandomRegime(workload.RegimeKind(kind%4), seed, 2)
		tiled := q
		for i := 1; i <= int(kind>>3); i++ {
			c := prefixQuery(q, fmt.Sprintf("t%d:", i))
			tiled.L, tiled.E, tiled.R = append(tiled.L, c.L...), append(tiled.E, c.E...), append(tiled.R, c.R...)
		}
		q = tiled
		base, delta := splitQuery(q,
			float64(cl)/255, float64(ce)/255, float64(cr)/255)
		cold := core.Compile(q.L, q.E, q.R)
		ext := core.Compile(base.L, base.E, base.R)
		if kind&4 == 0 {
			ext = ext.Extend(delta.L, delta.E, delta.R)
		} else {
			// One pair per Extend, relation by relation: the order a cold
			// compile sees the concatenated facts in.
			for r, rel := range [][]core.Pair{delta.L, delta.E, delta.R} {
				for i := range rel {
					var d [3][]core.Pair
					d[r] = rel[i : i+1]
					if ext = ext.Extend(d[0], d[1], d[2]); ext.DeltaDepth() > 8 {
						t.Fatalf("kind=%d seed=%d: %d overlay links after %d pairs", kind, seed, ext.DeltaDepth(), i+1)
					}
				}
			}
		}
		if err := ext.StructuralEqual(cold); err != nil {
			t.Fatalf("kind=%d seed=%d split=(%d,%d,%d): %v", kind%4, seed, cl, ce, cr, err)
		}
		if err := core.Compile(ext.Facts()).StructuralEqual(cold); err != nil {
			t.Fatalf("kind=%d seed=%d split=(%d,%d,%d): compiled Facts: %v", kind%4, seed, cl, ce, cr, err)
		}
		want, werr := cold.Solve(q.Source, core.Multiple, core.Integrated, core.Options{})
		got, gerr := ext.Solve(q.Source, core.Multiple, core.Integrated, core.Options{})
		checkSame(t, "fuzz", want, werr, got, gerr)
	})
}
