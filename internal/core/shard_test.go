// Region-sharding equivalence suite: a ShardedCompiled must be
// observationally indistinguishable from the monolithic Compiled over
// the same database — byte-identical Results (Stats included) for
// every method and SolveAuto, across seeded regime instances, merged
// multi-region databases, append/Extend chains, bridging appends that
// force shard merges, and per-shard artifact swaps. A fuzz target
// extends the search over region mixes, shard counts, and splits.
package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/workload"
)

// prefixQuery renames every symbol of q with the given prefix so
// instances can be merged into one database with disjoint regions.
func prefixQuery(q core.Query, prefix string) core.Query {
	ren := func(pairs []core.Pair) []core.Pair {
		out := make([]core.Pair, len(pairs))
		for i, p := range pairs {
			out[i] = core.Pair{From: prefix + p.From, To: prefix + p.To}
		}
		return out
	}
	return core.Query{
		L:      ren(q.L),
		E:      ren(q.E),
		R:      ren(q.R),
		Source: prefix + q.Source,
	}
}

// multiRegion merges `regions` seeded instances (cycling through the
// regime kinds) under distinct prefixes: one database, `regions`
// disjoint weak components, one query source per region.
func multiRegion(seed int64, regions, size int) (core.Query, []string) {
	kinds := []workload.RegimeKind{
		workload.KindRegular, workload.KindCyclicRegular,
		workload.KindMultiple, workload.KindRecurring,
	}
	var whole core.Query
	var sources []string
	for i := 0; i < regions; i++ {
		q := prefixQuery(workload.RandomRegime(kinds[i%len(kinds)], seed+int64(i), size), fmt.Sprintf("g%d:", i))
		whole.L = append(whole.L, q.L...)
		whole.E = append(whole.E, q.E...)
		whole.R = append(whole.R, q.R...)
		sources = append(sources, q.Source)
	}
	whole.Source = sources[0]
	return whole, sources
}

// checkShardedSame demands sharded and monolithic artifacts agree on
// every method, the SCC Step-1 variant, and SolveAuto (selection
// included) for each source.
func checkShardedSame(t *testing.T, label string, mono *core.Compiled, sc *core.ShardedCompiled, sources []string) {
	t.Helper()
	for _, src := range sources {
		for _, s := range equivStrategies {
			for _, m := range equivModes {
				want, werr := mono.Solve(src, s, m, core.Options{})
				got, gerr := sc.Solve(src, s, m, core.Options{})
				checkSame(t, fmt.Sprintf("%s src=%s %v/%v", label, src, s, m), want, werr, got, gerr)
			}
		}
		want, werr := mono.Solve(src, core.Recurring, core.Integrated, core.Options{SCCStep1: true})
		got, gerr := sc.Solve(src, core.Recurring, core.Integrated, core.Options{SCCStep1: true})
		checkSame(t, fmt.Sprintf("%s src=%s recurring/scc", label, src), want, werr, got, gerr)

		wres, wsel, werr := mono.SolveAuto(src, core.Options{})
		gres, gsel, gerr := sc.SolveAuto(src, core.Options{})
		checkSame(t, fmt.Sprintf("%s src=%s auto", label, src), wres, werr, gres, gerr)
		if werr == nil && !reflect.DeepEqual(wsel, gsel) {
			t.Errorf("%s src=%s: auto selection diverged: %+v != %+v", label, src, wsel, gsel)
		}
	}
}

// TestCompileShardedAgainstMonolithic covers single-instance databases
// across every regime kind and a spread of shard counts (K=1 is the
// degenerate single-shard case).
func TestCompileShardedAgainstMonolithic(t *testing.T) {
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
		for seed := int64(1); seed <= 2; seed++ {
			q := workload.RandomRegime(k.kind, seed, 3)
			mono := core.Compile(q.L, q.E, q.R)
			sources := []string{q.Source, "absent-from-everything"}
			if len(q.L) > 0 {
				sources = append(sources, q.L[len(q.L)/2].To)
			}
			for _, shards := range []int{1, 2, 4} {
				sc := core.CompileSharded(q.L, q.E, q.R, core.ShardOpts{Shards: shards})
				if got := sc.NumShards(); got != shards {
					t.Fatalf("%s/seed=%d: NumShards = %d, want %d", k.name, seed, got, shards)
				}
				checkShardedSame(t, fmt.Sprintf("%s/seed=%d/k=%d", k.name, seed, shards), mono, sc, sources)
			}
		}
	}
}

// TestCompileShardedMultiRegion is the sharding-proper case: several
// disjoint regions spread across shards, every region's source
// answered identically, facts conserved across the partition, and L
// arcs never split across shards.
func TestCompileShardedMultiRegion(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		whole, sources := multiRegion(seed*100, 6, 2)
		// Repeat a pair of every relation: relations are sets, so the
		// fact counts must not see the repeats.
		whole.L = append(whole.L, whole.L[0])
		whole.E = append(whole.E, whole.E[0])
		whole.R = append(whole.R, whole.R[0])
		mono := core.Compile(whole.L, whole.E, whole.R)
		wl, we, wr := mono.Arcs()
		for _, shards := range []int{1, 3, 4, 16} {
			sc := core.CompileSharded(whole.L, whole.E, whole.R, core.ShardOpts{Shards: shards})
			label := fmt.Sprintf("seed=%d/k=%d", seed, shards)
			if nl, ne, nr := sc.FactCounts(); nl != wl || ne != we || nr != wr {
				t.Fatalf("%s: shards hold %d/%d/%d facts, database has %d/%d/%d",
					label, nl, ne, nr, wl, we, wr)
			}
			facts := 0
			for _, info := range sc.ShardInfos() {
				facts += info.Facts
			}
			if facts != wl+we+wr {
				t.Fatalf("%s: ShardInfos count %d facts, database has %d", label, facts, wl+we+wr)
			}
			// Facts is the same database: it compiles to the same artifact.
			fl, fe, fr := sc.Facts()
			checkShardedSame(t, label+"/facts", core.Compile(fl, fe, fr), sc, sources)
			// Everything held is old news; a fresh pair is novel once.
			fresh := core.Pair{From: sources[0], To: "never-seen"}
			nl, ne, nr := sc.Novel(append(append([]core.Pair{fresh}, whole.L...), fresh), whole.E, whole.R)
			if !reflect.DeepEqual(nl, []core.Pair{fresh}) || len(ne)+len(nr) != 0 {
				t.Fatalf("%s: Novel over the held database = %v / %v / %v, want only %v", label, nl, ne, nr, fresh)
			}
			for _, p := range whole.L {
				if sc.ShardOf(p.From) != sc.ShardOf(p.To) {
					t.Fatalf("%s: L arc (%s,%s) split across shards %d and %d",
						label, p.From, p.To, sc.ShardOf(p.From), sc.ShardOf(p.To))
				}
			}
			checkShardedSame(t, label, mono, sc, append(sources, "absent-from-everything"))
		}
	}
}

// shardedAppendChain drives base+delta splits of a multi-region
// database through a sharded Extend chain, checking each step against
// both the cold monolithic compile and the running invariants of
// ShardExtendStats.
func TestShardedExtendEquivalence(t *testing.T) {
	whole, sources := multiRegion(7, 4, 2)
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 2, 4} {
		label := fmt.Sprintf("k=%d", shards)
		base, rest := splitQuery(whole, 0.5, 0.5, 0.5)
		sc := core.CompileSharded(base.L, base.E, base.R, core.ShardOpts{Shards: shards})
		accL := append([]core.Pair(nil), base.L...)
		accE := append([]core.Pair(nil), base.E...)
		accR := append([]core.Pair(nil), base.R...)
		steps := 4
		for i := 0; i < steps; i++ {
			lo := func(p []core.Pair) []core.Pair {
				k := len(p) / steps
				if i == steps-1 {
					return p[i*k:]
				}
				return p[i*k : (i+1)*k]
			}
			dL, dE, dR := lo(rest.L), lo(rest.E), lo(rest.R)
			next, stats := sc.Extend(dL, dE, dR, 0)
			next.Generation = sc.Generation + 1
			if len(dL)+len(dE)+len(dR) > 0 && len(stats.Touched) == 0 {
				t.Fatalf("%s step %d: non-empty delta touched no shard", label, i)
			}
			if stats.DeltaExtended != len(stats.Touched) {
				t.Fatalf("%s step %d: %d delta Extends over %d touched shards, want one each", label, i, stats.DeltaExtended, len(stats.Touched))
			}
			accL = append(accL, dL...)
			accE = append(accE, dE...)
			accR = append(accR, dR...)
			mono := core.Compile(accL, accE, accR)
			srcs := append(append([]string(nil), sources...), "absent-from-everything")
			if len(dL) > 0 {
				srcs = append(srcs, dL[len(dL)-1].To)
			}
			checkShardedSame(t, fmt.Sprintf("%s step %d", label, i), mono, next, srcs)
			if nl, ne, nr := next.Novel(dL, dE, dR); len(nl)+len(ne)+len(nr) != 0 {
				t.Fatalf("%s step %d: the delta just extended is still novel: %v / %v / %v", label, i, nl, ne, nr)
			}
			// The parent must stay usable (in-flight queries hold it).
			if _, err := sc.Solve(sources[rng.Intn(len(sources))], core.Basic, core.Integrated, core.Options{}); err != nil {
				t.Fatalf("%s step %d: parent broken after Extend: %v", label, i, err)
			}
			sc = next
		}
	}

	// One delta that extends a slot in place and also places a fresh
	// region on it rolls that slot once: one delta Extend, a chain one
	// link deeper.
	chain := func(prefix string, n int) []core.Pair {
		var out []core.Pair
		for i := 0; i < n; i++ {
			out = append(out, core.P(fmt.Sprintf("%s%d", prefix, i), fmt.Sprintf("%s%d", prefix, i+1)))
		}
		return out
	}
	baseL := append(chain("h", 12), chain("l", 8)...)
	baseE := []core.Pair{core.P("h12", "x"), core.P("l8", "y")}
	sc := core.CompileSharded(baseL, baseE, nil, core.ShardOpts{Shards: 2})
	slot := sc.ShardOf("l0")
	if slot == sc.ShardOf("h0") {
		t.Fatal("both regions packed into one shard: the in-place + fresh case is not exercised")
	}
	dL := []core.Pair{core.P("l8", "l9"), core.P("f0", "f1")}
	next, stats := sc.Extend(dL, nil, nil, 0)
	if next.ShardOf("f0") != slot {
		t.Fatalf("fresh region placed on shard %d, want the lighter shard %d", next.ShardOf("f0"), slot)
	}
	if !reflect.DeepEqual(stats.Touched, []int{slot}) || stats.DeltaExtended != 1 {
		t.Errorf("in-place + fresh delta on one slot: %+v, want Touched [%d], one DeltaExtended", stats, slot)
	}
	if got, want := next.ShardArtifact(slot).DeltaDepth(), sc.ShardArtifact(slot).DeltaDepth()+1; got != want {
		t.Errorf("shard %d chain depth %d after one append, want %d", slot, got, want)
	}
	mono := core.Compile(append(baseL, dL...), baseE, nil)
	checkShardedSame(t, "in-place + fresh", mono, next, []string{"l0", "l8", "f0", "h0", "absent-from-everything"})

	// The fresh region first, then a link bridging the two shards: the
	// region is placed on the lighter slot, the merge folds that slot
	// into the other, and the region follows it.
	dL = []core.Pair{core.P("f0", "f1"), core.P("h12", "l0")}
	next, stats = sc.Extend(dL, nil, nil, 0)
	if stats.Merges != 1 || len(stats.Touched) != 1 || next.ShardOf("f0") != stats.Touched[0] || next.ShardOf("l0") != stats.Touched[0] {
		t.Errorf("fresh + bridge: %+v, fresh region on shard %d, merged regions on %d", stats, next.ShardOf("f0"), next.ShardOf("l0"))
	}
	mono = core.Compile(append(baseL, dL...), baseE, nil)
	checkShardedSame(t, "fresh + bridge", mono, next, []string{"l0", "f0", "h0", "h12", "absent-from-everything"})
}

// TestShardedBridgingMerge pins the merge policy: an append connecting
// two regions that live in different shards must merge them (into the
// lower slot), reroute both regions there, and keep answers
// byte-identical to the monolithic artifact.
func TestShardedBridgingMerge(t *testing.T) {
	whole, sources := multiRegion(13, 2, 2)
	sc := core.CompileSharded(whole.L, whole.E, whole.R, core.ShardOpts{Shards: 2})
	s0, s1 := sc.ShardOf(sources[0]), sc.ShardOf(sources[1])
	if s0 == s1 {
		t.Fatalf("regions packed into one shard (%d): bridging case not exercised", s0)
	}
	bridge := []core.Pair{{From: sources[0], To: sources[1]}}
	next, stats := sc.Extend(bridge, nil, nil, 0)
	if stats.Merges != 1 {
		t.Fatalf("bridging append reported %d merges, want 1", stats.Merges)
	}
	if got := len(next.LiveSlots()); got != 1 {
		t.Fatalf("%d live slots after merge, want 1", got)
	}
	lo := s0
	if s1 < lo {
		lo = s1
	}
	if next.ShardOf(sources[0]) != lo || next.ShardOf(sources[1]) != lo {
		t.Fatalf("merged regions route to shards %d and %d, want both %d",
			next.ShardOf(sources[0]), next.ShardOf(sources[1]), lo)
	}
	mono := core.Compile(append(append([]core.Pair(nil), whole.L...), bridge...), whole.E, whole.R)
	checkShardedSame(t, "post-merge", mono, next, append(sources, "absent-from-everything"))
	// The pre-merge parent still answers from the old partition.
	checkShardedSame(t, "pre-merge parent", core.Compile(whole.L, whole.E, whole.R), sc, sources)
}

// TestShardedRetentionSwap covers the per-shard swap hook: a shard's
// chain folds via Flatten + SetShardArtifact without touching the
// other shards or any answer.
func TestShardedRetentionSwap(t *testing.T) {
	whole, sources := multiRegion(29, 3, 2)
	base, delta := splitQuery(whole, 0.6, 0.6, 0.6)
	sc := core.CompileSharded(base.L, base.E, base.R, core.ShardOpts{Shards: 3})
	next, stats := sc.Extend(delta.L, delta.E, delta.R, 0)
	if stats.DeltaExtended == 0 {
		t.Fatal("expected at least one delta-extended shard")
	}
	if next.MaxDeltaDepth() == 0 {
		t.Fatal("extend chain left no overlay link to fold")
	}
	for _, slot := range next.LiveSlots() {
		if next.ShardArtifact(slot).DeltaDepth() > 0 {
			next.SetShardArtifact(slot, next.ShardArtifact(slot).Flatten())
		}
	}
	if next.MaxDeltaDepth() > 1 {
		t.Fatalf("MaxDeltaDepth = %d after flattening every shard", next.MaxDeltaDepth())
	}
	mono := core.Compile(whole.L, whole.E, whole.R)
	checkShardedSame(t, "post-flatten", mono, next, append(sources, "absent-from-everything"))
	infos := next.ShardInfos()
	if len(infos) != len(next.LiveSlots()) {
		t.Fatalf("ShardInfos has %d entries, %d live slots", len(infos), len(next.LiveSlots()))
	}
	for _, info := range infos {
		if info.DeltaDepth > 1 || info.ResidentBytes <= 0 {
			t.Fatalf("slot %d: depth=%d resident=%d after Flatten", info.Slot, info.DeltaDepth, info.ResidentBytes)
		}
	}
}

// TestShardedGeneration pins the stamping contract: CompileSharded
// returns generation zero and Extend carries the caller's stamp over.
func TestShardedGeneration(t *testing.T) {
	q := workload.RandomRegime(workload.KindRegular, 3, 2)
	sc := core.CompileSharded(q.L, q.E, q.R, core.ShardOpts{Shards: 2})
	if sc.Generation != 0 {
		t.Fatalf("fresh sharded artifact has generation %d", sc.Generation)
	}
	sc.Generation = 17
	next, _ := sc.Extend(nil, nil, nil, 0)
	if next.Generation != 17 {
		t.Fatalf("Extend dropped the parent generation: %d", next.Generation)
	}
	if sc.ResidentBytes() <= 0 {
		t.Fatal("sharded ResidentBytes not positive")
	}
}

// FuzzShardedAgainstMonolithic searches regime mixes, shard counts,
// and base/delta splits for any observable divergence between the
// sharded and monolithic artifacts.
func FuzzShardedAgainstMonolithic(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(128))
	f.Add(int64(9), uint8(4), uint8(1), uint8(0))
	f.Add(int64(42), uint8(16), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, shards, regions, split uint8) {
		k := int(shards%16) + 1
		whole, sources := multiRegion(seed, int(regions%4)+1, 2)
		frac := float64(split) / 255
		base, delta := splitQuery(whole, frac, frac, frac)
		sc := core.CompileSharded(base.L, base.E, base.R, core.ShardOpts{Shards: k})
		next, _ := sc.Extend(delta.L, delta.E, delta.R, 0)
		mono := core.Compile(whole.L, whole.E, whole.R)
		for _, src := range append(sources, "absent-from-everything") {
			want, werr := mono.Solve(src, core.Multiple, core.Integrated, core.Options{})
			got, gerr := next.Solve(src, core.Multiple, core.Integrated, core.Options{})
			checkSame(t, fmt.Sprintf("src=%s multiple/integrated", src), want, werr, got, gerr)
			wres, wsel, werr := mono.SolveAuto(src, core.Options{})
			gres, gsel, gerr := next.SolveAuto(src, core.Options{})
			checkSame(t, fmt.Sprintf("src=%s auto", src), wres, werr, gres, gerr)
			if werr == nil && !reflect.DeepEqual(wsel, gsel) {
				t.Errorf("src=%s: auto selection diverged: %+v != %+v", src, wsel, gsel)
			}
		}
	})
}
