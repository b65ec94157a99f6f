package server

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// appendChainN seeds svc with n disjoint chain links via chainFacts
// and fails the test on any append error.
func appendChainN(t *testing.T, svc *Service, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := svc.AppendFacts(chainFacts(prefix, i)); err != nil {
			t.Fatalf("append %s[%d]: %v", prefix, i, err)
		}
	}
}

// compareAnswers queries both services for the same sources and
// demands identical answer sets.
func compareAnswers(t *testing.T, label string, got, want *Service, sources []string) {
	t.Helper()
	for _, src := range sources {
		g, gerr := got.Query(context.Background(), QueryRequest{Source: src})
		w, werr := want.Query(context.Background(), QueryRequest{Source: src})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s src=%s: error mismatch: got %v, want %v", label, src, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(g.Answers, w.Answers) {
			t.Fatalf("%s src=%s: answers diverge:\n got %v\nwant %v", label, src, g.Answers, w.Answers)
		}
	}
}

// TestChainCollapseResetsDepth is the retention-cap property: under a
// long run of small delta appends the chain depth must stay below
// MaxResidentCompiled (each crossing collapses to a flat artifact),
// the collapse counter must track every flatten, delta compilation
// must never stop, and answers must match an unbounded reference.
func TestChainCollapseResetsDepth(t *testing.T) {
	svc := New(Config{Workers: 2, DeltaMaxFrac: 0.99, MaxResidentCompiled: 4, MaxCompiledBytes: -1})
	defer svc.Close(context.Background())
	ref := New(Config{Workers: 2, DeltaMaxFrac: -1, MaxCompiledBytes: -1})
	defer ref.Close(context.Background())

	appendChainN(t, svc, "seed", 1)
	appendChainN(t, ref, "seed", 1)
	// Compile the artifact so the appends below extend it.
	if _, err := svc.Query(context.Background(), QueryRequest{Source: "seed_n0"}); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	const appends = 20
	for i := 0; i < appends; i++ {
		req := chainFacts("delta", i)
		if _, err := svc.AppendFacts(req); err != nil {
			t.Fatalf("delta append %d: %v", i, err)
		}
		if _, err := ref.AppendFacts(req); err != nil {
			t.Fatalf("ref append %d: %v", i, err)
		}
		st := svc.Stats()
		if st.DeltaCompile.ChainDepth >= 4 {
			t.Fatalf("append %d: chain depth %d reached the cap 4", i, st.DeltaCompile.ChainDepth)
		}
		if st.Memory.ResidentCompiled > 4 {
			t.Fatalf("append %d: %d resident generations, cap 4", i, st.Memory.ResidentCompiled)
		}
	}

	st := svc.Stats()
	if st.DeltaCompile.DeltaCompiles != appends {
		t.Fatalf("delta compiles = %d, want %d (the collapse must not break the delta path)", st.DeltaCompile.DeltaCompiles, appends)
	}
	// Depth walks 0→3 then collapses on the 4th, so 20 appends force 5.
	if st.Memory.ChainCollapses != 5 {
		t.Fatalf("chain collapses = %d, want 5", st.Memory.ChainCollapses)
	}
	if st.Memory.CompiledBytes <= 0 {
		t.Fatalf("compiled bytes estimate = %d, want > 0", st.Memory.CompiledBytes)
	}
	if st.Memory.HeapInuseBytes <= 0 {
		t.Fatalf("heap inuse = %d, want > 0", st.Memory.HeapInuseBytes)
	}

	sources := []string{"seed_n0", "delta_n0", fmt.Sprintf("delta_n%d", appends-1), "absent"}
	compareAnswers(t, "retention", svc, ref, sources)
}

// TestDeltaResumesPastChainCap is the fallback-latch regression: with
// the retention triggers disabled, appends past maxDeltaChain must
// collapse at the hard bound and keep delta-compiling — before the
// fix, depth 256 dropped the artifact and every subsequent append
// fell back to invalidation with no path home (the cold compile that
// would reset the depth loses its publish race with the next append).
func TestDeltaResumesPastChainCap(t *testing.T) {
	svc := New(Config{Workers: 2, DeltaMaxFrac: 0.99, MaxResidentCompiled: -1, MaxCompiledBytes: -1})
	defer svc.Close(context.Background())

	appendChainN(t, svc, "seed", 1)
	if _, err := svc.Query(context.Background(), QueryRequest{Source: "seed_n0"}); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	appends := maxDeltaChain + 10
	for i := 0; i < appends; i++ {
		if _, err := svc.AppendFacts(chainFacts("delta", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	st := svc.Stats()
	if st.DeltaCompile.DeltaCompiles != int64(appends) {
		t.Fatalf("mc_delta_compiles_total = %d after %d appends, want %d (stopped climbing past the cap)",
			st.DeltaCompile.DeltaCompiles, appends, appends)
	}
	if st.DeltaCompile.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 (depth must collapse, not fall back)", st.DeltaCompile.Fallbacks)
	}
	if st.Memory.ChainCollapses != 1 {
		t.Fatalf("chain collapses = %d, want exactly 1 (at the hard bound)", st.Memory.ChainCollapses)
	}
	if st.DeltaCompile.ChainDepth != 10 {
		t.Fatalf("chain depth = %d, want 10 (reset at %d, then 10 more links)", st.DeltaCompile.ChainDepth, maxDeltaChain)
	}

	// The collapsed-and-re-extended artifact must still answer
	// correctly for facts on both sides of the collapse boundary.
	ref := New(Config{Workers: 2, DeltaMaxFrac: -1})
	defer ref.Close(context.Background())
	appendChainN(t, ref, "seed", 1)
	for i := 0; i < appends; i++ {
		if _, err := ref.AppendFacts(chainFacts("delta", i)); err != nil {
			t.Fatalf("ref append %d: %v", i, err)
		}
	}
	sources := []string{"seed_n0", "delta_n0", fmt.Sprintf("delta_n%d", maxDeltaChain-2), fmt.Sprintf("delta_n%d", appends-1)}
	compareAnswers(t, "past-cap", svc, ref, sources)
}

// TestCollapseOnBytes checks the byte trigger: with a 1-byte budget
// every delta append collapses, publishing a flat artifact each time.
func TestCollapseOnBytes(t *testing.T) {
	svc := New(Config{Workers: 2, DeltaMaxFrac: 0.99, MaxResidentCompiled: -1, MaxCompiledBytes: 1})
	defer svc.Close(context.Background())

	appendChainN(t, svc, "seed", 1)
	if _, err := svc.Query(context.Background(), QueryRequest{Source: "seed_n0"}); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	const appends = 5
	for i := 0; i < appends; i++ {
		if _, err := svc.AppendFacts(chainFacts("delta", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if depth := svc.Stats().DeltaCompile.ChainDepth; depth != 0 {
			t.Fatalf("append %d: depth %d, want 0 (1-byte budget collapses every append)", i, depth)
		}
	}
	st := svc.Stats()
	if st.Memory.ChainCollapses != appends {
		t.Fatalf("chain collapses = %d, want %d", st.Memory.ChainCollapses, appends)
	}
	if st.DeltaCompile.DeltaCompiles != appends {
		t.Fatalf("delta compiles = %d, want %d", st.DeltaCompile.DeltaCompiles, appends)
	}
}

// TestClockHandClampAfterPurge is the CLOCK-hand regression: a
// generation purge rebuilds the ring over the survivors, so a hand
// parked near the end of the old ring can exceed the new ring's
// length. The clamp must bring it back in range and the next eviction
// must still terminate and evict a real entry.
func TestClockHandClampAfterPurge(t *testing.T) {
	svc := New(Config{Workers: 1, CacheCap: 8})
	defer svc.Close(context.Background())

	appendChainN(t, svc, "seed", 8)
	// Fill the cache with entries at the current generation.
	for i := 0; i < 8; i++ {
		if _, err := svc.Query(context.Background(), QueryRequest{Source: fmt.Sprintf("seed_n%d", i)}); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
	}
	svc.mu.Lock()
	if len(svc.clock) != 8 {
		svc.mu.Unlock()
		t.Fatalf("ring size = %d, want 8", len(svc.clock))
	}
	// Park the hand near the end of the ring, then purge against a
	// generation nothing matches: the rebuilt ring is empty, and the
	// old hand position is far out of range.
	svc.hand = 7
	svc.invalidateGenerationLocked(svc.art.Generation + 1)
	if len(svc.clock) != 0 || len(svc.cache) != 0 {
		svc.mu.Unlock()
		t.Fatalf("purge left %d ring slots, %d entries", len(svc.clock), len(svc.cache))
	}
	if svc.hand != 0 {
		svc.mu.Unlock()
		t.Fatalf("hand = %d after purge to empty ring, want 0", svc.hand)
	}
	svc.mu.Unlock()

	// Partial survival: re-fill, mark a few entries stale by hand, and
	// purge with the hand past the survivor count.
	for i := 0; i < 8; i++ {
		if _, err := svc.Query(context.Background(), QueryRequest{Source: fmt.Sprintf("seed_n%d", i)}); err != nil {
			t.Fatalf("refill query %d: %v", i, err)
		}
	}
	svc.mu.Lock()
	gen := svc.art.Generation
	stale := 0
	for _, e := range svc.cache {
		if stale == 6 {
			break
		}
		e.generation = gen + 1 // not current: the purge must drop it
		stale++
	}
	svc.hand = 7
	svc.invalidateGenerationLocked(gen)
	if len(svc.clock) != 2 {
		svc.mu.Unlock()
		t.Fatalf("ring size = %d after purge, want 2 survivors", len(svc.clock))
	}
	if svc.hand >= len(svc.clock) {
		svc.mu.Unlock()
		t.Fatalf("hand = %d out of range for ring of %d", svc.hand, len(svc.clock))
	}
	// The next eviction sweep must terminate and take a real entry.
	before := len(svc.cache)
	svc.evictOneLocked()
	if len(svc.cache) != before-1 {
		svc.mu.Unlock()
		t.Fatalf("evict after purge removed %d entries, want 1", before-len(svc.cache))
	}
	svc.mu.Unlock()
}

// TestMemoryMetricsExposition checks the new series reach /metrics
// with the right names and kinds.
func TestMemoryMetricsExposition(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	appendChainN(t, svc, "seed", 2)
	if _, err := svc.Query(context.Background(), QueryRequest{Source: "seed_n0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	var sb strings.Builder
	if err := svc.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mc_resident_compiled gauge",
		"# TYPE mc_compiled_bytes gauge",
		"# TYPE mc_heap_inuse_bytes gauge",
		"# TYPE mc_chain_collapses_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
	if strings.Contains(out, "mc_heap_inuse_bytes 0\n") {
		t.Fatalf("heap gauge reads 0")
	}
}
