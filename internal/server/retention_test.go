package server

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"magiccounting/internal/core"
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

// compareAnswers asks the service and an auto-selected solve on the
// reference artifact the same sources and demands identical answer
// sets and costs.
func compareAnswers(t *testing.T, label string, got *Service, want *core.Compiled, sources []string) {
	t.Helper()
	for _, src := range sources {
		g, gerr := got.Query(context.Background(), QueryRequest{Source: src})
		w, _, werr := want.SolveAuto(src, core.Options{})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s src=%s: error mismatch: got %v, want %v", label, src, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(g.Answers, nonNilAnswers(w.Answers)) || g.Stats != w.Stats {
			t.Fatalf("%s src=%s: answers diverge:\n got %v %+v\nwant %v %+v", label, src, g.Answers, g.Stats, w.Answers, w.Stats)
		}
	}
}

// chainSeed is the length of the chain growChain loads in one append.
const chainSeed = 20

// growChain is the self-bounding run the chain tests share: it loads a
// chainSeed-link chain in one append, then makes n one-link appends
// onto the same region, each adding one node and so one symbol per
// domain. ref is the cold core.Compile of every acknowledged fact.
// each, when non-nil, sees svc's stats after the k-th one-link append
// (k from 1). Every append, the first included, must be one delta
// compile: nothing outside Extend bounds the chain.
func growChain(t *testing.T, n int, each func(k int, st Stats)) (svc *Service, ref *core.Compiled) {
	t.Helper()
	svc = New(Config{Workers: 2})
	t.Cleanup(func() { svc.Close(context.Background()) })
	mustAppend(t, svc, bulkChain("g", chainSeed))
	for k := 1; k <= n; k++ {
		mustAppend(t, svc, chainFacts("g", chainSeed+k-1))
		if each != nil {
			each(k, svc.Stats())
		}
	}
	st := svc.Stats()
	if dc := st.DeltaCompile; dc.DeltaCompiles != int64(n+1) || dc.FullCompiles != 0 || st.Compiles != dc.DeltaCompiles {
		t.Fatalf("after 1 + %d appends: compiles %d, %+v; want %d delta compiles and no full one", n, st.Compiles, dc, n+1)
	}
	all := bulkChain("g", chainSeed+n)
	return svc, core.Compile(all.L, all.E, all.R)
}

// boundedDepth is a growChain callback failing once the deepest
// symbol-table chain holds more than core.MaxOverlayLinks links.
func boundedDepth(t *testing.T) func(int, Stats) {
	return func(k int, st Stats) {
		if d := st.DeltaCompile.ChainDepth; d > core.MaxOverlayLinks {
			t.Fatalf("append %d: %d overlay links, bound %d", k, d, core.MaxOverlayLinks)
		}
	}
}

// TestChainCollapseResetsDepth is the self-bounding property step by
// step: each one-link append adds one overlay link, and the append that
// would add one past core.MaxOverlayLinks folds the chain inside Extend
// and starts again at one link — the depth walks 1..8, 1..8, ... with
// no collapse outside Extend, and the answers match the cold-compiled
// reference.
func TestChainCollapseResetsDepth(t *testing.T) {
	const appends = 3*core.MaxOverlayLinks + 4
	svc, ref := growChain(t, appends, func(k int, st Stats) {
		if d, want := st.DeltaCompile.ChainDepth, (k-1)%core.MaxOverlayLinks+1; d != want {
			t.Fatalf("append %d: chain depth %d, want %d", k, d, want)
		}
		if st.Memory.ChainCollapses != 0 {
			t.Fatalf("append %d: %d chain collapses, want 0 (only Extend folds)", k, st.Memory.ChainCollapses)
		}
	})
	sources := []string{"g_n0", fmt.Sprintf("g_n%d", chainSeed+core.MaxOverlayLinks), fmt.Sprintf("g_n%d", chainSeed+appends), "absent"}
	compareAnswers(t, "folding chain", svc, ref, sources)
}

// TestDeltaResumesPastChainCap is the fallback-latch regression: 300
// one-link appends, past the 256-step depth where a hard bound once
// dropped the artifact and latched every later append onto the
// fallback, all delta-compile with the depth bounded throughout, and
// facts on both sides of that mark answer like the reference.
func TestDeltaResumesPastChainCap(t *testing.T) {
	const appends = 300
	svc, ref := growChain(t, appends, boundedDepth(t))
	sources := []string{"g_n0", fmt.Sprintf("g_n%d", chainSeed+254), fmt.Sprintf("g_n%d", chainSeed+appends), "absent"}
	compareAnswers(t, "past the old cap", svc, ref, sources)
}

// TestCollapseOnBytes checks what the retired byte budget guarded:
// after 300 one-link appends the self-folding artifact's ResidentBytes
// stay within twice those of the reference's cold compile of the same
// facts, with no byte cap configured and nothing collapsed.
func TestCollapseOnBytes(t *testing.T) {
	const appends = 300
	svc, ref := growChain(t, appends, boundedDepth(t))
	compareAnswers(t, "byte-bounded chain", svc, ref, []string{"g_n0"})
	got, want := svc.Stats().Memory, ref.ResidentBytes()
	if got.MaxCompiledBytes != 0 || got.ChainCollapses != 0 {
		t.Fatalf("byte cap %d, %d collapses; want neither", got.MaxCompiledBytes, got.ChainCollapses)
	}
	if want <= 0 || got.CompiledBytes > 2*want {
		t.Fatalf("after %d appends the chain holds %d bytes, a cold compile %d; want at most twice", appends, got.CompiledBytes, want)
	}
}

// TestMemoryMetricsExposition checks the memory series reach /metrics
// with the right names and kinds, and the retired retention series do
// not.
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
		"# TYPE mc_compiled_bytes gauge",
		"# TYPE mc_heap_inuse_bytes gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
	for _, gone := range []string{"collapse", "resident_compiled"} {
		if strings.Contains(out, gone) {
			t.Fatalf("metrics exposition still has a %q series", gone)
		}
	}
	if strings.Contains(out, "mc_heap_inuse_bytes 0\n") {
		t.Fatalf("heap gauge reads 0")
	}
}
