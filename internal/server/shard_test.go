package server

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"magiccounting/internal/core"
)

// regionFacts seeds n chain links under each of the given region
// prefixes: prefixes never share a symbol, so each one is its own weak
// component of the combined graph and lands in its own shard (up to
// packing).
func regionFacts(t *testing.T, svc *Service, regions []string, n int) {
	t.Helper()
	for _, prefix := range regions {
		for i := 0; i < n; i++ {
			if _, err := svc.AppendFacts(chainFacts(prefix, i)); err != nil {
				t.Fatalf("seed append %s/%d: %v", prefix, i, err)
			}
		}
	}
}

// TestShardedRetentionCollapse pins the self-bounding chain per shard:
// on a four-shard service, 300 one-link appends onto one region all
// delta-compile, no shard's symbol tables ever hold more than
// core.MaxOverlayLinks overlay links, and the answers match both the
// cold-compiled reference and a cold solve of the live facts.
func TestShardedRetentionCollapse(t *testing.T) {
	const appends = 300
	svc, ref := growChain(t, 4, appends, func(k int, st Stats) {
		if st.Shards == nil || st.Shards.MaxDeltaDepth != st.DeltaCompile.ChainDepth {
			t.Fatalf("append %d: shard stats %+v disagree with chain depth %d", k, st.Shards, st.DeltaCompile.ChainDepth)
		}
		for _, sh := range st.Shards.Shards {
			if sh.DeltaDepth > core.MaxOverlayLinks {
				t.Fatalf("append %d: shard %d holds %d overlay links, bound %d", k, sh.Slot, sh.DeltaDepth, core.MaxOverlayLinks)
			}
		}
	})
	compareAnswers(t, "sharded chain", svc, ref, []string{"g_n0", "g_n150", "g_n320", "absent"})
	resp, err := svc.Query(context.Background(), QueryRequest{Source: "g_n0", Strategy: "multiple", Mode: "integrated"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want, err := core.Compile(svc.current().Facts()).Solve("g_n0", core.Multiple, core.Integrated, core.Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if !reflect.DeepEqual(resp.Answers, want.Answers) {
		t.Fatalf("answers diverge from a cold solve: %v != %v", resp.Answers, want.Answers)
	}
}

// TestShardedMetricsExposition pins the shard series in /metrics: a
// service with several shards emits the shard gauge, the merge counter,
// and the closed per-slot routing family; the one-shard default emits
// none of them (the soak harness treats a missing asserted metric as a
// violation, so the shard series must stay out of its invariant set).
func TestShardedMetricsExposition(t *testing.T) {
	sh := New(Config{Workers: 2, Shards: 2})
	defer sh.Close(context.Background())
	regionFacts(t, sh, []string{"g0", "g1"}, 3)
	if _, err := sh.Query(context.Background(), QueryRequest{Source: "g0_n0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	var buf strings.Builder
	if err := sh.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "collapse") {
		t.Fatal("sharded /metrics still exposes the retired collapse counter")
	}
	for _, series := range []string{
		"mc_shards 2",
		"mc_shard_merges_total 0",
		`mc_shard_queries_total{shard="0"}`,
		`mc_shard_queries_total{shard="1"}`,
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("sharded /metrics missing %q:\n%s", series, out)
		}
	}

	mono := New(Config{Workers: 2})
	defer mono.Close(context.Background())
	buf.Reset()
	if err := mono.WriteMetrics(&buf); err != nil {
		t.Fatalf("monolithic WriteMetrics: %v", err)
	}
	if strings.Contains(buf.String(), "mc_shard") {
		t.Fatal("monolithic /metrics leaked shard series")
	}
}
