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

// TestShardedRetentionCollapse pins per-shard chain collapse: with a
// resident cap, repeated single-region appends flatten only the shard
// whose chain trips the cap, and the collapse count stays within the
// delta-compile count (the soak invariant).
func TestShardedRetentionCollapse(t *testing.T) {
	svc := New(Config{Workers: 2, Shards: 2, MaxResidentCompiled: 3})
	defer svc.Close(context.Background())
	regionFacts(t, svc, []string{"g0", "g1"}, 12)
	for i := 12; i < 30; i++ {
		if _, err := svc.AppendFacts(chainFacts("g0", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Memory.ChainCollapses == 0 {
		t.Fatal("no chain collapse despite a 3-generation cap and 18 deltas")
	}
	if st.Memory.ChainCollapses > st.DeltaCompile.DeltaCompiles {
		t.Fatalf("collapses %d exceed delta compiles %d", st.Memory.ChainCollapses, st.DeltaCompile.DeltaCompiles)
	}
	if st.Memory.ResidentCompiled > st.Memory.MaxResidentCompiled {
		t.Fatalf("resident %d above cap %d after collapses", st.Memory.ResidentCompiled, st.Memory.MaxResidentCompiled)
	}
	resp, err := svc.Query(context.Background(), QueryRequest{Source: "g0_n0", Strategy: "multiple", Mode: "integrated"})
	if err != nil {
		t.Fatalf("post-collapse query: %v", err)
	}
	want, err := core.Compile(svc.current().Facts()).Solve("g0_n0", core.Multiple, core.Integrated, core.Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if !reflect.DeepEqual(resp.Answers, want.Answers) {
		t.Fatalf("post-collapse answers diverge: %v != %v", resp.Answers, want.Answers)
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
