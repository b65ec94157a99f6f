package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"magiccounting/internal/core"
)

// shardmixResult is the -shardmix probe record, embedded into
// BENCH_*.json under "shardmix": the amortized append-maintenance
// cost of a monolithic delta-compiled artifact versus a region-sharded
// one over the identical multi-region append sequence, plus a batch
// fan-out timing and the oracle cross-check between the two artifacts.
type shardmixResult struct {
	// BaseFacts is the pre-loaded database size (total pairs) spread
	// over Regions disjoint chain regions; Shards the configured slot
	// count; Appends the append steps replayed on top.
	BaseFacts int `json:"base_facts"`
	Regions   int `json:"regions"`
	Shards    int `json:"shards"`
	Appends   int `json:"appends"`
	// AppendedFacts counts the pairs the append sequence carried;
	// FinalFacts the deduplicated arc count of the end-state artifact.
	AppendedFacts int `json:"appended_facts"`
	FinalFacts    int `json:"final_facts"`
	// MonoNsPerAppend and ShardedNsPerAppend are the amortized
	// maintenance cost per append (fastest of -benchrounds rounds):
	// the monolithic policy extends the whole-database artifact, the
	// sharded one delta-compiles only the touched shard.
	MonoNsPerAppend    float64 `json:"mono_ns_per_append"`
	ShardedNsPerAppend float64 `json:"sharded_ns_per_append"`
	// Speedup is MonoNsPerAppend / ShardedNsPerAppend — the number the
	// CI gate holds to -shardmix-min-speedup.
	Speedup float64 `json:"speedup"`
	// Merges counts shards absorbed by the mid-run bridging append;
	// LiveShards is the end-state live slot count.
	Merges     int `json:"merges"`
	LiveShards int `json:"live_shards"`
	// BatchMonoNsPerItem and BatchShardedNsPerItem time the same
	// query batch against the two (flattened) end-state artifacts:
	// sequentially on the monolithic one, fanned out with one worker
	// per shard on the sharded one. Informational, not gated — the
	// available parallelism depends on the host.
	BatchMonoNsPerItem    float64 `json:"batch_mono_ns_per_item"`
	BatchShardedNsPerItem float64 `json:"batch_sharded_ns_per_item"`
	// OracleQueries counts the end-state query comparisons between the
	// two artifacts; Divergence the ones that disagreed (must be 0).
	OracleQueries int `json:"oracle_queries"`
	Divergence    int `json:"divergence"`
}

// runShardmixProbe replays a multi-region append mix against a
// monolithic delta-compiled artifact and a region-sharded one, timing
// only the artifact maintenance. The mix keeps each append inside one
// region — the confinement region sharding exploits — except for one
// mid-run bridging arc that joins two regions and forces a shard
// merge, so the probe also covers the policy's worst case. At end of
// run the two artifacts must agree on every probe query (answers and
// solver stats, bridged regions included).
func runShardmixProbe(shards, base, appends, rounds int, out io.Writer) (*shardmixResult, error) {
	const regions = 8
	if shards < 2 {
		shards = 2
	}
	if base < 3*regions {
		base = 3 * regions
	}
	if appends < regions {
		appends = regions
	}
	if rounds < 1 {
		rounds = 1
	}
	n := func(g, j int) string { return fmt.Sprintf("g%d_m%d", g, j) }
	baseLinks := base / (3 * regions)
	var l, e, r []core.Pair
	for g := 0; g < regions; g++ {
		for j := 0; j < baseLinks; j++ {
			l = append(l, core.Pair{From: n(g, j), To: n(g, j+1)})
			e = append(e, core.Pair{From: n(g, j), To: n(g, j)})
			r = append(r, core.Pair{From: n(g, j), To: n(g, j+1)})
		}
	}
	res := &shardmixResult{
		BaseFacts: len(l) + len(e) + len(r),
		Regions:   regions,
		Shards:    shards,
		Appends:   appends,
	}

	// Pre-generate the append sequence once so every round and both
	// policies replay the identical deltas: round-robin over the
	// regions, each step one fresh chain link, plus the one bridging
	// arc halfway through.
	type delta struct{ dL, dE, dR []core.Pair }
	links := make([]int, regions)
	steps := make([]delta, appends)
	for i := range steps {
		g := i % regions
		j := baseLinks + links[g]
		links[g]++
		d := delta{
			dL: []core.Pair{{From: n(g, j), To: n(g, j+1)}},
			dE: []core.Pair{{From: n(g, j+1), To: n(g, j+1)}},
			dR: []core.Pair{{From: n(g, j), To: n(g, j+1)}},
		}
		if i == appends/2 {
			// Bridge regions 0 and 1: the sharded policy must merge
			// their shards, the monolithic one just extends.
			d.dL = append(d.dL, core.Pair{From: n(0, 0), To: n(1, 0)})
			d.dR = append(d.dR, core.Pair{From: n(0, 0), To: n(1, 0)})
		}
		steps[i] = d
		res.AppendedFacts += len(d.dL) + len(d.dE) + len(d.dR)
	}

	var mono *core.Compiled
	var sc *core.ShardedCompiled
	monoBest, shBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < rounds; round++ {
		// Both cold compiles are untimed: the serving layer pays them
		// once per artifact lifetime, the probe measures maintenance —
		// so their garbage is collected before the clock starts, not
		// charged to the appends that happen to follow them.
		mono = core.Compile(l, e, r)
		runtime.GC()
		var monoTime time.Duration
		for _, d := range steps {
			start := time.Now()
			mono = mono.Extend(d.dL, d.dE, d.dR)
			monoTime += time.Since(start)
		}

		sc = core.CompileSharded(l, e, r, core.ShardOpts{Shards: shards})
		runtime.GC()
		var shTime time.Duration
		var merges int
		for _, d := range steps {
			start := time.Now()
			var st core.ShardExtendStats
			sc, st = sc.Extend(d.dL, d.dE, d.dR, 0)
			shTime += time.Since(start)
			merges += st.Merges
		}

		if monoTime < monoBest {
			monoBest = monoTime
		}
		if shTime < shBest {
			shBest = shTime
		}
		if round == 0 {
			res.Merges = merges
			res.LiveShards = len(sc.LiveSlots())
			al, ae, ar := mono.Arcs()
			res.FinalFacts = al + ae + ar
		}
	}

	res.MonoNsPerAppend = float64(monoBest.Nanoseconds()) / float64(appends)
	res.ShardedNsPerAppend = float64(shBest.Nanoseconds()) / float64(appends)
	if shBest > 0 {
		res.Speedup = float64(monoBest) / float64(shBest)
	}

	// Oracle pass over the end-state artifacts (deterministic across
	// rounds): sampled sources in every region — bridged ones
	// included — under three explicit methods plus auto-selection.
	var sources []string
	for g := 0; g < regions; g++ {
		sources = append(sources, n(g, 0), n(g, baseLinks/2), n(g, baseLinks+links[g]))
	}
	sources = append(sources, "absent-from-mix")
	for _, src := range sources {
		for _, s := range []core.Strategy{core.Basic, core.Multiple, core.Recurring} {
			want, werr := mono.Solve(src, s, core.Integrated, core.Options{})
			got, gerr := sc.Solve(src, s, core.Integrated, core.Options{})
			res.OracleQueries++
			if (werr == nil) != (gerr == nil) ||
				(werr == nil && (fmt.Sprint(want.Answers) != fmt.Sprint(got.Answers) || want.Stats != got.Stats)) {
				res.Divergence++
			}
		}
		want, wsel, werr := mono.SolveAuto(src, core.Options{})
		got, gsel, gerr := sc.SolveAuto(src, core.Options{})
		res.OracleQueries++
		if (werr == nil) != (gerr == nil) || wsel != gsel ||
			(werr == nil && (fmt.Sprint(want.Answers) != fmt.Sprint(got.Answers) || want.Stats != got.Stats)) {
			res.Divergence++
		}
	}
	if res.Divergence > 0 {
		return nil, fmt.Errorf("shardmix: %d of %d oracle queries diverged between monolithic and sharded artifacts", res.Divergence, res.OracleQueries)
	}

	// Batch fan-out timing on flattened artifacts (both folded, so the
	// comparison isolates the fan-out, not overlay-chain walks):
	// the monolithic artifact answers the batch sequentially, the
	// sharded one with one worker per live shard.
	monoFlat := mono.Flatten()
	for _, slot := range sc.LiveSlots() {
		sc.SetShardArtifact(slot, sc.ShardArtifact(slot).Flatten())
	}
	batch := make([]string, 0, 4*len(sources))
	for i := 0; i < 4; i++ {
		batch = append(batch, sources...)
	}
	monoBatchBest, shBatchBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < rounds; round++ {
		start := time.Now()
		for _, src := range batch {
			monoFlat.Solve(src, core.Multiple, core.Integrated, core.Options{})
		}
		if d := time.Since(start); d < monoBatchBest {
			monoBatchBest = d
		}

		groups := make(map[int][]string)
		for _, src := range batch {
			slot := sc.ShardOf(src)
			groups[slot] = append(groups[slot], src)
		}
		start = time.Now()
		var wg sync.WaitGroup
		for _, srcs := range groups {
			wg.Add(1)
			go func(srcs []string) {
				defer wg.Done()
				for _, src := range srcs {
					sc.Solve(src, core.Multiple, core.Integrated, core.Options{})
				}
			}(srcs)
		}
		wg.Wait()
		if d := time.Since(start); d < shBatchBest {
			shBatchBest = d
		}
	}
	res.BatchMonoNsPerItem = float64(monoBatchBest.Nanoseconds()) / float64(len(batch))
	res.BatchShardedNsPerItem = float64(shBatchBest.Nanoseconds()) / float64(len(batch))

	fmt.Fprintf(out, "shardmix probe: %d base facts over %d regions, %d shards, %d appends (%d pairs, final %d), %d oracle queries (0 divergent), %d merges\n",
		res.BaseFacts, res.Regions, res.Shards, res.Appends, res.AppendedFacts, res.FinalFacts, res.OracleQueries, res.Merges)
	fmt.Fprintf(out, "  monolithic extend: %12.0f ns/append\n", res.MonoNsPerAppend)
	fmt.Fprintf(out, "  sharded extend:    %12.0f ns/append\n", res.ShardedNsPerAppend)
	fmt.Fprintf(out, "  speedup:           %12.2fx\n", res.Speedup)
	fmt.Fprintf(out, "  batch fan-out:     %12.0f ns/item sequential-monolithic, %.0f ns/item sharded (%d live shards)\n",
		res.BatchMonoNsPerItem, res.BatchShardedNsPerItem, res.LiveShards)
	return res, nil
}

// writeShardmixJSON writes a BENCH record holding only the shardmix
// probe (the -shardmix mode runs no experiment sweep).
func writeShardmixJSON(dir string, res *shardmixResult) (string, error) {
	now := time.Now()
	bf := benchFile{Timestamp: now.Format(time.RFC3339), Shardmix: res}
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, now.Format("20060102T150405"))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
