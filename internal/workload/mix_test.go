package workload

import (
	"reflect"
	"testing"

	"magiccounting/internal/core"
)

func soakCfg(seed int64) MixConfig {
	return MixConfig{
		Seed:      seed,
		BatchFrac: 0.08, AppendFrac: 0.10, StatsFrac: 0.02, BadFrac: 0.03,
		TraceFrac: 0.05, ExplicitFrac: 0.3, GhostFrac: 0.05,
		BulkEvery: 10,
	}
}

// TestMixDeterministic pins the soak's replayability contract: the
// same seed and config produce the identical base instance and the
// identical operation sequence, op for op.
func TestMixDeterministic(t *testing.T) {
	a, b := NewMix(soakCfg(42)), NewMix(soakCfg(42))
	if !reflect.DeepEqual(a.Base(), b.Base()) {
		t.Fatal("same seed produced different base instances")
	}
	for i := 0; i < 2000; i++ {
		oa, ob := a.Next(), b.Next()
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("op %d diverged:\n%+v\n%+v", i, oa, ob)
		}
	}
	// A different seed diverges somewhere in the first stretch.
	c := NewMix(soakCfg(43))
	same := true
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(a.Next(), c.Next()) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same 200-op prefix")
	}
}

// TestMixCoversEveryKind asserts a long enough stream hits every
// operation kind, both bulk and small appends, traced and explicit
// queries, and duplicate batch sources.
func TestMixCoversEveryKind(t *testing.T) {
	m := NewMix(soakCfg(7))
	kinds := map[OpKind]int{}
	var bulk, small, traced, explicit, dupBatch int
	for i := 0; i < 5000; i++ {
		op := m.Next()
		kinds[op.Kind]++
		switch op.Kind {
		case OpAppend:
			if op.Bulk {
				bulk++
			} else {
				small++
			}
		case OpQuery:
			if op.Trace {
				traced++
			}
			if op.Strategy != "" {
				explicit++
			}
		case OpBatch:
			seen := map[string]bool{}
			for _, s := range op.Sources {
				if s != "" && seen[s] {
					dupBatch++
				}
				seen[s] = true
			}
		}
	}
	for _, k := range []OpKind{OpQuery, OpBadQuery, OpBatch, OpAppend, OpStats} {
		if kinds[k] == 0 {
			t.Errorf("kind %v never generated", k)
		}
	}
	if bulk == 0 || small == 0 {
		t.Errorf("appends: bulk=%d small=%d, want both > 0", bulk, small)
	}
	if traced == 0 || explicit == 0 {
		t.Errorf("queries: traced=%d explicit=%d, want both > 0", traced, explicit)
	}
	if dupBatch == 0 {
		t.Errorf("no batch ever contained a duplicate source")
	}
}

// TestMixAppendsDisjointAndAcyclic asserts every append is disjoint
// from all facts generated before it (so the server's dedupe can never
// turn it into a generation-preserving no-op) and that the L graph
// stays acyclic (so explicit counting-based strategies stay safe).
func TestMixAppendsDisjointAndAcyclic(t *testing.T) {
	m := NewMix(soakCfg(11))
	// Relations are separate namespaces (the server dedupes per
	// relation), so disjointness is tracked per relation.
	seen := map[string]map[core.Pair]bool{"l": {}, "e": {}, "r": {}}
	adj := map[string][]string{}
	base := m.Base()
	for _, p := range base.L {
		seen["l"][p] = true
		adj[p.From] = append(adj[p.From], p.To)
	}
	for _, p := range base.E {
		seen["e"][p] = true
	}
	for _, p := range base.R {
		seen["r"][p] = true
	}
	count := len(base.L) + len(base.E) + len(base.R)
	for i := 0; i < 3000; i++ {
		op := m.Next()
		if op.Kind != OpAppend {
			continue
		}
		for rel, set := range map[string][]core.Pair{"l": op.L, "e": op.E, "r": op.R} {
			for _, p := range set {
				if seen[rel][p] {
					t.Fatalf("op %d re-appended %s fact %+v", op.Seq, rel, p)
				}
				seen[rel][p] = true
				count++
			}
		}
		for _, p := range op.L {
			adj[p.From] = append(adj[p.From], p.To)
		}
		if m.FactCount() != count {
			t.Fatalf("op %d: FactCount = %d, want %d", op.Seq, m.FactCount(), count)
		}
	}
	// Acyclicity of the accumulated L graph: iterative DFS three-color.
	const (
		white, gray, black = 0, 1, 2
	)
	color := map[string]int{}
	var stack []string
	for n := range adj {
		if color[n] != white {
			continue
		}
		stack = append(stack[:0], n)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if color[u] == white {
				color[u] = gray
				for _, v := range adj[u] {
					if color[v] == gray {
						t.Fatalf("L graph grew a cycle through %s -> %s", u, v)
					}
					if color[v] == white {
						stack = append(stack, v)
					}
				}
			} else {
				color[u] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// TestMixSourceSkew pins the skewed-source draw: the stream stays
// seed-replayable (a fresh Zipf per draw is still a pure function of
// the rng state), skew concentrates queries on a small hot set far
// beyond the uniform draw, and skew <= 1 leaves the uniform stream
// untouched.
func TestMixSourceSkew(t *testing.T) {
	skewed := func(seed int64, skew float64) MixConfig {
		cfg := soakCfg(seed)
		cfg.SourceSkew = skew
		return cfg
	}

	a, b := NewMix(skewed(42, 1.3)), NewMix(skewed(42, 1.3))
	for i := 0; i < 2000; i++ {
		oa, ob := a.Next(), b.Next()
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("skewed op %d diverged:\n%+v\n%+v", i, oa, ob)
		}
	}

	// Concentration: count how often the single hottest source shows
	// up among singleton queries, skewed vs uniform.
	top := func(skew float64) (max, total int) {
		m := NewMix(skewed(7, skew))
		counts := map[string]int{}
		for i := 0; i < 8000; i++ {
			if op := m.Next(); op.Kind == OpQuery {
				counts[op.Source]++
				total++
			}
		}
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max, total
	}
	hotSkew, totalSkew := top(1.5)
	hotUni, totalUni := top(0)
	if float64(hotSkew)/float64(totalSkew) < 3*float64(hotUni)/float64(totalUni) {
		t.Fatalf("skew 1.5 barely concentrates: hottest %d/%d vs uniform %d/%d",
			hotSkew, totalSkew, hotUni, totalUni)
	}

	// Skew at or below 1 must not perturb the uniform stream: the two
	// configs draw identically, op for op.
	u, s := NewMix(soakCfg(11)), NewMix(skewed(11, 1.0))
	for i := 0; i < 1000; i++ {
		ou, os := u.Next(), s.Next()
		if !reflect.DeepEqual(ou, os) {
			t.Fatalf("skew 1.0 perturbed the uniform stream at op %d", i)
		}
	}
}
