package graph

import (
	"math/rand"
	"testing"
)

// wccResult is a weak-component decomposition: each node's component,
// numbered in order of the components' smallest nodes, and each
// component's size.
type wccResult struct {
	Comp     []int
	Size     []int
	NumComps int
}

// weakComponents decomposes g the way region sharding does: a
// UnionFind joining every arc's endpoints, numbered by Components.
func weakComponents(g *Digraph) wccResult {
	u := NewUnionFind(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Out(v) {
			u.Union(v, int(w))
		}
	}
	comp, n := u.Components()
	res := wccResult{Comp: make([]int, len(comp)), Size: make([]int, n), NumComps: n}
	for v, c := range comp {
		res.Comp[v] = int(c)
		res.Size[c]++
	}
	return res
}

// wccOracle computes weak components by brute force: repeated BFS over
// the undirected view (out and in arcs alike), components numbered in
// order of their smallest node — the same canonical numbering the fast
// decomposition promises.
func wccOracle(g *Digraph) wccResult {
	n := g.N()
	res := wccResult{Comp: make([]int, n)}
	for i := range res.Comp {
		res.Comp[i] = -1
	}
	for v := 0; v < n; v++ {
		if res.Comp[v] != -1 {
			continue
		}
		id := res.NumComps
		res.NumComps++
		res.Size = append(res.Size, 0)
		queue := []int{v}
		res.Comp[v] = id
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			res.Size[id]++
			for _, rows := range [][]int32{g.out[u], g.in[u]} {
				for _, w := range rows {
					if res.Comp[w] == -1 {
						res.Comp[w] = id
						queue = append(queue, int(w))
					}
				}
			}
		}
	}
	return res
}

func TestWeaklyConnectedComponentsAgainstOracle(t *testing.T) {
	cases := []struct {
		name string
		n    int
		arcs [][2]int
	}{
		{"empty", 0, nil},
		{"isolated", 4, nil},
		{"chain", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"two-regions", 6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}},
		{"antiparallel", 4, [][2]int{{1, 0}, {3, 2}}},
		{"self-loop", 3, [][2]int{{0, 0}, {1, 2}}},
		{"cycle-plus-island", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 3}}},
		{"converging", 5, [][2]int{{0, 2}, {1, 2}, {3, 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewDigraph(tc.n)
			for _, a := range tc.arcs {
				g.AddArc(a[0], a[1])
			}
			got, want := weakComponents(g), wccOracle(g)
			if got.NumComps != want.NumComps {
				t.Fatalf("NumComps = %d, oracle %d", got.NumComps, want.NumComps)
			}
			for v := range got.Comp {
				if got.Comp[v] != want.Comp[v] {
					t.Fatalf("node %d: comp %d, oracle %d", v, got.Comp[v], want.Comp[v])
				}
			}
			for i := range got.Size {
				if got.Size[i] != want.Size[i] {
					t.Fatalf("component %d: size %d, oracle %d", i, got.Size[i], want.Size[i])
				}
			}
		})
	}
}

// TestWeaklyConnectedComponentsProperties checks the decomposition on
// seeded random graphs: every node lands in exactly one in-range
// component, sizes account for every node exactly once, no arc
// crosses components, and the result matches the brute-force oracle.
func TestWeaklyConnectedComponentsProperties(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		g := NewDigraph(n)
		arcs := rng.Intn(2 * n)
		for i := 0; i < arcs; i++ {
			g.AddArc(rng.Intn(n), rng.Intn(n))
		}
		res := weakComponents(g)
		if len(res.Comp) != n || len(res.Size) != res.NumComps {
			t.Fatalf("seed %d: shape Comp=%d Size=%d NumComps=%d over n=%d",
				seed, len(res.Comp), len(res.Size), res.NumComps, n)
		}
		total := 0
		counted := make([]int, res.NumComps)
		for v, c := range res.Comp {
			if c < 0 || c >= res.NumComps {
				t.Fatalf("seed %d: node %d in out-of-range component %d", seed, v, c)
			}
			counted[c]++
		}
		for i, sz := range res.Size {
			if counted[i] != sz {
				t.Fatalf("seed %d: component %d counts %d nodes, Size says %d", seed, i, counted[i], sz)
			}
			total += sz
		}
		if total != n {
			t.Fatalf("seed %d: sizes sum to %d, want %d", seed, total, n)
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Out(u) {
				if res.Comp[u] != res.Comp[v] {
					t.Fatalf("seed %d: arc (%d,%d) crosses components %d and %d",
						seed, u, v, res.Comp[u], res.Comp[v])
				}
			}
		}
		want := wccOracle(g)
		for v := range res.Comp {
			if res.Comp[v] != want.Comp[v] {
				t.Fatalf("seed %d: node %d comp %d, oracle %d", seed, v, res.Comp[v], want.Comp[v])
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatalf("fresh forest has %d sets, want 5", u.Sets())
	}
	if !u.Union(0, 1) || !u.Union(3, 4) {
		t.Fatal("first unions reported no-op")
	}
	if u.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	if u.Sets() != 3 {
		t.Fatalf("after two merges: %d sets, want 3", u.Sets())
	}
	if u.Find(0) != u.Find(1) || u.Find(3) != u.Find(4) {
		t.Fatal("merged elements have distinct representatives")
	}
	if u.Find(2) == u.Find(0) || u.Find(2) == u.Find(3) {
		t.Fatal("singleton joined a merged set")
	}
	u.Union(1, 3)
	if u.Find(0) != u.Find(4) || u.Sets() != 2 {
		t.Fatal("transitive merge failed")
	}
}
