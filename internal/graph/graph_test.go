package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildGraph constructs a digraph from an arc list over n nodes.
func buildGraph(n int, arcs [][2]int) *Digraph {
	g := NewDigraph(n)
	for _, a := range arcs {
		g.AddArc(a[0], a[1])
	}
	return g
}

// randomGraph builds a random digraph with n nodes and about m arcs.
func randomGraph(rng *rand.Rand, n, m int) *Digraph {
	g := NewDigraph(n)
	for i := 0; i < m; i++ {
		g.AddArc(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestAddArcDedupeAndDegrees(t *testing.T) {
	g := NewDigraph(3)
	g.AddArc(0, 1)
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	g.AddArc(1, 1) // self-loop
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (duplicate collapsed)", g.M())
	}
	if g.OutDegree(0) != 2 || g.InDegree(1) != 2 || g.InDegree(0) != 0 {
		t.Fatalf("degree mismatch: out0=%d in1=%d in0=%d", g.OutDegree(0), g.InDegree(1), g.InDegree(0))
	}
	if !g.HasArc(1, 1) || g.HasArc(2, 0) {
		t.Fatal("HasArc wrong")
	}
}

func TestAddArcOutOfRangePanics(t *testing.T) {
	g := NewDigraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddArc(0, 5)
}

func TestAddNodeReturnsSequentialIDs(t *testing.T) {
	g := NewDigraph(0)
	if g.AddNode() != 0 || g.AddNode() != 1 {
		t.Fatal("AddNode ids not sequential")
	}
	g.AddNodes(3)
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
}

func TestBFSLevelsChain(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	got := g.BFSLevels(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFSLevels = %v, want %v", got, want)
		}
	}
	if g.BFSLevels(3)[0] != -1 {
		t.Fatal("unreachable node should be -1")
	}
	if g.BFSLevels(-1)[0] != -1 {
		t.Fatal("invalid source should leave all -1")
	}
}

func TestBFSLevelsShortestOfTwoPaths(t *testing.T) {
	// 0->1->2->3 and shortcut 0->3.
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if d := g.BFSLevels(0)[3]; d != 1 {
		t.Fatalf("dist(3) = %d, want 1", d)
	}
}

func TestReachable(t *testing.T) {
	g := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	r := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Reachable = %v, want %v", r, want)
		}
	}
}

func TestReverseReachable(t *testing.T) {
	g := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {3, 2}, {4, 0}})
	r := g.ReverseReachable([]int{2})
	want := []bool{true, true, true, true, true}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ReverseReachable = %v, want %v", r, want)
		}
	}
	if r := g.ReverseReachable([]int{3}); r[0] || !r[3] {
		t.Fatal("ReverseReachable(3) wrong")
	}
}

func TestReverseReachableForward(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {3, 0}})
	r := g.ReverseReachableForward([]int{1})
	if !r[1] || !r[2] || r[0] || r[3] {
		t.Fatalf("forward closure from 1 = %v", r)
	}
}

func TestInduced(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	sub, oldToNew, newToOld := g.Induced([]bool{true, true, false, true})
	if sub.N() != 3 || sub.M() != 2 { // arcs 0->1 and 0->3 survive
		t.Fatalf("sub has n=%d m=%d", sub.N(), sub.M())
	}
	if oldToNew[2] != -1 {
		t.Fatal("dropped node should map to -1")
	}
	if newToOld[oldToNew[3]] != 3 {
		t.Fatal("id maps not inverse")
	}
	if !sub.HasArc(oldToNew[0], oldToNew[3]) {
		t.Fatal("surviving arc missing")
	}
}

func TestSCCChainIsAllSingletons(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	scc := g.SCC()
	if scc.NumComps != 4 {
		t.Fatalf("NumComps = %d, want 4", scc.NumComps)
	}
	if !g.IsAcyclic() {
		t.Fatal("chain should be acyclic")
	}
}

func TestSCCCycleAndTail(t *testing.T) {
	// 0->1->2->0 cycle with tail 2->3.
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	scc := g.SCC()
	if scc.NumComps != 2 {
		t.Fatalf("NumComps = %d, want 2", scc.NumComps)
	}
	c := scc.Comp[0]
	if scc.Comp[1] != c || scc.Comp[2] != c || scc.Comp[3] == c {
		t.Fatalf("Comp = %v", scc.Comp)
	}
	if scc.Size[c] != 3 {
		t.Fatalf("cycle component size = %d", scc.Size[c])
	}
	if g.IsAcyclic() {
		t.Fatal("graph has a cycle")
	}
}

func TestSCCReverseTopologicalIDs(t *testing.T) {
	// Condensation A -> B: A's id must be greater than B's.
	g := buildGraph(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}})
	scc := g.SCC()
	if scc.Comp[0] <= scc.Comp[2] {
		t.Fatalf("expected upstream component to have larger id: %v", scc.Comp)
	}
}

func TestCyclicNodesSelfLoop(t *testing.T) {
	g := buildGraph(3, [][2]int{{0, 1}, {1, 1}, {1, 2}})
	cyc := g.CyclicNodes()
	if cyc[0] || !cyc[1] || cyc[2] {
		t.Fatalf("CyclicNodes = %v", cyc)
	}
}

// Oracle SCC: two nodes are in the same component iff each reaches the
// other. Verified on random graphs.
func TestSCCMatchesReachabilityOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		g := randomGraph(rng, n, rng.Intn(3*n))
		scc := g.SCC()
		reach := make([][]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = g.Reachable(v)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := scc.Comp[u] == scc.Comp[v]
				mutual := reach[u][v] && reach[v][u]
				if same != mutual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// indicesOf returns v's index set: nil when the source does not reach
// v or v is recurring.
func indicesOf(c *Classification, v int32) []int {
	if p := c.Pos(v); p >= 0 {
		return c.Indices[p]
	}
	return nil
}

func TestClassifyChainAllSingle(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	c := g.Classify(0)
	for v := 0; v < 4; v++ {
		if c.ClassOf(int32(v)) != Single {
			t.Fatalf("node %d class = %v, want single", v, c.ClassOf(int32(v)))
		}
		if len(indicesOf(c, int32(v))) != 1 || indicesOf(c, int32(v))[0] != v {
			t.Fatalf("node %d indices = %v", v, indicesOf(c, int32(v)))
		}
	}
	if !c.Regular || c.HasRecurring {
		t.Fatal("chain should be regular and non-recurring")
	}
}

func TestClassifyDiamondIsRegular(t *testing.T) {
	// Two paths of equal length: still single.
	g := buildGraph(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	c := g.Classify(0)
	if c.ClassOf(3) != Single || !c.Regular {
		t.Fatalf("diamond sink class = %v, regular = %v", c.ClassOf(3), c.Regular)
	}
}

func TestClassifyShortcutMakesMultiple(t *testing.T) {
	// 0->1->2 plus 0->2: node 2 has distances {1,2}.
	g := buildGraph(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	c := g.Classify(0)
	if c.ClassOf(2) != Multiple {
		t.Fatalf("class(2) = %v, want multiple", c.ClassOf(2))
	}
	if got := indicesOf(c, 2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("indices(2) = %v, want [1 2]", got)
	}
	if c.Regular {
		t.Fatal("graph is not regular")
	}
	if c.HasRecurring {
		t.Fatal("graph has no cycle")
	}
}

func TestClassifyCycleMakesRecurring(t *testing.T) {
	// 0->1->2->1 cycle, 2->3 downstream.
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}})
	c := g.Classify(0)
	for _, v := range []int{1, 2, 3} {
		if c.ClassOf(int32(v)) != Recurring {
			t.Fatalf("class(%d) = %v, want recurring", v, c.ClassOf(int32(v)))
		}
	}
	if c.ClassOf(0) != Single {
		t.Fatalf("class(0) = %v, want single (upstream of cycle)", c.ClassOf(0))
	}
	if !c.HasRecurring || c.Regular {
		t.Fatal("flags wrong")
	}
}

func TestClassifyUnreachable(t *testing.T) {
	g := buildGraph(3, [][2]int{{1, 2}})
	c := g.Classify(0)
	if c.ClassOf(1) != Unreachable || c.ClassOf(2) != Unreachable {
		t.Fatal("disconnected nodes should be unreachable")
	}
	if c.Pos(1) != -1 || c.Pos(2) != -1 || len(c.Reached) != 1 {
		t.Fatal("unreachable nodes should hold no position")
	}
	if !c.Regular {
		t.Fatal("unreachable nodes must not break regularity")
	}
}

func TestClassifySourceOnCycle(t *testing.T) {
	g := buildGraph(2, [][2]int{{0, 0}, {0, 1}})
	c := g.Classify(0)
	if c.ClassOf(0) != Recurring || c.ClassOf(1) != Recurring {
		t.Fatalf("self-loop source: %v", c.Class)
	}
}

// partlyReachedGraph builds a random digraph in which node 0 reaches
// only (some of) the first k nodes: arcs run within [0, k), within
// [k, n) and from [k, n) into [0, k), never out of [0, k). The
// unreached part always holds a cycle (k -> k+1 -> k) and a node with
// two walk lengths from k (k+2, over k -> k+2 and k+1 -> k+2), so a
// classifier that looked at it would report both.
func partlyReachedGraph(rng *rand.Rand) (g *Digraph, k int) {
	k = 1 + rng.Intn(8)
	rest := 3 + rng.Intn(6)
	g = NewDigraph(k + rest)
	for i := rng.Intn(3 * k); i > 0; i-- {
		g.AddArc(rng.Intn(k), rng.Intn(k))
	}
	for i := rng.Intn(3 * rest); i > 0; i-- {
		g.AddArc(k+rng.Intn(rest), rng.Intn(k+rest))
	}
	for _, a := range [][2]int{{k, k + 1}, {k + 1, k}, {k, k + 2}, {k + 1, k + 2}} {
		g.AddArc(a[0], a[1])
	}
	return g, k
}

// checkConfined asserts what confinement promises on a graph from
// partlyReachedGraph: the unreached nodes carry no analysis at all, the
// classification of the first k nodes and both regime flags are those
// of the subgraph they induce, and the classifier never reads an
// unreached node's row.
func checkConfined(t *testing.T, g *Digraph, k int) bool {
	c := Classify(g.N(), func(u int32) []int32 {
		if int(u) >= k {
			t.Errorf("classifier read the row of unreached node %d (k=%d)", u, k)
		}
		return g.out[u]
	}, 0)
	if len(c.Reached) > k || len(c.Class) != len(c.Reached) || len(c.FirstIndex) != len(c.Reached) || len(c.Indices) != len(c.Reached) {
		t.Logf("%d reached of %d reachable, result arrays %d/%d/%d", len(c.Reached), k, len(c.Class), len(c.FirstIndex), len(c.Indices))
		return false
	}
	for v := k; v < g.N(); v++ {
		if c.Pos(int32(v)) != -1 {
			t.Logf("unreached node %d holds position %d", v, c.Pos(int32(v)))
			return false
		}
	}
	keep := make([]bool, g.N())
	for v := 0; v < k; v++ {
		keep[v] = true
	}
	sub, _, _ := g.Induced(keep) // keeps the first k ids as they are
	want := sub.Classify(0)
	if c.Regular != want.Regular || c.HasRecurring != want.HasRecurring {
		t.Logf("flags regular=%v recurring=%v, reached part alone %v/%v", c.Regular, c.HasRecurring, want.Regular, want.HasRecurring)
		return false
	}
	for v := 0; v < k; v++ {
		if c.ClassOf(int32(v)) != want.ClassOf(int32(v)) {
			t.Logf("node %d: class %v, reached part alone %v", v, c.ClassOf(int32(v)), want.ClassOf(int32(v)))
			return false
		}
	}
	return !t.Failed()
}

func TestClassifyMatchesOracleProperty(t *testing.T) {
	matches := func(g *Digraph) bool {
		fast := g.Classify(0)
		slow := g.ClassifyOracle(0)
		for v := 0; v < g.N(); v++ {
			if fast.ClassOf(int32(v)) != slow[v] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		if !matches(randomGraph(rng, n, rng.Intn(3*n))) {
			return false
		}
		// The source reaches only part of the graph; the rest holds
		// cycles and multiple nodes.
		g, k := partlyReachedGraph(rng)
		return matches(g) && checkConfined(t, g, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClassifyIndicesMatchWalkSetsProperty(t *testing.T) {
	matches := func(g *Digraph, reached int) bool {
		c := g.Classify(0)
		walks := g.WalkLengthSets(0, g.N()-1)
		for v := 0; v < g.N(); v++ {
			if v >= reached && indicesOf(c, int32(v)) != nil {
				return false
			}
			if c.ClassOf(int32(v)) != Single && c.ClassOf(int32(v)) != Multiple {
				continue
			}
			if len(indicesOf(c, int32(v))) != len(walks[v]) {
				return false
			}
			for i := range walks[v] {
				if indicesOf(c, int32(v))[i] != walks[v][i] {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		if !matches(randomGraph(rng, n, rng.Intn(2*n)), n) {
			return false
		}
		g, k := partlyReachedGraph(rng)
		return matches(g, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWalkLengthSetsLasso(t *testing.T) {
	// 0->1, 1->2, 2->1 (2-cycle): node 1 has lengths 1,3,5,...
	g := buildGraph(3, [][2]int{{0, 1}, {1, 2}, {2, 1}})
	sets := g.WalkLengthSets(0, 6)
	want1 := []int{1, 3, 5}
	if len(sets[1]) != 3 {
		t.Fatalf("walk set(1) = %v", sets[1])
	}
	for i, w := range want1 {
		if sets[1][i] != w {
			t.Fatalf("walk set(1) = %v, want %v", sets[1], want1)
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		Unreachable: "unreachable",
		Single:      "single",
		Multiple:    "multiple",
		Recurring:   "recurring",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
