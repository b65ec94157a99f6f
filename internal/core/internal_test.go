package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"magiccounting/internal/graph"
)

func TestLevelSetBasics(t *testing.T) {
	s := newLevelSet()
	if s.maxLevel() != -1 {
		t.Fatal("empty set should have maxLevel -1")
	}
	if !s.add(2, 7) || s.add(2, 7) {
		t.Fatal("add dedupe wrong")
	}
	if !s.add(0, 1) || !s.add(2, 8) {
		t.Fatal("add failed")
	}
	if s.pairs != 3 {
		t.Fatalf("pairs = %d", s.pairs)
	}
	if !s.has(2, 7) || s.has(1, 7) || s.has(-1, 7) || s.has(99, 7) {
		t.Fatal("has wrong")
	}
	if len(s.at(2)) != 2 || len(s.at(1)) != 0 || s.at(-3) != nil || s.at(50) != nil {
		t.Fatal("at wrong")
	}
	if s.maxLevel() != 2 {
		t.Fatalf("maxLevel = %d", s.maxLevel())
	}
}

func TestPairSetBasics(t *testing.T) {
	p := newPairSet(3)
	if !p.add(0, 5) || p.add(0, 5) || !p.add(0, 6) || !p.add(2, 5) {
		t.Fatal("add dedupe wrong")
	}
	if p.count != 3 {
		t.Fatalf("count = %d", p.count)
	}
	if p.row(0).Len() != 2 || p.row(1).Len() != 0 || p.row(-1).Len() != 0 || p.row(3).Len() != 0 {
		t.Fatal("row wrong")
	}
}

func TestBuildInternsSeparateDomains(t *testing.T) {
	q := Query{
		L:      []Pair{P("n", "m")},
		E:      []Pair{P("n", "n")}, // the value n occurs in both domains
		R:      []Pair{P("m", "n")},
		Source: "n",
	}
	in := build(q)
	lNames, rNames := in.c.lNames.flat(), in.c.rNames.flat()
	if len(lNames) != 2 || in.nL != 2 {
		t.Fatalf("L domain = %v", lNames)
	}
	if len(rNames) != 2 {
		t.Fatalf("R domain = %v", rNames)
	}
	// Same constant, two nodes — the paper's "two distinct associated
	// nodes" requirement.
	if lNames[0] != "n" || rNames[0] != "n" {
		t.Fatalf("interning order wrong: %v / %v", lNames, rNames)
	}
}

func TestBuildDedupesFacts(t *testing.T) {
	q := Query{
		L:      []Pair{P("a", "b"), P("a", "b"), P("a", "b")},
		E:      []Pair{P("a", "x"), P("a", "x")},
		R:      []Pair{P("y", "x"), P("y", "x")},
		Source: "a",
	}
	in := build(q)
	if len(in.lOut(0)) != 1 || len(in.eOut(0)) != 1 {
		t.Fatal("duplicate facts not collapsed")
	}
	rx := int32(-1)
	for id, n := range in.c.rNames.flat() {
		if n == "x" {
			rx = int32(id)
		}
	}
	if len(in.rOut(rx)) != 1 {
		t.Fatal("duplicate R facts not collapsed")
	}
}

func TestFlaggedBFSOnDiamondDoesNotFlag(t *testing.T) {
	// Two equal-length paths re-derive d at the same level: no flag.
	q := Query{L: []Pair{P("a", "b"), P("a", "c"), P("b", "d"), P("c", "d")}, Source: "a"}
	in := build(q)
	r, _, flagged, _ := in.flaggedBFS()
	for p, f := range flagged {
		if f {
			t.Fatalf("node %s flagged on a regular diamond", in.lName(r.ms.Members()[p]))
		}
	}
	if !r.regular || r.ms.Len() != 4 {
		t.Fatalf("diamond: regular %v, %d reached", r.regular, r.ms.Len())
	}
}

func TestFlaggedBFSShortcutFlagsAndIX(t *testing.T) {
	q := Query{L: []Pair{P("a", "b"), P("b", "c"), P("a", "c"), P("c", "d")}, Source: "a"}
	in := build(q)
	r, firstIdx, flagged, ix := in.flaggedBFS()
	var cID int32 = -1
	for v, n := range in.c.lNames.flat() {
		if n == "c" {
			cID = int32(v)
		}
	}
	c := r.ms.Pos(cID)
	if !flagged[c] || r.regular {
		t.Fatal("c should be flagged (distances 1 and 2)")
	}
	if ix != firstIdx[c] {
		t.Fatalf("ix = %d, want first index of c (%d)", ix, firstIdx[c])
	}
}

// Step 1 of every strategy classifies nodes consistently with the
// graph-package oracle on random magic graphs.
func TestStep1AgreesWithOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng)
		in := build(q)
		oracle := in.lGraph().Classify(int(in.src))
		// Multiple method: RM = exactly the non-single reachable nodes.
		rsM := in.step1Multiple(false).dense(in.nL)
		for v := 0; v < in.nL; v++ {
			wantRM := oracle.ClassOf(int32(v)) == graph.Multiple || oracle.ClassOf(int32(v)) == graph.Recurring
			if rsM.RM[v] != wantRM {
				t.Logf("seed %d: multiple RM[%s] = %v, oracle %v", seed, in.lName(int32(v)), rsM.RM[v], oracle.ClassOf(int32(v)))
				return false
			}
		}
		// Recurring method: RM = exactly the recurring nodes.
		in2 := build(q)
		rsR := in2.step1RecurringNaive(false).dense(in2.nL)
		for v := 0; v < in2.nL; v++ {
			wantRM := oracle.ClassOf(int32(v)) == graph.Recurring
			if rsR.RM[v] != wantRM {
				t.Logf("seed %d: recurring RM[%s] = %v, oracle %v", seed, in2.lName(int32(v)), rsR.RM[v], oracle.ClassOf(int32(v)))
				return false
			}
		}
		// Recurring RC must carry complete index sets.
		for v := 0; v < in2.nL; v++ {
			if rsR.RM[v] || oracle.ClassOf(int32(v)) == graph.Unreachable {
				continue
			}
			got := multiIndices(rsR.RC, int32(v))
			var want []int
			if p := oracle.Pos(int32(v)); p >= 0 {
				want = oracle.Indices[p]
			}
			if len(got) != len(want) {
				t.Logf("seed %d: indices of %s = %v, want %v", seed, in2.lName(int32(v)), got, want)
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		classifyAcrossArtifactForms(t, seed, rng, q)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// classifyAcrossArtifactForms is TestStep1AgreesWithOracleProperty's
// last case. Classification reads the artifact's own G_L rows, so it
// must not matter how the artifact came to be: a cold compile, an
// Extend chain (re-laid pages), its flattened form and its decoded
// snapshot give every node the same class, first index and index set —
// through in.lOut exactly what the on-demand Digraph view and the
// brute-force oracle say — for a source in the database and for a
// virtual one, and auto-selection and the solve it selects come out
// identical.
func classifyAcrossArtifactForms(t *testing.T, seed int64, rng *rand.Rand, q Query) {
	type byName struct {
		Class      map[string]graph.Class
		FirstIndex map[string]int
		Indices    map[string][]int
		Regular    bool
		Recurring  bool
	}
	cut := func(p []Pair) (a, b, c []Pair) {
		i := rng.Intn(len(p) + 1)
		j := i + rng.Intn(len(p)-i+1)
		return p[:i], p[i:j], p[j:]
	}
	l0, l1, l2 := cut(q.L)
	e0, e1, e2 := cut(q.E)
	r0, r1, r2 := cut(q.R)
	chain := Compile(l0, e0, r0).Extend(l1, e1, r1).Extend(l2, e2, r2)
	decoded, _, err := DecodeCompiled(chain.AppendBinary(nil))
	if err != nil {
		t.Fatalf("seed %d: decode: %v", seed, err)
	}
	forms := []struct {
		name string
		c    *Compiled
	}{
		{"cold", Compile(q.L, q.E, q.R)},
		{"chain", chain},
		{"flattened", chain.Flatten()},
		{"decoded", decoded},
	}
	for _, src := range []string{q.Source, "in-no-relation"} {
		var want *byName
		var wantSel Selection
		var wantRes *Result
		for _, f := range forms {
			in := f.c.bind(src)
			cls := in.classify()
			view := in.lGraph()
			if !reflect.DeepEqual(cls, view.Classify(int(in.src))) {
				t.Fatalf("seed %d %s source %q: classification over lOut differs from the Digraph view's", seed, f.name, src)
			}
			for v, want := range view.ClassifyOracle(int(in.src)) {
				if got := cls.ClassOf(int32(v)); got != want {
					t.Fatalf("seed %d %s source %q: node %d class %v, oracle %v", seed, f.name, src, v, got, want)
				}
			}
			// Ids differ between forms (Extend interns delta symbols
			// last), so forms are compared by name.
			got := &byName{map[string]graph.Class{}, map[string]int{}, map[string][]int{}, cls.Regular, cls.HasRecurring}
			for p, v := range cls.Reached {
				name := in.lName(v)
				got.Class[name], got.FirstIndex[name], got.Indices[name] = cls.Class[p], cls.FirstIndex[p], cls.Indices[p]
			}
			res, sel, err := f.c.SolveAuto(src, Options{})
			if err != nil {
				t.Fatalf("seed %d %s source %q: %v", seed, f.name, src, err)
			}
			if want == nil {
				want, wantSel, wantRes = got, sel, res
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d source %q: %s classifies %+v, cold %+v", seed, src, f.name, got, want)
			}
			if !reflect.DeepEqual(sel, wantSel) {
				t.Fatalf("seed %d source %q: %s selects %+v, cold %+v", seed, src, f.name, sel, wantSel)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("seed %d source %q: %s answers %+v, cold %+v", seed, src, f.name, res, wantRes)
			}
		}
	}
}

// The basic/single shared BFS runs in O(m_L): the charge is linear in
// arcs even on cyclic graphs.
func TestFlaggedBFSLinearCost(t *testing.T) {
	for _, n := range []int{50, 100, 200} {
		q := Query{Source: nodeName(0)}
		for i := 0; i < n; i++ {
			q.L = append(q.L, P(nodeName(i), nodeName((i+1)%n)))
		}
		in := build(q)
		in.flaggedBFS()
		if in.retrievals > int64(6*n) {
			t.Fatalf("n=%d: flaggedBFS charged %d, want O(n)", n, in.retrievals)
		}
	}
}

// The multiple method's two-occurrence fixpoint also stays linear on
// cyclic graphs (each node expands at most twice).
func TestStep1MultipleLinearCostOnCycles(t *testing.T) {
	for _, n := range []int{50, 100, 200} {
		q := Query{Source: nodeName(0)}
		for i := 0; i < n; i++ {
			q.L = append(q.L, P(nodeName(i), nodeName((i+1)%n)))
		}
		in := build(q)
		in.step1Multiple(false)
		if in.retrievals > int64(10*n) {
			t.Fatalf("n=%d: step1Multiple charged %d, want O(n)", n, in.retrievals)
		}
	}
}

// The recurring naive Step 1 is superlinear (Θ(nL·mL)) on cycles —
// the cost the paper concedes and the SCC variant avoids.
func TestStep1RecurringNaiveSuperlinearOnCycles(t *testing.T) {
	// A cycle with a chord at every even node: each node then has
	// Θ(n) distinct walk lengths below the 2K−1 bound, so the counting
	// levels hold Θ(n) nodes each and the bounded fixpoint does
	// Θ(nL·mL) work (a pure cycle would keep one node per level).
	chordCycle := func(n int) Query {
		q := Query{Source: nodeName(0)}
		for i := 0; i < n; i++ {
			q.L = append(q.L, P(nodeName(i), nodeName((i+1)%n)))
			if i%2 == 0 && i+2 < n {
				q.L = append(q.L, P(nodeName(i), nodeName(i+2)))
			}
		}
		return q
	}
	cost := func(n int) int64 {
		in := build(chordCycle(n))
		in.step1RecurringNaive(false)
		return in.retrievals
	}
	c100, c200 := cost(100), cost(200)
	if c200 < 3*c100 {
		t.Fatalf("recurring naive Step 1 should grow superlinearly: %d -> %d", c100, c200)
	}
	sccCost := func(n int) int64 {
		in := build(chordCycle(n))
		in.step1RecurringSCC(false)
		return in.retrievals
	}
	if s200 := sccCost(200); s200 > c200/4 {
		t.Fatalf("SCC Step 1 (%d) should be far below naive (%d)", s200, c200)
	}
}

func TestWriteMagicGraphDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := fig2Query().WriteMagicGraphDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"magic_graph", `"a" -> "b"`, "salmon", "orange", "palegreen"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestQueryWhileExtend queries one artifact from several goroutines
// while a writer extends it append by append, as the serving path does:
// queries in flight keep evaluating the artifact an append rolled past.
// Under -race it shows that a query touches nothing an Extend writes —
// the name tail the chain grows in place and the symbol tables
// included — and that a query's reach-sized working state is its own.
// Every answer equals the one the artifact gave before the first Extend.
func TestQueryWhileExtend(t *testing.T) {
	const n, readers, appends = 3_400, 4, 300
	q := forestDB(n, 3)
	c := Compile(q.L, q.E, q.R)
	var sources []string
	want := make(map[string]*Result)
	for i := 0; i < 32; i++ {
		src := fmt.Sprintf("v%d", (i*1031)%n)
		res, _, err := c.SolveAuto(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sources, want[src] = append(sources, src), res
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := sources[i%len(sources)]
				got, _, err := c.SolveAuto(src, Options{})
				if err != nil || !reflect.DeepEqual(got, want[src]) {
					t.Errorf("source %s during appends: %v (%v), want %v", src, got, err, want[src])
					return
				}
			}
		}(r)
	}
	ext := c
	for i := 0; i < appends; i++ {
		ext = ext.Extend(linkDelta(i, n))
	}
	close(stop)
	wg.Wait()
	l, e, r := ext.Arcs()
	if l0, e0, r0 := c.Arcs(); l != l0+appends || e != e0+appends || r != r0+appends {
		t.Fatalf("chain holds %d/%d/%d arcs, want %d more of each than %d/%d/%d", l, e, r, appends, l0, e0, r0)
	}
}
