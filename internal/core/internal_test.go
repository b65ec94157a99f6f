package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
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
	if len(p.bySource(0)) != 2 || p.bySource(1) != nil {
		t.Fatal("bySource wrong")
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
	_, flagged, _, _ := in.flaggedBFS()
	for v, f := range flagged {
		if f {
			t.Fatalf("node %s flagged on a regular diamond", in.lName(int32(v)))
		}
	}
}

func TestFlaggedBFSShortcutFlagsAndIX(t *testing.T) {
	q := Query{L: []Pair{P("a", "b"), P("b", "c"), P("a", "c"), P("c", "d")}, Source: "a"}
	in := build(q)
	firstIdx, flagged, ix, _ := in.flaggedBFS()
	var cID int32 = -1
	for v, n := range in.c.lNames.flat() {
		if n == "c" {
			cID = int32(v)
		}
	}
	if !flagged[cID] {
		t.Fatal("c should be flagged (distances 1 and 2)")
	}
	if ix != firstIdx[cID] {
		t.Fatalf("ix = %d, want first index of c (%d)", ix, firstIdx[cID])
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
		rsM := in.step1Multiple(false)
		for v := 0; v < in.nL; v++ {
			wantRM := oracle.Class[v] == graph.Multiple || oracle.Class[v] == graph.Recurring
			if rsM.RM[v] != wantRM {
				t.Logf("seed %d: multiple RM[%s] = %v, oracle %v", seed, in.lName(int32(v)), rsM.RM[v], oracle.Class[v])
				return false
			}
		}
		// Recurring method: RM = exactly the recurring nodes.
		in2 := build(q)
		rsR := in2.step1RecurringNaive(false)
		for v := 0; v < in2.nL; v++ {
			wantRM := oracle.Class[v] == graph.Recurring
			if rsR.RM[v] != wantRM {
				t.Logf("seed %d: recurring RM[%s] = %v, oracle %v", seed, in2.lName(int32(v)), rsR.RM[v], oracle.Class[v])
				return false
			}
		}
		// Recurring RC must carry complete index sets.
		for v := 0; v < in2.nL; v++ {
			if rsR.RM[v] || oracle.Class[v] == graph.Unreachable {
				continue
			}
			got := multiIndices(rsR.RC, int32(v))
			want := oracle.Indices[v]
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
			if oracle := view.ClassifyOracle(int(in.src)); !reflect.DeepEqual(cls.Class, oracle) {
				t.Fatalf("seed %d %s source %q: classes %v, oracle %v", seed, f.name, src, cls.Class, oracle)
			}
			// Ids differ between forms (Extend interns delta symbols
			// last), so forms are compared by name.
			got := &byName{map[string]graph.Class{}, map[string]int{}, map[string][]int{}, cls.Regular, cls.HasRecurring}
			for v := 0; v < in.nL; v++ {
				name := in.lName(int32(v))
				got.Class[name], got.FirstIndex[name], got.Indices[name] = cls.Class[v], cls.FirstIndex[v], cls.Indices[v]
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
