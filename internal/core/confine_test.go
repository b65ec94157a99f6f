package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/graph"
)

// TestFact2Confinement pins Fact 2 on one artifact: a walk from source
// a never leaves a's weakly connected component of L ∪ E ∪ R, so every
// answer lies in that component, and the answers and Stats of a query
// are those of a Compile of the component alone. The instance has five
// disjoint regions, one of them split across base and delta, and the
// delta applied by Extend carries a link bridging two regions. Every
// L-domain symbol is asked under every method, the SCC Step-1 variant
// and automatic selection. The result cache's region reasoning relies
// on this confinement; the sharding layer was built on it.
func TestFact2Confinement(t *testing.T) {
	whole, sources := multiRegion(61, 5, 2)
	base, delta := splitQuery(whole, 0.7, 0.7, 0.7)
	bridge := core.P(sources[1], sources[2])
	delta.L = append(delta.L, bridge)
	whole.L = append(whole.L, bridge)
	art := core.Compile(base.L, base.E, base.R).Extend(delta.L, delta.E, delta.R)

	// The weak components over the facts: L-nodes and R-nodes are
	// separate domains, so they get separate union-find elements.
	lid, rid := map[string]int{}, map[string]int{}
	var lNames []string
	node := 0
	intern := func(m map[string]int, name string, isL bool) int {
		if x, ok := m[name]; ok {
			return x
		}
		m[name] = node
		node++
		if isL {
			lNames = append(lNames, name)
		}
		return m[name]
	}
	for _, p := range whole.L {
		intern(lid, p.From, true)
		intern(lid, p.To, true)
	}
	for _, p := range whole.E {
		intern(lid, p.From, true)
		intern(rid, p.To, false)
	}
	for _, p := range whole.R {
		intern(rid, p.From, false)
		intern(rid, p.To, false)
	}
	uf := graph.NewUnionFind(node)
	for _, p := range whole.L {
		uf.Union(lid[p.From], lid[p.To])
	}
	for _, p := range whole.E {
		uf.Union(lid[p.From], rid[p.To])
	}
	for _, p := range whole.R {
		uf.Union(rid[p.From], rid[p.To])
	}
	if uf.Sets() < 4 {
		t.Fatalf("the instance has %d weak components, want at least 4", uf.Sets())
	}

	// One Compile per component, over exactly the facts inside it.
	alone := map[int]*core.Compiled{}
	component := func(root int) *core.Compiled {
		if c, ok := alone[root]; ok {
			return c
		}
		var l, e, r []core.Pair
		for _, p := range whole.L {
			if uf.Find(lid[p.From]) == root {
				l = append(l, p)
			}
		}
		for _, p := range whole.E {
			if uf.Find(lid[p.From]) == root {
				e = append(e, p)
			}
		}
		for _, p := range whole.R {
			if uf.Find(rid[p.From]) == root {
				r = append(r, p)
			}
		}
		alone[root] = core.Compile(l, e, r)
		return alone[root]
	}

	confined := func(label string, root int, res *core.Result) {
		t.Helper()
		for _, y := range res.Answers {
			if x, ok := rid[y]; !ok || uf.Find(x) != root {
				t.Errorf("%s: answer %s lies outside the source's weak component", label, y)
			}
		}
	}
	for _, src := range lNames {
		root := uf.Find(lid[src])
		comp := component(root)
		for _, s := range equivStrategies {
			for _, m := range equivModes {
				label := fmt.Sprintf("src=%s %v/%v", src, s, m)
				got, gerr := art.Solve(src, s, m, core.Options{})
				want, werr := comp.Solve(src, s, m, core.Options{})
				checkSame(t, label, want, werr, got, gerr)
				if gerr == nil {
					confined(label, root, got)
				}
			}
		}
		got, gerr := art.Solve(src, core.Recurring, core.Integrated, core.Options{SCCStep1: true})
		want, werr := comp.Solve(src, core.Recurring, core.Integrated, core.Options{SCCStep1: true})
		checkSame(t, "src="+src+" recurring/scc", want, werr, got, gerr)
		gres, gsel, gerr := art.SolveAuto(src, core.Options{})
		wres, wsel, werr := comp.SolveAuto(src, core.Options{})
		checkSame(t, "src="+src+" auto", wres, werr, gres, gerr)
		if gerr == nil {
			confined("src="+src+" auto", root, gres)
			if !reflect.DeepEqual(gsel, wsel) {
				t.Errorf("src=%s: auto selection %+v, component alone %+v", src, gsel, wsel)
			}
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("%d sources over %d weak components", len(lNames), uf.Sets())

	// The append side's membership test reads the same artifact: the
	// delta just extended is held, and a fresh pair is novel once.
	if nl, ne, nr := art.Novel(delta.L, delta.E, delta.R); len(nl)+len(ne)+len(nr) != 0 {
		t.Fatalf("the delta just extended is still novel: %v / %v / %v", nl, ne, nr)
	}
	fresh := core.P(sources[0], "never-seen")
	nl, ne, nr := art.Novel(append(append([]core.Pair{fresh}, whole.L...), fresh), whole.E, whole.R)
	if !reflect.DeepEqual(nl, []core.Pair{fresh}) || len(ne)+len(nr) != 0 {
		t.Fatalf("Novel over the held database = %v / %v / %v, want only %v", nl, ne, nr, fresh)
	}
}
