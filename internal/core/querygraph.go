package core

import (
	"io"

	"magiccounting/internal/graph"
)

// GraphParams are the query-graph measures of §3 and the refinement
// parameters of §§7–9, computed on the subgraph reachable from the
// source (the paper's G_Q). They parameterize every cost formula in
// Tables 1–5.
type GraphParams struct {
	// NL, ML: nodes and arcs of the magic graph G_L (reachable part).
	NL, ML int
	// NR, MR: nodes and arcs of G_R reachable along answer paths.
	NR, MR int
	// NE, ME: nodes incident to and arcs of G_E inside G_Q.
	NE, ME int

	// Regular: every magic-graph node is single. Cyclic: some node is
	// recurring (the counting method's unsafe regime).
	Regular, Cyclic bool

	// IX is i_x of §7: the smallest first-index of a non-single node
	// (NL+1 when the graph is regular).
	IX int
	// NX, MX: single nodes with first index below IX, and the arcs of
	// the subgraph they induce.
	NX, MX int
	// NJhat, MJhat: the §7 hatted measures — nodes of the NX region
	// with no path to any node of first index >= IX, and the arcs
	// entering them.
	NJhat, MJhat int

	// NS, MS: single nodes and the arcs among them (§8).
	NS, MS int
	// NIhat, MIhat: single nodes with no path to a multiple or
	// recurring node, and the arcs entering them (§8).
	NIhat, MIhat int

	// NM, MM: single-or-multiple nodes and the arcs among them (§9).
	NM, MM int
	// NMhat, MMhat: single-or-multiple nodes with no path to a
	// recurring node, and the arcs entering them (§9).
	NMhat, MMhat int
}

// Params analyzes the query instance and returns its graph measures.
func (q Query) Params() GraphParams {
	in := build(q)
	var p GraphParams

	lg := in.lGraph()
	cls := lg.Classify(int(in.src))
	reachL := make([]bool, lg.N())
	for _, v := range cls.Reached {
		reachL[v] = true
	}
	for _, v := range cls.Reached {
		p.NL++
		for _, w := range lg.Out(int(v)) {
			if reachL[w] {
				p.ML++
			}
		}
	}
	p.Regular = cls.Regular
	p.Cyclic = cls.HasRecurring

	// R-side reachability: an R node enters G_Q through an E arc from
	// a reachable L node, then along descent arcs.
	nR := in.nR
	reachR := make([]bool, nR)
	var stack []int32
	for _, v := range cls.Reached {
		for _, y := range in.eOut(v) {
			p.ME++
			if !reachR[y] {
				reachR[y] = true
				stack = append(stack, y)
			}
		}
	}
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y2 := range in.rOut(y) {
			p.MR++
			if !reachR[y2] {
				reachR[y2] = true
				stack = append(stack, y2)
			}
		}
	}
	for _, r := range reachR {
		if r {
			p.NR++
		}
	}
	p.NE = p.NL + p.NR

	// §7 parameters.
	p.IX = p.NL + 1
	for i, c := range cls.Class {
		if c != graph.Single && cls.FirstIndex[i] < p.IX {
			p.IX = cls.FirstIndex[i]
		}
	}
	inX := make([]bool, lg.N())
	var high []int
	for i, v := range cls.Reached {
		if cls.FirstIndex[i] < p.IX {
			inX[v] = true
		} else {
			high = append(high, int(v))
		}
	}
	p.NX, p.MX = countRegion(lg, inX)
	p.NJhat, p.MJhat = countHatted(lg, reachL, inX, high)

	// §8 parameters.
	inS := make([]bool, lg.N())
	var nonSingle []int
	for i, v := range cls.Reached {
		if cls.Class[i] == graph.Single {
			inS[v] = true
		} else {
			nonSingle = append(nonSingle, int(v))
		}
	}
	p.NS, p.MS = countRegion(lg, inS)
	p.NIhat, p.MIhat = countHatted(lg, reachL, inS, nonSingle)

	// §9 parameters.
	inM := make([]bool, lg.N())
	var recurring []int
	for i, v := range cls.Reached {
		if cls.Class[i] == graph.Recurring {
			recurring = append(recurring, int(v))
		} else {
			inM[v] = true
		}
	}
	p.NM, p.MM = countRegion(lg, inM)
	p.NMhat, p.MMhat = countHatted(lg, reachL, inM, recurring)
	return p
}

// WriteMagicGraphDOT renders the query's magic graph G_L in Graphviz
// DOT syntax, coloring nodes by their single/multiple/recurring
// class. Useful for inspecting why a method chose its reduced sets.
func (q Query) WriteMagicGraphDOT(w io.Writer) error {
	in := build(q)
	g := in.lGraph()
	cls := g.Classify(int(in.src))
	return g.WriteDOT(w, graph.DOTOptions{
		Name:  "magic_graph",
		Label: func(v int) string { return in.lName(int32(v)) },
		Class: cls.ClassOf,
	})
}

// countRegion returns the node count of the masked region and the
// number of arcs with both endpoints inside it.
func countRegion(g *graph.Digraph, mask []bool) (nodes, arcs int) {
	for v := 0; v < g.N(); v++ {
		if !mask[v] {
			continue
		}
		nodes++
		for _, w := range g.Out(v) {
			if mask[w] {
				arcs++
			}
		}
	}
	return nodes, arcs
}

// countHatted returns, for a region and its "bad" complement seeds,
// the count of region nodes with no directed path to any bad node and
// the number of arcs (from anywhere reachable) entering those nodes —
// the paper's hatted n/m parameters.
func countHatted(g *graph.Digraph, reach, region []bool, bad []int) (nodes, arcs int) {
	canReachBad := g.ReverseReachable(bad)
	safe := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		safe[v] = region[v] && !canReachBad[v]
	}
	for v := 0; v < g.N(); v++ {
		if !safe[v] {
			continue
		}
		nodes++
		for _, u := range g.In(v) {
			if reach[u] {
				arcs++
			}
		}
	}
	return nodes, arcs
}
