package graph

// Class is the Saccà–Zaniolo classification of a magic-graph node b
// with respect to a source node a, by the set I_b of lengths of walks
// from a to b (Proposition 1 of the paper).
type Class uint8

const (
	// Unreachable: no walk from the source reaches the node, so it is
	// not in the magic set at all.
	Unreachable Class = iota
	// Single: exactly one distance — all paths from the source have
	// the same length.
	Single
	// Multiple: finitely many (>= 2) distances — at least two acyclic
	// paths of different lengths.
	Multiple
	// Recurring: infinitely many distances — some cyclic path from
	// the source reaches the node.
	Recurring
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case Single:
		return "single"
	case Multiple:
		return "multiple"
	case Recurring:
		return "recurring"
	default:
		return "unreachable"
	}
}

// Classification holds the analysis of the part of a magic graph one
// source reaches, by reached position: Reached lists the reached nodes
// and every per-node field is indexed by a node's position in it, so
// the whole result is sized by the reach, not by the graph.
type Classification struct {
	// Reached lists the nodes the source reaches in BFS discovery
	// order, the source first.
	Reached []int32
	// Class[i] is Reached[i]'s class relative to the source (never
	// Unreachable).
	Class []Class
	// FirstIndex[i] is Reached[i]'s shortest walk length from the
	// source (its BFS distance).
	FirstIndex []int
	// Indices[i] lists all walk lengths of Reached[i] when it is single
	// or multiple, sorted ascending; nil for a recurring node, whose
	// index set is infinite.
	Indices [][]int
	// Regular reports whether every reachable node is single.
	Regular bool
	// HasRecurring reports whether any reachable node is recurring
	// (the regime where the pure counting method is unsafe).
	HasRecurring bool

	pos NodeSet // Reached, with each node's position
}

// Pos returns v's position in Reached, or -1 when the source does not
// reach v.
func (c *Classification) Pos(v int32) int { return c.pos.Pos(v) }

// ClassOf returns v's class: Unreachable when the source does not
// reach it.
func (c *Classification) ClassOf(v int32) Class {
	if p := c.pos.Pos(v); p >= 0 {
		return c.Class[p]
	}
	return Unreachable
}

// Positions returns the position table behind Reached and Pos, for a
// caller that goes on numbering the reached nodes by position. The
// table is shared: the caller must not add to it.
func (c *Classification) Positions() *NodeSet { return &c.pos }

// Classify determines the class of every node an n-node graph's node
// src reaches, reading the graph only through out — out(u) lists u's
// successors, every id in [0, n) — so the caller's own adjacency
// storage is the graph and nothing is copied. This is the efficient
// Step 1 the paper sketches at the end of §9, and both its work and its
// storage are confined to what src reaches: a BFS for the first indices
// and the position table, Tarjan's SCC algorithm rooted at src for the
// cyclic nodes, the forward closure of those for the recurring set, and
// a frontier-list level DP over the non-recurring nodes for the exact
// index sets of single and multiple nodes. Every step is linear in the
// reached nodes and arcs except the DP, which scans a node's arcs once
// per index the node holds and so exceeds that on the multiple region
// only. out is never called on an unreached node, and no array is
// sized by n. A src outside [0, n) reaches nothing.
func Classify(n int, out func(int32) []int32, src int) *Classification {
	c := &Classification{Regular: true}
	if src < 0 || src >= n {
		return c
	}

	// BFS: first indices, and the reached nodes in discovery order.
	c.pos.Add(int32(src))
	c.FirstIndex = append(c.FirstIndex, 0)
	for head := 0; head < c.pos.Len(); head++ {
		u := c.pos.Members()[head]
		for _, v := range out(u) {
			if c.pos.Add(v) {
				c.FirstIndex = append(c.FirstIndex, c.FirstIndex[head]+1)
			}
		}
	}
	c.Reached = c.pos.Members()
	c.Class = make([]Class, len(c.Reached))
	c.Indices = make([][]int, len(c.Reached))

	// Cyclic nodes: members of a strongly connected component of size
	// >= 2, or nodes with a self-loop. Recurring = downstream of one;
	// Class doubles as the closure's visited mask.
	var stack []int32
	tarjan(out, c.Reached, c.pos.Pos, func(comp []int32) {
		if len(comp) == 1 && !rowHas(out(comp[0]), comp[0]) {
			return
		}
		for _, v := range comp {
			c.Class[c.pos.Pos(v)] = Recurring
		}
		stack = append(stack, comp...)
	})
	c.HasRecurring = len(stack) > 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range out(u) {
			if p := c.pos.Pos(v); c.Class[p] != Recurring {
				c.Class[p] = Recurring
				stack = append(stack, v)
			}
		}
	}

	// Walks that end at a non-recurring node never pass through a
	// recurring node (anything downstream of a recurring node is
	// recurring), so a level DP restricted to non-recurring nodes
	// enumerates their full index sets. Those nodes induce an acyclic
	// graph, so the frontier empties by itself; and since each node's
	// indices arrive in ascending order, "already on this level's
	// frontier" is "its last index is this level". Frontiers hold
	// positions.
	var cur, nxt []int32
	if c.Class[0] != Recurring {
		cur = append(cur, 0)
		c.Indices[0] = []int{0}
	}
	for level := 1; len(cur) > 0; level++ {
		nxt = nxt[:0]
		for _, pu := range cur {
			for _, v := range out(c.Reached[pu]) {
				p := c.pos.Pos(v)
				if c.Class[p] == Recurring {
					continue
				}
				if idx := c.Indices[p]; len(idx) == 0 || idx[len(idx)-1] != level {
					c.Indices[p] = append(idx, level)
					nxt = append(nxt, int32(p))
				}
			}
		}
		cur, nxt = nxt, cur
	}
	c.Regular = !c.HasRecurring
	for p := range c.Reached {
		switch {
		case c.Class[p] == Recurring:
		case len(c.Indices[p]) == 1:
			c.Class[p] = Single
		default:
			c.Class[p] = Multiple
			c.Regular = false
		}
	}
	return c
}

// Classify is the package-level Classify over g's own adjacency, for
// tests and diagnostics that already hold a Digraph.
func (g *Digraph) Classify(src int) *Classification {
	return Classify(g.N(), func(u int32) []int32 { return g.out[u] }, src)
}

// ReverseReachableForward returns the set of nodes reachable from any
// of the seed nodes following arcs forward (seeds included).
func (g *Digraph) ReverseReachableForward(seeds []int) []bool {
	mask := make([]bool, g.N())
	var stack []int32
	for _, s := range seeds {
		if s >= 0 && s < g.N() && !mask[s] {
			mask[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.out[u] {
			if !mask[v] {
				mask[v] = true
				stack = append(stack, v)
			}
		}
	}
	return mask
}

// WalkLengthSets enumerates, for every node, the set of walk lengths
// from src up to and including maxLen, by level DP over the full graph
// (recurring regions included). It is the brute-force oracle used to
// validate Classify and the Step 1 algorithms: O(maxLen * M) time.
func (g *Digraph) WalkLengthSets(src, maxLen int) [][]int {
	n := g.N()
	out := make([][]int, n)
	if src < 0 || src >= n {
		return out
	}
	cur := make([]bool, n)
	nxt := make([]bool, n)
	cur[src] = true
	out[src] = append(out[src], 0)
	for level := 1; level <= maxLen; level++ {
		any := false
		for i := range nxt {
			nxt[i] = false
		}
		for u := 0; u < n; u++ {
			if !cur[u] {
				continue
			}
			for _, v := range g.out[u] {
				if !nxt[v] {
					nxt[v] = true
					any = true
					out[v] = append(out[v], level)
				}
			}
		}
		cur, nxt = nxt, cur
		if !any {
			break
		}
	}
	return out
}

// ClassifyOracle is a deliberately naive classifier used only in tests
// to cross-check Classify: it enumerates walk lengths up to 2N and
// derives the class from first principles. A node with a walk of
// length >= N has walked through a cycle (pigeonhole), hence is
// recurring; otherwise the number of distinct lengths decides.
func (g *Digraph) ClassifyOracle(src int) []Class {
	n := g.N()
	classes := make([]Class, n)
	sets := g.WalkLengthSets(src, 2*n)
	for v := 0; v < n; v++ {
		set := sets[v]
		switch {
		case len(set) == 0:
			classes[v] = Unreachable
		case set[len(set)-1] >= n:
			classes[v] = Recurring
		case len(set) == 1:
			classes[v] = Single
		default:
			classes[v] = Multiple
		}
	}
	return classes
}
