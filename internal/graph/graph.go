// Package graph provides the directed-graph substrate underlying the
// magic-counting analysis: adjacency storage, breadth-first levels,
// reachability, Tarjan's linear-time strongly-connected-components
// algorithm (the [Tar] reference of the paper), walk-length analysis,
// and the single/multiple/recurring node classification of Saccà and
// Zaniolo §3, together with a brute-force oracle used to validate the
// fast classifier.
package graph

import "fmt"

// Digraph is a directed graph over nodes 0..N-1 with parallel arcs
// collapsed. The zero value is an empty graph; add nodes and arcs with
// AddNode/AddArc.
type Digraph struct {
	out  [][]int32
	in   [][]int32
	m    int
	seen map[int64]struct{} // arc dedupe
}

// NewDigraph returns a graph with n isolated nodes.
func NewDigraph(n int) *Digraph {
	g := &Digraph{seen: make(map[int64]struct{})}
	g.AddNodes(n)
	return g
}

// FromAdjacency builds a graph directly from per-node successor
// lists, which must already be duplicate-free with every id in
// [0, len(out)). It takes ownership of out (rows must not grow past
// their capacity afterwards) and builds the reverse adjacency in two
// counting passes over one backing array — no per-arc map work and no
// per-node allocations, which is what makes a one-shot graph view of
// a compiled artifact's adjacency cheap. The arc-dedupe index is built
// lazily by the first AddArc instead of here; until then HasArc scans
// the row.
func FromAdjacency(out [][]int32) *Digraph {
	n := len(out)
	g := &Digraph{out: out, in: make([][]int32, n)}
	start := make([]int32, n+1)
	for _, row := range out {
		g.m += len(row)
		for _, v := range row {
			start[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	back := make([]int32, g.m)
	pos := make([]int32, n)
	copy(pos, start[:n])
	for u, row := range out {
		for _, v := range row {
			back[pos[v]] = int32(u)
			pos[v]++
		}
	}
	for v := 0; v < n; v++ {
		g.in[v] = back[start[v]:start[v+1]:start[v+1]]
	}
	return g
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.out) }

// M returns the number of (distinct) arcs.
func (g *Digraph) M() int { return g.m }

// AddNode appends a fresh isolated node and returns its id.
func (g *Digraph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// AddNodes appends n isolated nodes.
func (g *Digraph) AddNodes(n int) {
	for i := 0; i < n; i++ {
		g.AddNode()
	}
}

// AddArc inserts the arc u -> v, ignoring duplicates. It panics on
// out-of-range endpoints. Self-loops are allowed.
func (g *Digraph) AddArc(u, v int) {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range, n=%d", u, v, len(g.out)))
	}
	if g.seen == nil {
		// A FromAdjacency graph deferred its dedupe index; pay for it
		// on the first mutation.
		g.seen = make(map[int64]struct{}, g.m)
		for u2, row := range g.out {
			for _, v2 := range row {
				g.seen[int64(u2)<<32|int64(uint32(v2))] = struct{}{}
			}
		}
	}
	key := int64(u)<<32 | int64(uint32(v))
	if _, dup := g.seen[key]; dup {
		return
	}
	g.seen[key] = struct{}{}
	g.out[u] = append(g.out[u], int32(v))
	g.in[v] = append(g.in[v], int32(u))
	g.m++
}

// HasArc reports whether u -> v is present.
func (g *Digraph) HasArc(u, v int) bool {
	if g.seen == nil {
		return rowHas(g.out[u], int32(v))
	}
	key := int64(u)<<32 | int64(uint32(v))
	_, ok := g.seen[key]
	return ok
}

// rowHas reports whether a successor row lists v.
func rowHas(row []int32, v int32) bool {
	for _, w := range row {
		if w == v {
			return true
		}
	}
	return false
}

// Out returns the successors of u. The slice must not be modified.
func (g *Digraph) Out(u int) []int32 { return g.out[u] }

// In returns the predecessors of u. The slice must not be modified.
func (g *Digraph) In(u int) []int32 { return g.in[u] }

// OutDegree returns the number of arcs leaving u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the number of arcs entering u.
func (g *Digraph) InDegree(u int) int { return len(g.in[u]) }

// BFSLevels returns the shortest-path distance from src to every node,
// with -1 for unreachable nodes.
func (g *Digraph) BFSLevels(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.out[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Reachable returns the set of nodes reachable from src (including src
// itself) as a boolean mask.
func (g *Digraph) Reachable(src int) []bool {
	mask := make([]bool, g.N())
	if src < 0 || src >= g.N() {
		return mask
	}
	mask[src] = true
	stack := []int32{int32(src)}
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

// ReverseReachable returns the set of nodes from which target is
// reachable (including target), following arcs backwards.
func (g *Digraph) ReverseReachable(targets []int) []bool {
	mask := make([]bool, g.N())
	var stack []int32
	for _, t := range targets {
		if t >= 0 && t < g.N() && !mask[t] {
			mask[t] = true
			stack = append(stack, int32(t))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.in[u] {
			if !mask[v] {
				mask[v] = true
				stack = append(stack, v)
			}
		}
	}
	return mask
}

// Induced returns the subgraph induced by the nodes where keep is
// true, along with old->new and new->old id maps (old ids absent from
// the subgraph map to -1).
func (g *Digraph) Induced(keep []bool) (sub *Digraph, oldToNew []int, newToOld []int) {
	oldToNew = make([]int, g.N())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	sub = NewDigraph(0)
	for i := 0; i < g.N(); i++ {
		if keep[i] {
			oldToNew[i] = sub.AddNode()
			newToOld = append(newToOld, i)
		}
	}
	for u := 0; u < g.N(); u++ {
		if !keep[u] {
			continue
		}
		for _, v := range g.out[u] {
			if keep[v] {
				sub.AddArc(oldToNew[u], oldToNew[int(v)])
			}
		}
	}
	return sub, oldToNew, newToOld
}
