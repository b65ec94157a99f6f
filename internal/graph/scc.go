package graph

// SCCResult describes the strongly connected components of a digraph.
type SCCResult struct {
	// Comp[v] is the component id of node v. Ids are assigned in
	// reverse topological order of the condensation (a component's id
	// is greater than the ids of components it can reach). This is the
	// order Tarjan's algorithm emits naturally.
	Comp []int
	// Size[c] is the number of nodes in component c.
	Size []int
	// NumComps is the number of components.
	NumComps int
}

// SCC computes strongly connected components with Tarjan's depth-first
// algorithm, in O(N+M) time. The paper's §9 cites exactly this
// algorithm for detecting recurring nodes in linear time.
func (g *Digraph) SCC() *SCCResult {
	n := g.N()
	res := &SCCResult{Comp: make([]int, n)}
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	id := func(v int32) int { return int(v) }
	tarjan(func(u int32) []int32 { return g.out[u] }, nodes, id, func(comp []int32) {
		for _, w := range comp {
			res.Comp[w] = res.NumComps
		}
		res.Size = append(res.Size, len(comp))
		res.NumComps++
	})
	return res
}

// tarjan is the iterative form of Tarjan's algorithm over a graph read
// through out. It starts a depth-first search at each root not yet
// visited and hands emit every strongly connected component as it
// completes — reverse topological order of the condensation, the
// component's DFS root first; emit must not keep the slice. All state is
// indexed by pos(v), which must number the roots and everything they
// reach within [0, len(roots)): a caller that holds the set reached
// from one node passes it as roots (only the first starts a search) and
// its position table as pos, and pays for that set, not for the graph.
func tarjan(out func(int32) []int32, roots []int32, pos func(int32) int, emit func(comp []int32)) {
	index := make([]int32, len(roots)) // discovery order, 0 = unvisited
	low := make([]int32, len(roots))
	onStack := make([]bool, len(roots))
	var stack []int32   // Tarjan stack
	var next int32 = 1  // next discovery index
	type frame struct { // explicit DFS stack
		v    int32
		rest []int32 // out-arcs of v still to consider
	}
	var dfs []frame
	visit := func(v int32) {
		p := pos(v)
		index[p], low[p], onStack[p] = next, next, true
		next++
		stack = append(stack, v)
		dfs = append(dfs, frame{v: v, rest: out(v)})
	}
	for _, root := range roots {
		if index[pos(root)] != 0 {
			continue
		}
		visit(root)
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v, pv := f.v, pos(f.v)
			if len(f.rest) > 0 {
				w := f.rest[0]
				f.rest = f.rest[1:]
				if pw := pos(w); index[pw] == 0 {
					visit(w)
				} else if onStack[pw] && low[pv] > index[pw] {
					low[pv] = index[pw]
				}
				continue
			}
			// v is finished: pop its component if v is the root of one.
			if low[pv] == index[pv] {
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				for _, w := range stack[top:] {
					onStack[pos(w)] = false
				}
				emit(stack[top:])
				stack = stack[:top]
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				pp := pos(dfs[len(dfs)-1].v)
				if low[pp] > low[pv] {
					low[pp] = low[pv]
				}
			}
		}
	}
}

// CyclicNodes returns the mask of nodes lying on some directed cycle:
// members of a component of size >= 2, or nodes with a self-loop.
func (g *Digraph) CyclicNodes() []bool {
	scc := g.SCC()
	mask := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if scc.Size[scc.Comp[v]] >= 2 || g.HasArc(v, v) {
			mask[v] = true
		}
	}
	return mask
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Digraph) IsAcyclic() bool {
	for _, c := range g.CyclicNodes() {
		if c {
			return false
		}
	}
	return true
}
