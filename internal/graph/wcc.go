package graph

// This file adds the weak-connectivity layer: a query from source a
// can only ever touch the weakly connected region of the symbol graph
// containing a (Fact 2's walks follow arcs of L, E, and R, all of
// which stay inside one weak component). Core's deprecated sharding
// layer partitions a database along those components, and core's
// confinement test checks the property against them; both find the
// components with a UnionFind over the symbol ids, joining each
// fact's endpoints, and no Digraph of the symbol graph is ever built.

// UnionFind is a disjoint-set forest over elements 0..n-1 with union
// by size and path halving, the classic near-constant-amortized
// structure. The zero value is unusable; construct with NewUnionFind.
type UnionFind struct {
	parent []int32
	size   []int32
	comps  int
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), size: make([]int32, n), comps: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Find returns the representative of x's set, halving the path as it
// walks so later finds shorten.
func (u *UnionFind) Find(x int) int {
	p := u.parent
	for p[x] != int32(x) {
		p[x] = p[p[x]] // path halving
		x = int(p[x])
	}
	return x
}

// Union merges the sets of x and y, reporting whether they were
// distinct. The larger set's representative wins; ties keep x's.
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	u.size[rx] += u.size[ry]
	u.comps--
	return true
}

// Sets reports the number of disjoint sets remaining.
func (u *UnionFind) Sets() int { return u.comps }

// Components numbers the sets 0..Sets()-1 in order of their smallest
// element — deterministic in the element numbering, whatever order the
// unions came in — and returns each element's set number with the set
// count.
func (u *UnionFind) Components() ([]int32, int) {
	comp := make([]int32, len(u.parent))
	num := make([]int32, len(u.parent)) // a root's set number plus one
	n := int32(0)
	for x := range comp {
		r := u.Find(x)
		if num[r] == 0 {
			n++
			num[r] = n
		}
		comp[x] = num[r] - 1
	}
	return comp, int(n)
}
