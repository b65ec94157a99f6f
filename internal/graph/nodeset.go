package graph

// NodeSet is an insertion-ordered set of non-negative node ids that
// numbers its members densely: the i-th id added sits at position i.
// It is the per-query position table of the reach-confined analyses
// (Classify, the Step 1 fixpoints) and the membership structure of
// counting levels, P_M rows and answer sets. Its storage is sized by
// its members, never by the graph's node count: up to nodeSetSmall
// members membership is a linear scan of the list, and past that an
// open-addressing table of positions, pointer-free and at most half
// full, is probed by a multiplicative hash of the id. The zero value is
// an empty set.
type NodeSet struct {
	list  []int32 // members in insertion order
	slots []int32 // position+1 per slot, 0 when empty; nil while the list is short
	shift uint8   // 64 - log2(len(slots))
}

// nodeSetSmall is the member count up to which membership is a linear
// scan and no table is kept: most counting levels and reached sets hold
// a handful of nodes, and scanning a few ints beats hashing them.
const nodeSetSmall = 16

// home returns the start of v's probe sequence: Fibonacci hashing, the
// top bits of a multiply that spreads consecutive ids over the table.
func (s *NodeSet) home(v int32) int {
	return int(uint64(uint32(v)) * 0x9E3779B97F4A7C15 >> s.shift)
}

// Pos returns v's position, or -1 when v is not a member.
func (s *NodeSet) Pos(v int32) int {
	if s.slots == nil {
		for i, x := range s.list {
			if x == v {
				return i
			}
		}
		return -1
	}
	mask := len(s.slots) - 1
	for h := s.home(v); ; h = (h + 1) & mask {
		p := s.slots[h]
		if p == 0 {
			return -1
		}
		if s.list[p-1] == v {
			return int(p - 1)
		}
	}
}

// Has reports whether v is a member.
func (s *NodeSet) Has(v int32) bool { return s.Pos(v) >= 0 }

// Add inserts v, reporting whether it was absent. A new member takes
// position Len()-1.
func (s *NodeSet) Add(v int32) bool {
	_, added := s.Insert(v)
	return added
}

// Insert returns v's position, adding v at the end when it is absent,
// and reports whether it was added: Pos and Add in one probe.
func (s *NodeSet) Insert(v int32) (int, bool) {
	if p := s.Pos(v); p >= 0 {
		return p, false
	}
	s.list = append(s.list, v)
	p := len(s.list) - 1
	switch {
	case 2*len(s.list) > len(s.slots) && len(s.list) > nodeSetSmall:
		s.rehash()
	case s.slots != nil:
		s.place(p)
	}
	return p, true
}

// place records the member at position p in the table.
func (s *NodeSet) place(p int) {
	mask := len(s.slots) - 1
	h := s.home(s.list[p])
	for s.slots[h] != 0 {
		h = (h + 1) & mask
	}
	s.slots[h] = int32(p + 1)
}

// rehash rebuilds the table at the smallest power of two that holds
// every member at most half full.
func (s *NodeSet) rehash() {
	n, shift := 4*nodeSetSmall, uint8(64-6)
	for n < 2*len(s.list) {
		n, shift = 2*n, shift-1
	}
	s.slots, s.shift = make([]int32, n), shift
	for p := range s.list {
		s.place(p)
	}
}

// Members returns the set in insertion order: Members()[i] is the
// member at position i. The slice is the set's own storage: callers
// must not modify it, and adds during iteration are visible to the
// iterating loop.
func (s *NodeSet) Members() []int32 { return s.list }

// Len returns the number of members.
func (s *NodeSet) Len() int { return len(s.list) }
