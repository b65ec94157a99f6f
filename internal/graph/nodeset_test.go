package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestNodeSetMatchesMapProperty drives a NodeSet and a map through the
// same random inserts, across the switch from scanning to hashing and
// several table growths, over ids both dense and spread to the int32
// range: membership, positions and insertion order agree throughout,
// and the table stays at most half full.
func TestNodeSetMatchesMapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := []int32{40, 4_000, 1<<31 - 1}[rng.Intn(3)]
		var s NodeSet
		pos := map[int32]int{}
		var order []int32
		for i := rng.Intn(600); i > 0; i-- {
			v := rng.Int31n(span)
			p, added := s.Insert(v)
			want, had := pos[v]
			if !had {
				want = len(order)
				pos[v] = want
				order = append(order, v)
			}
			if p != want || added == had {
				t.Logf("seed %d: Insert(%d) = %d, %v; want %d, %v", seed, v, p, added, want, !had)
				return false
			}
			probe := rng.Int31n(span)
			if _, ok := pos[probe]; s.Has(probe) != ok {
				t.Logf("seed %d: Has(%d) wrong", seed, probe)
				return false
			}
		}
		if s.Len() != len(order) || 2*s.Len() > len(s.slots) && s.slots != nil {
			t.Logf("seed %d: %d members in %d slots", seed, s.Len(), len(s.slots))
			return false
		}
		for i, v := range s.Members() {
			if v != order[i] || s.Pos(v) != i {
				return false
			}
		}
		return s.Pos(-1) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
