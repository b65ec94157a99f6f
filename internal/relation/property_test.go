package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randTuple draws a tuple mixing symbols and ints from a small domain,
// so random probes hit and miss both kinds.
func randTuple(rng *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		if rng.Intn(2) == 0 {
			t[i] = Sym(fmt.Sprintf("s%d", rng.Intn(8)))
		} else {
			t[i] = Int(int64(rng.Intn(8)))
		}
	}
	return t
}

// collect runs one probe and returns the matched tuples plus the
// retrievals it charged.
func collect(r *Relation, cols []int, vals []Value) ([]Tuple, int64) {
	before := r.Meter().Retrievals()
	var out []Tuple
	r.Lookup(cols, vals, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out, r.Meter().Retrievals() - before
}

// An indexed Lookup and a frozen relation's scan fallback must be
// observationally identical: same tuples in the same order and the
// same meter charge — the invariant concurrent snapshot readers rely
// on.
func TestLookupIndexVsScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(4)
		n := rng.Intn(60)

		indexed := NewStore().Scratch("indexed", arity)
		frozen := NewStore().Scratch("frozen", arity)
		for i := 0; i < n; i++ {
			tup := randTuple(rng, arity)
			indexed.Insert(tup)
			frozen.Insert(tup)
		}
		frozen.Freeze()

		for probe := 0; probe < 8; probe++ {
			var cols []int
			var vals []Value
			for c := 0; c < arity; c++ {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
					vals = append(vals, randTuple(rng, 1)[0])
				}
			}
			if len(cols) > 0 {
				indexed.EnsureIndex(cols...)
			}
			it, ic := collect(indexed, cols, vals)
			ft, fc := collect(frozen, cols, vals)
			if !reflect.DeepEqual(it, ft) {
				t.Logf("seed %d: tuples differ: indexed %v, frozen %v", seed, it, ft)
				return false
			}
			if ic != fc {
				t.Logf("seed %d: charges differ: indexed %d, frozen %d", seed, ic, fc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
