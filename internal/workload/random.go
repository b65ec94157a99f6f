package workload

import (
	"fmt"
	"math/rand"

	"magiccounting/internal/core"
)

// This file holds the seeded random instance generators behind the
// differential correctness sweep: one generator per Figure-3 regime
// of the magic graph, each guaranteeing its regime by construction,
// plus a pack of adversarial shapes. All generators are deterministic
// in their seed so a failing instance can be replayed from its seed
// alone.

// RegimeKind names the magic-graph regime a generator targets.
type RegimeKind uint8

const (
	// KindRegular: layered G_L, arcs only between adjacent layers, so
	// every reachable node has exactly one walk length.
	KindRegular RegimeKind = iota
	// KindCyclicRegular: a regular reachable region plus cycles that
	// are NOT reachable from the source (they may reach it). The magic
	// graph stays regular even though G_L as a whole is cyclic.
	KindCyclicRegular
	// KindMultiple: layered G_L plus layer-skipping arcs, so some
	// nodes have several distinct walk lengths but no cycle is
	// reachable (acyclic non-regular).
	KindMultiple
	// KindRecurring: a reachable cycle is forced, so some nodes have
	// infinitely many walk lengths and pure counting is unsafe.
	KindRecurring
)

// String names the kind.
func (k RegimeKind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindCyclicRegular:
		return "cyclic-but-regular"
	case KindMultiple:
		return "multiple"
	default:
		return "recurring"
	}
}

// RandomRegime returns a random instance whose magic graph falls in
// the given regime by construction. Size scales the node counts;
// sizes 1..4 keep instances small enough for the literal walk oracle.
func RandomRegime(kind RegimeKind, seed int64, size int) core.Query {
	if size < 1 {
		size = 1
	}
	rng := rand.New(rand.NewSource(seed ^ int64(kind)<<32))
	layers := 2 + rng.Intn(2+size) // 2..3+size
	width := 1 + rng.Intn(1+size)  // 1..1+size
	var q core.Query
	q.Source = "a"
	node := func(l, i int) string { return fmt.Sprintf("n%d_%d", l, i) }

	// Layered spine: source feeds layer 0; arcs only l -> l+1.
	for i := 0; i < width; i++ {
		if i == 0 || rng.Intn(2) == 0 {
			q.L = append(q.L, core.P(q.Source, node(0, i)))
		}
	}
	for l := 0; l+1 < layers; l++ {
		// Column 0 is a guaranteed chain, so regime-forcing arcs below
		// can anchor on provably reachable nodes.
		q.L = append(q.L, core.P(node(l, 0), node(l+1, 0)))
		for i := 0; i < width; i++ {
			arcs := 1 + rng.Intn(2)
			for a := 0; a < arcs; a++ {
				q.L = append(q.L, core.P(node(l, i), node(l+1, rng.Intn(width))))
			}
		}
	}

	switch kind {
	case KindRegular:
		// Nothing more: adjacent-layer arcs keep every node single.
	case KindCyclicRegular:
		// A cycle among fresh nodes, unreachable from the source, with
		// arcs INTO the reachable region (never out of it).
		loop := 2 + rng.Intn(3)
		for i := 0; i < loop; i++ {
			q.L = append(q.L, core.P(node(-1, i), node(-1, (i+1)%loop)))
		}
		q.L = append(q.L, core.P(node(-1, rng.Intn(loop)), q.Source))
		if rng.Intn(2) == 0 {
			q.L = append(q.L, core.P(node(-1, rng.Intn(loop)), node(rng.Intn(layers), rng.Intn(width))))
		}
	case KindMultiple:
		// Layer-skipping arcs along the column-0 chain give their
		// targets a second walk length without creating any cycle:
		// node(l+2, 0) is reachable at length l+3 via the chain and
		// l+2 via the skip.
		if layers >= 3 {
			skips := 1 + rng.Intn(2)
			for s := 0; s < skips; s++ {
				l := rng.Intn(layers - 2)
				q.L = append(q.L, core.P(node(l, 0), node(l+2, 0)))
			}
		} else {
			// Not enough layers to skip within: route the source past
			// layer 0 (node(1, 0) then has lengths 1 and 2).
			q.L = append(q.L, core.P(q.Source, node(1, 0)))
		}
	case KindRecurring:
		// A back arc on the column-0 chain forces a 2-cycle that is
		// provably reachable from the source.
		l := rng.Intn(layers - 1)
		u, v := node(l, 0), node(l+1, 0)
		q.L = append(q.L, core.P(v, u))
		if rng.Intn(3) == 0 {
			w := node(rng.Intn(layers), rng.Intn(width))
			q.L = append(q.L, core.P(w, w)) // self-loop for good measure
		}
	}

	// E: a mix of identity arcs (same-generation style), cross arcs to
	// the R-side domain, and the occasional arc from an L-node that may
	// be unreachable. Constants on the R side intentionally reuse some
	// L-side names to exercise the separate-name-space rule.
	rname := func(i int) string {
		if i%3 == 0 {
			return fmt.Sprintf("n%d_%d", i%layers, i%width) // alias an L-side name
		}
		return fmt.Sprintf("r%d", i)
	}
	rdom := 2 + rng.Intn(3+2*size)
	eArcs := 1 + rng.Intn(2+size)
	for i := 0; i < eArcs; i++ {
		var from string
		switch rng.Intn(4) {
		case 0:
			from = q.Source
		default:
			from = node(rng.Intn(layers), rng.Intn(width))
		}
		q.E = append(q.E, core.P(from, rname(rng.Intn(rdom))))
	}
	if rng.Intn(3) == 0 {
		// Same-generation-style identity on the source.
		q.E = append(q.E, core.P(q.Source, q.Source))
	}

	// R: random pairs over the R-side domain, cycles and diamonds
	// included (the descent graph may be arbitrary).
	rArcs := rng.Intn(3 + 3*size)
	for i := 0; i < rArcs; i++ {
		q.R = append(q.R, core.P(rname(rng.Intn(rdom)), rname(rng.Intn(rdom))))
	}
	return q
}

// AdversarialCount is the number of distinct adversarial shapes
// Adversarial generates; variants wrap modulo this count.
const AdversarialCount = 10

// Adversarial returns small handcrafted instances around the shapes
// that historically break walk-semantics implementations: empty
// relations, sources outside the database, self-loops, diamond
// fan-out, duplicated facts, and L/R name aliasing. The seed perturbs
// constants and duplication; the variant selects the shape.
func Adversarial(variant int, seed int64) core.Query {
	rng := rand.New(rand.NewSource(seed))
	dup := func(pairs []core.Pair) []core.Pair {
		// Duplicate a random fact: inputs are bags, semantics sets.
		if len(pairs) > 0 && rng.Intn(2) == 0 {
			pairs = append(pairs, pairs[rng.Intn(len(pairs))])
		}
		return pairs
	}
	switch variant % AdversarialCount {
	case 0: // empty E: no crossing, no answers.
		return core.Query{
			L:      dup([]core.Pair{core.P("a", "b"), core.P("b", "c")}),
			R:      []core.Pair{core.P("x", "y")},
			Source: "a",
		}
	case 1: // empty L: only k=0 crossings count.
		return core.Query{
			E:      dup([]core.Pair{core.P("a", "x"), core.P("b", "y")}),
			R:      []core.Pair{core.P("z", "x")},
			Source: "a",
		}
	case 2: // source absent from every relation.
		return core.Query{
			L:      []core.Pair{core.P("u", "v")},
			E:      []core.Pair{core.P("u", "x")},
			R:      []core.Pair{core.P("y", "x")},
			Source: "ghost",
		}
	case 3: // self-loop on the source: every k has a witness frontier.
		return core.Query{
			L:      dup([]core.Pair{core.P("a", "a"), core.P("a", "b")}),
			E:      []core.Pair{core.P("b", "x")},
			R:      dup([]core.Pair{core.P("y", "x"), core.P("x", "y")}),
			Source: "a",
		}
	case 4: // diamond fan-out in L and R: multiple nodes both sides.
		return core.Query{
			L: []core.Pair{
				core.P("a", "b"), core.P("a", "c"),
				core.P("b", "d"), core.P("c", "d"), core.P("b", "e"), core.P("e", "d"),
			},
			E: []core.Pair{core.P("d", "x"), core.P("a", "w")},
			R: []core.Pair{
				core.P("y", "x"), core.P("z", "x"),
				core.P("w", "y"), core.P("w", "z"),
			},
			Source: "a",
		}
	case 5: // L and R share every constant name (alias stress).
		return core.Query{
			L:      []core.Pair{core.P("a", "b"), core.P("b", "c")},
			E:      []core.Pair{core.P("b", "b"), core.P("c", "a")},
			R:      dup([]core.Pair{core.P("a", "b"), core.P("b", "a"), core.P("c", "b")}),
			Source: "a",
		}
	case 6: // E from unreachable nodes only: no answers despite facts.
		return core.Query{
			L:      []core.Pair{core.P("a", "b"), core.P("u", "v")},
			E:      []core.Pair{core.P("u", "x"), core.P("v", "y")},
			R:      []core.Pair{core.P("z", "x")},
			Source: "a",
		}
	case 7: // cycle through the source with an R-side cycle to match.
		return core.Query{
			L:      dup([]core.Pair{core.P("a", "b"), core.P("b", "a")}),
			E:      []core.Pair{core.P("a", "x")},
			R:      []core.Pair{core.P("y", "x"), core.P("x", "y")},
			Source: "a",
		}
	case 8: // same-generation instance (identity E) over a tiny tree.
		return core.SameGeneration([]core.Pair{
			core.P("a", "b"), core.P("a", "c"), core.P("b", "d"), core.P("c", "e"),
		}, "a")
	default: // single node, all relations self-loops on it.
		return core.Query{
			L:      []core.Pair{core.P("a", "a")},
			E:      []core.Pair{core.P("a", "a")},
			R:      []core.Pair{core.P("a", "a")},
			Source: "a",
		}
	}
}
