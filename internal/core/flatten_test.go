// Flatten property suite: folding an Extend chain must produce an
// artifact structurally identical to both the chain and a cold
// Compile over the concatenated relations, observationally identical
// to the chain for every method, folded (at most one overlay link per
// symbol table, codec layout matching the chain's), and no larger by
// the ResidentBytes estimate than the chain it replaces.
package core_test

import (
	"fmt"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/workload"
)

// buildChain compiles the base split of q and extends it in `steps`
// increments, returning the end-of-chain artifact plus the
// concatenated relations it should be equivalent to.
func buildChain(q core.Query, steps int) (*core.Compiled, core.Query) {
	base, rest := splitQuery(q, 0.3, 0.3, 0.3)
	comp := core.Compile(base.L, base.E, base.R)
	comp.Generation = 1
	acc := core.Query{Source: q.Source}
	acc.L = append(acc.L, base.L...)
	acc.E = append(acc.E, base.E...)
	acc.R = append(acc.R, base.R...)
	for i := 0; i < steps; i++ {
		cut := func(p []core.Pair) []core.Pair {
			k := len(p) / steps
			if i == steps-1 {
				return p[i*k:]
			}
			return p[i*k : (i+1)*k]
		}
		dL, dE, dR := cut(rest.L), cut(rest.E), cut(rest.R)
		next := comp.Extend(dL, dE, dR)
		next.Generation = comp.Generation + 1
		acc.L = append(acc.L, dL...)
		acc.E = append(acc.E, dE...)
		acc.R = append(acc.R, dR...)
		comp = next
	}
	return comp, acc
}

// TestFlattenAgainstChain is the property test: over every regime
// kind, flattening a multi-step chain preserves structure against
// both the chain and a cold compile, folds DeltaDepth to at most 1, preserves
// Generation and the relation tags, and answers every method/source
// combination identically.
func TestFlattenAgainstChain(t *testing.T) {
	kinds := []struct {
		name string
		kind workload.RegimeKind
	}{
		{"regular", workload.KindRegular},
		{"cyclic-regular", workload.KindCyclicRegular},
		{"multiple", workload.KindMultiple},
		{"recurring", workload.KindRecurring},
	}
	for _, k := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("%s/seed=%d", k.name, seed)
			q := workload.RandomRegime(k.kind, seed, 3)
			chain, acc := buildChain(q, 6)
			flat := chain.Flatten()

			if err := flat.StructuralEqual(chain); err != nil {
				t.Fatalf("%s: flattened artifact diverges from the chain: %v", label, err)
			}
			cold := core.Compile(acc.L, acc.E, acc.R)
			if err := flat.StructuralEqual(cold); err != nil {
				t.Fatalf("%s: flattened artifact diverges from cold compile: %v", label, err)
			}
			if flat.DeltaDepth() > 1 {
				t.Fatalf("%s: DeltaDepth = %d after Flatten, want at most 1", label, flat.DeltaDepth())
			}
			if flat.Generation != chain.Generation {
				t.Fatalf("%s: Flatten changed Generation %d -> %d", label, chain.Generation, flat.Generation)
			}

			sources := []string{q.Source, "absent-from-everything"}
			if len(acc.L) > 0 {
				sources = append(sources, acc.L[len(acc.L)-1].To)
			}
			for _, src := range sources {
				for _, s := range equivStrategies {
					for _, m := range equivModes {
						want, werr := chain.Solve(src, s, m, core.Options{})
						got, gerr := flat.Solve(src, s, m, core.Options{})
						checkSame(t, fmt.Sprintf("%s src=%s %v/%v", label, src, s, m), want, werr, got, gerr)
					}
				}
			}
		}
	}
}

// TestFlattenSelfContained checks the fold's contracts: an already
// folded artifact is returned as-is, the flattened artifact keeps
// working after the
// chain is dropped, it can seed a fresh Extend chain, its encoding is
// byte-identical to the chain's, and the byte estimate shrinks.
func TestFlattenSelfContained(t *testing.T) {
	q := workload.RandomRegime(workload.KindMultiple, 7, 3)
	chain, acc := buildChain(q, 8)

	flat := chain.Flatten()
	t.Run("idempotent", func(t *testing.T) {
		if again := flat.Flatten(); again != flat {
			t.Fatalf("Flatten of a flat artifact allocated a copy")
		}
		cold := core.Compile(acc.L, acc.E, acc.R)
		if cold.Flatten() != cold {
			t.Fatalf("Flatten of a cold compile allocated a copy")
		}
	})
	t.Run("extend-after-flatten", func(t *testing.T) {
		d := []core.Pair{{From: "post-collapse-x", To: "post-collapse-y"}}
		wantL := append(append([]core.Pair(nil), acc.L...), d...)
		cold := core.Compile(wantL, acc.E, acc.R)
		ext := flat.Extend(d, nil, nil)
		if err := ext.StructuralEqual(cold); err != nil {
			t.Fatalf("Extend after Flatten diverges: %v", err)
		}
		if d := ext.DeltaDepth(); d < 1 || d > flat.DeltaDepth()+1 {
			t.Fatalf("DeltaDepth after Extend-of-flat = %d, want one link over the flat artifact's %d", d, flat.DeltaDepth())
		}
	})
	t.Run("codec-identity", func(t *testing.T) {
		ce := chain.AppendBinary(nil)
		fe := flat.AppendBinary(nil)
		if len(ce) != len(fe) {
			t.Fatalf("encoding lengths diverge: chain %d, flat %d", len(ce), len(fe))
		}
		for i := range ce {
			if ce[i] != fe[i] {
				t.Fatalf("encodings diverge at byte %d", i)
			}
		}
	})
	t.Run("resident-bytes", func(t *testing.T) {
		cb, fb := chain.ResidentBytes(), flat.ResidentBytes()
		if fb <= 0 {
			t.Fatalf("flat ResidentBytes = %d, want > 0", fb)
		}
		if fb > cb {
			t.Fatalf("Flatten grew the estimate: chain %d, flat %d", cb, fb)
		}
		var nilc *core.Compiled
		if nilc.ResidentBytes() != 0 {
			t.Fatalf("nil ResidentBytes != 0")
		}
	})
	t.Run("estimate-grows-with-chain", func(t *testing.T) {
		// Each Extend link adds overlay maps and re-laid rows, so the
		// estimate must be monotone along a chain built from disjoint
		// deltas.
		comp := core.Compile(nil, nil, nil)
		prev := comp.ResidentBytes()
		for i := 0; i < 5; i++ {
			comp = comp.Extend([]core.Pair{{From: fmt.Sprintf("g%d-a", i), To: fmt.Sprintf("g%d-b", i)}}, nil, nil)
			if b := comp.ResidentBytes(); b <= prev {
				t.Fatalf("step %d: estimate did not grow: %d <= %d", i, b, prev)
			} else {
				prev = b
			}
		}
	})
}
