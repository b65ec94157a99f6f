package bench

import (
	"fmt"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/workload"
)

// compileWorkload is the instance behind the amortization probes: a
// tree large enough that interning and CSR layout dominate a warm
// solve from a leaf. The leaf source makes the warm probe measure
// per-query setup (bind, scratch allocation) rather than fixpoint
// work, which is what amortization buys.
func compileWorkload() (core.Query, string) {
	const branch, depth = 3, 8
	q := workload.Tree(branch, depth)
	total := 0
	for d, p := 0, 1; d < depth; d, p = d+1, p*branch {
		total += p
	}
	// Node i's children are branch*i+c+1, so the last leaf under the
	// last internal node (total-1) is branch*total.
	return q, fmt.Sprintf("t%d", branch*total)
}

// benchCompileBuild measures the cold cost a query pays when nothing
// is shared: interning three relations and laying out four CSR graphs.
func benchCompileBuild(b *testing.B) {
	q, _ := compileWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := core.Compile(q.L, q.E, q.R); c.NumL() == 0 {
			b.Fatal("empty compile")
		}
	}
}

// benchCompileSolveWarm measures a query's marginal cost once the
// compiled artifact exists. Against benchCompileBuild it is the
// amortization ratio the serving layer's one artifact banks on.
func benchCompileSolveWarm(b *testing.B) {
	q, leaf := compileWorkload()
	c := core.Compile(q.L, q.E, q.R)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Solve(leaf, core.Basic, core.Integrated, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileAmortization pins the acceptance criterion of the
// compiled-instance layer: a warm per-query solve against a shared
// Compiled must cost at least 5x less than the cold per-query build it
// replaces. The observed ratio is ~100x; 5x leaves generous headroom
// for scheduler noise, and a timing-flake retry keeps CI honest.
func TestCompileAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const want = 5.0
	var ratio float64
	for round := 0; round < 3; round++ {
		cold := testing.Benchmark(benchCompileBuild)
		warm := testing.Benchmark(benchCompileSolveWarm)
		coldNs := float64(cold.T.Nanoseconds()) / float64(cold.N)
		warmNs := float64(warm.T.Nanoseconds()) / float64(warm.N)
		if warmNs <= 0 {
			continue
		}
		ratio = coldNs / warmNs
		if ratio >= want {
			return
		}
	}
	t.Errorf("compile amortization ratio = %.1fx, want >= %.0fx", ratio, want)
}
