package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := iqr(v); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
	if got := percentile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("interpolated median = %v, want 15", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(midmean(nil)) {
		t.Error("an empty sample must give NaN, never 0")
	}
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean = %v, want 3.5 (outliers trimmed)", got)
	}
	if got := midmean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("midmean of three = %v, want their mean", got)
	}
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func TestWindowQuantile(t *testing.T) {
	// Every window leaves ten samples beyond p99: median over windows.
	big := [][]float64{ramp(1001), ramp(1001), ramp(1001), ramp(1001), ramp(1001)}
	est, ok := windowQuantile(big, 0.99)
	if !ok || est.Windows != 5 || est.Quantile != 0.99 || est.Value != 990 || est.Samples != 5005 {
		t.Errorf("five full windows: %+v, %v", est, ok)
	}
	// A window with fewer than ten samples beyond p99: pooled, and the
	// pool of 1500 still supports p99.
	small := [][]float64{ramp(300), ramp(300), ramp(300), ramp(300), ramp(300)}
	est, ok = windowQuantile(small, 0.99)
	if !ok || est.Windows != 1 || est.Quantile != 0.99 || est.Samples != 1500 {
		t.Errorf("pooled windows: %+v, %v", est, ok)
	}
	// Even the pool is too small: the quantile drops to the highest one
	// with ten samples beyond it.
	tiny := [][]float64{ramp(40), ramp(40), ramp(40), ramp(40), ramp(40)}
	est, ok = windowQuantile(tiny, 0.99)
	if !ok || est.Windows != 1 || math.Abs(est.Quantile-0.95) > 1e-9 {
		t.Errorf("lowered quantile: %+v, %v", est, ok)
	}
	// The median needs no tail, but never goes below itself either.
	est, ok = windowQuantile([][]float64{{1, 2, 3}, nil, nil, nil, nil}, 0.5)
	if !ok || est.Quantile != 0.5 || est.Value != 2 {
		t.Errorf("median of a sparse class: %+v, %v", est, ok)
	}
	// An empty class is omitted, not reported as 0.
	if _, ok := windowQuantile([][]float64{nil, nil}, 0.5); ok {
		t.Error("an empty class reported a value")
	}
	if _, ok := windowQuantile(nil, 0.99); ok {
		t.Error("a class with no windows reported a value")
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64
	}{
		{0.99, 1000, 0.99},
		{0.99, 999, 1 - 10.0/999},
		{0.99, 20, 0.5},
		{0.99, 5, 0.5},
		{0.5, 3, 0.5},
	} {
		if got := supportedQuantile(c.q, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedQuantile(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

func TestSplit(t *testing.T) {
	if got := split(12, 5); len(got) != 6 || got[5] != 12 || got[1] != 3 || got[3] != 8 {
		t.Errorf("split(12, 5) = %v", got)
	}
	if got := split(3, 5); got[5] != 3 || got[4] != 3 {
		t.Errorf("split(3, 5) = %v, want empty trailing windows", got)
	}
}

func TestWindowMetricsOmitsAbsentClasses(t *testing.T) {
	var ops []opRecord
	for i := 0; i < 100; i++ {
		ops = append(ops, opRecord{kind: opQuery, start: time.Duration(i) * time.Millisecond, lat: time.Millisecond})
	}
	out := map[string]metric{}
	windowMetrics(ops, 100*time.Millisecond, out)
	for _, name := range []string{"ops_per_s", "query_p50_ms", "query_p99_ms"} {
		if _, ok := out[name]; !ok {
			t.Errorf("%s missing from a query-only phase", name)
		}
	}
	for _, name := range []string{"batch_p50_ms", "append_ack_p50_ms", "append_ack_p99_ms", "append_visible_p50_ms"} {
		if _, ok := out[name]; ok {
			t.Errorf("%s reported for a phase without that class", name)
		}
	}
	if got := out["ops_per_s"].Value; math.Abs(got-1000) > 1e-6 {
		t.Errorf("ops_per_s = %v, want 1000", got)
	}
}
