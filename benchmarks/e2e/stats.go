package main

// Estimators. Every end-to-end latency metric is the median over the
// run's windows of the window's percentile, throughput the median of
// the window rates, and the spread printed beside each value is the
// inter-quartile range across windows. Per-layer times use the
// interquartile mean: as robust as a median against a GC pause or a
// cold first call, but it keeps the digits a median of whole
// nanoseconds loses.

import (
	"math"
	"sort"
)

// minTail is the number of samples a percentile needs beyond it before
// it is worth reporting (choosing-metrics guide, section 1).
const minTail = 10

// numWindows cuts the timed phase into equal runs of ops.
const numWindows = 5

// percentile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return percentile(s, 0.75) - percentile(s, 0.25)
}

// midmean is the mean of the samples between the quartiles (the whole
// sample when it has fewer than four values); NaN when empty.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// supportedQuantile lowers q until n samples leave at least minTail
// beyond it: the highest percentile the sample supports. It never
// goes below the median.
func supportedQuantile(q float64, n int) float64 {
	if n == 0 {
		return q
	}
	if max := 1 - float64(minTail)/float64(n); q > max {
		q = max
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// estimate is one windowed metric: the median over windows, the
// spread across them, and what the estimate rests on.
type estimate struct {
	Value    float64
	Spread   float64 // IQR across windows
	Quantile float64 // the percentile actually taken
	Samples  int
	Windows  int // 1 when the windows were pooled
}

// windowQuantile estimates the q-quantile of a latency class from its
// per-window samples. When a window is too small to leave minTail
// samples beyond q the windows are pooled into one; when even the
// pool is too small the quantile is lowered to the highest the pool
// supports. ok is false for an empty class, which is then omitted,
// never reported as 0.
func windowQuantile(windows [][]float64, q float64) (est estimate, ok bool) {
	// A class may skip windows (read-cold's batches all fall in the
	// last one): only the windows it occurs in count.
	var used [][]float64
	total, smallest := 0, math.MaxInt
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		used = append(used, w)
		total += len(w)
		smallest = min(smallest, len(w))
	}
	if total == 0 {
		return estimate{}, false
	}
	if supportedQuantile(q, smallest) < q {
		var pool []float64
		for _, w := range used {
			pool = append(pool, w...)
		}
		sort.Float64s(pool)
		eff := supportedQuantile(q, total)
		return estimate{Value: percentile(pool, eff), Quantile: eff, Samples: total, Windows: 1}, true
	}
	per := make([]float64, len(used))
	for i, w := range used {
		per[i] = percentile(sortedCopy(w), q)
	}
	return estimate{Value: median(per), Spread: iqr(per), Quantile: q, Samples: total, Windows: len(used)}, true
}

// split cuts n ordered items into k windows of equal size (the first
// n%k windows take one more), returning the k+1 boundaries.
func split(n, k int) []int {
	bounds := make([]int, k+1)
	for i := 1; i <= k; i++ {
		bounds[i] = bounds[i-1] + n/k
		if i <= n%k {
			bounds[i]++
		}
	}
	return bounds
}
