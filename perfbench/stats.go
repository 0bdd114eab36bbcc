package main

import "sort"

// minBeyond is how many samples must lie beyond the tail percentile.
const minBeyond = 10

// quantile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between the closest ranks. It returns 0 for no samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := p * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentile returns the highest percentile, in steps of 0.1 from
// 50 to 99.9, that has at least minBeyond of n samples strictly beyond
// its interpolation position. ok is false when even the median has
// fewer, that is when n < 2*minBeyond.
func tailPercentile(n int) (pct float64, ok bool) {
	for tenths := 999; tenths >= 500; tenths-- {
		pos := tenths * (n - 1) / 1000 // floor of the interpolation position
		if n-1-pos >= minBeyond {
			return float64(tenths) / 10, true
		}
	}
	return 0, false
}

// tailBlock is the smallest number of runs one tail estimate uses.
const tailBlock = 100

// blockTail cuts ms, whole rounds of size runs, into nb blocks of whole
// rounds that hold at least tailBlock runs each (one block when there
// are fewer). It takes each block's value at its tailPercentile and
// returns the median of those values, the percentile, the block size
// and nb. A single highest-percentile estimate over a long run rests on
// its ten largest samples, which on a shared host are mostly scheduling
// hiccups; the median over blocks is not moved by a burst of them. Fewer
// than nb rounds at the end fall outside the blocks.
func blockTail(ms []float64, size int) (value, pct float64, blockRuns, nb int) {
	rounds := len(ms) / size
	nb = max(1, rounds/((tailBlock+size-1)/size))
	blockRuns = rounds / nb * size
	pct, _ = tailPercentile(blockRuns)
	vals := make([]float64, nb)
	for b := range vals {
		vals[b] = quantile(sortedCopy(ms[b*blockRuns:(b+1)*blockRuns]), pct/100)
	}
	return median(vals), pct, blockRuns, nb
}
