package main

import "testing"

// beyond counts samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 22, 44, 66, 100, 165, 211, 1000, 1056} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, ok := tailPercentile(n)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		if got := beyond(xs, quantile(xs, pct/100)); got < minBeyond {
			t.Errorf("n=%d: p%.1f has %d samples beyond it, want >= %d", n, pct, got, minBeyond)
		}
		if pct < 99.9 {
			if got := beyond(xs, quantile(xs, (pct+0.1)/100)); got >= minBeyond {
				t.Errorf("n=%d: p%.1f is not the highest: p%.1f still has %d beyond", n, pct, pct+0.1, got)
			}
		}
	}
	if _, ok := tailPercentile(2*minBeyond - 1); ok {
		t.Errorf("n=%d has a tail percentile, want none", 2*minBeyond-1)
	}
}

func TestTailPercentileValues(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{20, 52.6}, {21, 54.9}, {100, 90.9}, {200, 95.4}, {1000, 99.0}, {10000, 99.9}} {
		if got, _ := tailPercentile(c.n); got != c.pct {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.pct)
		}
	}
}

func TestBlockTail(t *testing.T) {
	// 55 rounds of 32 runs make 13 blocks of 4 rounds; 15 huge
	// outliers in one block must not move the median over blocks.
	xs := make([]float64, 55*32)
	for i := range xs {
		xs[i] = float64(i % 128)
	}
	for i := 0; i < 15; i++ {
		xs[i] = 1e9
	}
	v, pct, bn, nb := blockTail(xs, 32)
	if bn != 128 || nb != 13 {
		t.Fatalf("blocks = %d of %d, want 13 of 128", nb, bn)
	}
	want, _ := tailPercentile(128)
	if pct != want {
		t.Errorf("pct = %v, want %v", pct, want)
	}
	if v >= 128 {
		t.Errorf("tail = %v, moved by one block's outliers", v)
	}
	// Fewer rounds than a block holds: one block over all of them.
	if _, _, bn, nb := blockTail(xs[:7*33], 33); bn != 231 || nb != 1 {
		t.Errorf("7 rounds of 33: %d blocks of %d, want 1 of 231", nb, bn)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
