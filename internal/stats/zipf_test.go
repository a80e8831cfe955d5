package stats

import (
	"math"
	"testing"
)

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(4, 1.0)
	// Weights 1, 1/2, 1/3, 1/4 → total 25/12.
	total := 1.0 + 0.5 + 1.0/3 + 0.25
	for k, want := range []float64{1, 0.5, 1.0 / 3, 0.25} {
		if got := prob(z, k); math.Abs(got-want/total) > 1e-12 {
			t.Errorf("P(%d) = %v, want %v", k, got, want/total)
		}
	}
	if len(z.cum) != 4 {
		t.Errorf("N = %d, want 4", len(z.cum))
	}
}

func TestZipfRankInverseCDF(t *testing.T) {
	z := NewZipf(3, 1.1)
	// The CDF edges must map exactly: u just below cum[k] → rank k.
	if z.Rank(0) != 0 {
		t.Error("Rank(0) != 0")
	}
	if z.Rank(z.cum[0]-1e-12) != 0 {
		t.Error("u just below cum[0] should land on rank 0")
	}
	if z.Rank(z.cum[0]) != 1 {
		t.Error("u == cum[0] should land on rank 1 (cum[k] > u rule)")
	}
	if z.Rank(0.999999) != 2 {
		t.Error("u near 1 should land on the last rank")
	}
	// Clamps.
	if z.Rank(-0.5) != 0 || z.Rank(1) != 2 || z.Rank(math.NaN()) != 0 {
		t.Error("edge draws did not clamp")
	}
}

// TestZipfSkewMonotone checks the defining property: lower ranks are
// strictly hotter, and a larger exponent concentrates more mass on the
// head.
func TestZipfSkewMonotone(t *testing.T) {
	z := NewZipf(64, 1.1)
	for k := 1; k < len(z.cum); k++ {
		if prob(z, k) >= prob(z, k-1) {
			t.Fatalf("P(%d)=%v not below P(%d)=%v", k, prob(z, k), k-1, prob(z, k-1))
		}
	}
	flat := NewZipf(64, 0.5)
	if prob(z, 0) <= prob(flat, 0) {
		t.Fatalf("s=1.1 head mass %v not above s=0.5 head mass %v", prob(z, 0), prob(flat, 0))
	}
	// Sampled frequencies follow the CDF: a uniform grid of draws lands
	// each rank a number of times proportional to its probability.
	counts := make([]int, len(z.cum))
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Rank((float64(i)+0.5)/draws)]++
	}
	for k := 0; k < 4; k++ {
		got := float64(counts[k]) / draws
		if math.Abs(got-prob(z, k)) > 2e-5+1.0/draws {
			t.Errorf("rank %d sampled at %v, want %v", k, got, prob(z, k))
		}
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}

// prob returns the probability of rank k under z.
func prob(z *Zipf, k int) float64 {
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}
