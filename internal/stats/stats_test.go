package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	// Values exact in binary so float32→float64 keeps ≤ semantics.
	c := NewCDF([]float32{-0.5, 0.125, 0.25, 0.875})
	if len(c.sorted) != 4 {
		t.Fatalf("N: %d", len(c.sorted))
	}
	if got := c.At(0.25); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("At(0.25)=%v want 0.5", got)
	}
	if got := c.At(1.0); got != 1 {
		t.Fatalf("At(1)=%v", got)
	}
	if got := c.At(0.05); got != 0 {
		t.Fatalf("At(0.05)=%v", got)
	}
}

func TestCDFAbsolute(t *testing.T) {
	c := NewCDF([]float32{-0.9})
	if c.At(0.5) != 0 || c.At(0.9) != 1 {
		t.Fatal("CDF must use absolute values")
	}
}

func TestCDFMerge(t *testing.T) {
	c := NewCDF([]float32{0.1})
	c.Merge([]float32{0.9, 0.8})
	if len(c.sorted) != 3 {
		t.Fatal("Merge count")
	}
	if math.Abs(c.At(0.5)-1.0/3) > 1e-9 {
		t.Fatalf("At after merge: %v", c.At(0.5))
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 {
		t.Fatal("empty CDF defaults")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for _, v := range []float64{0.05, 0.15, 0.15, 0.95, 1.5, -0.3} {
		h.Observe(v)
	}
	if h.Total() != 6 {
		t.Fatalf("Total: %d", h.Total())
	}
	if h.Bins[0] != 2 { // 0.05 and clamped -0.3
		t.Fatalf("bin 0: %d", h.Bins[0])
	}
	if h.Bins[1] != 2 {
		t.Fatalf("bin 1: %d", h.Bins[1])
	}
	if h.Bins[9] != 2 { // 0.95 and clamped 1.5
		t.Fatalf("bin 9: %d", h.Bins[9])
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 0, 10)
}

func TestMonotone(t *testing.T) {
	if Monotone([]float64{1, 2, 3, 4}) != 1 {
		t.Fatal("increasing")
	}
	if Monotone([]float64{4, 3, 2, 1}) != -1 {
		t.Fatal("decreasing")
	}
	if Monotone([]float64{1, 5, 1, 5}) == 1 && Monotone([]float64{1, 5, 1, 5}) == -1 {
		t.Fatal("oscillating")
	}
	if Monotone([]float64{1}) != 0 {
		t.Fatal("single point")
	}
	// Broadly increasing with one dip must still read as increasing.
	if Monotone([]float64{1, 2, 1.9, 3, 4}) != 1 {
		t.Fatal("noisy increasing")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 || Mean(nil) != 0 {
		t.Fatal("Mean")
	}
}

// Property: CDF.At is monotone non-decreasing in x.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(vs []float32, a, b float64) bool {
		if len(vs) == 0 {
			return true
		}
		c := NewCDF(vs)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram total equals number of observations.
func TestPropertyHistogramTotal(t *testing.T) {
	f := func(vs []float64) bool {
		h := NewHistogram(0, 1, 8)
		for _, v := range vs {
			h.Observe(v)
		}
		var sum int64
		for _, b := range h.Bins {
			sum += b
		}
		return sum == int64(len(vs)) && h.Total() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantiles(t *testing.T) {
	// Unsorted input: Quantiles must sort a copy, not the caller's slice.
	vs := []float64{5, 1, 4, 2, 3}
	qs := Quantiles(vs, 0, 0.5, 0.99, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 4 || qs[3] != 5 {
		t.Fatalf("Quantiles = %v, want [1 3 4 5]", qs)
	}
	if vs[0] != 5 {
		t.Fatal("Quantiles mutated its input")
	}
	if got := Quantiles(nil, 0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty input: %v, want zeros", got)
	}
	if got := Quantiles([]float64{7}, 0, 0.5, 1); got[0] != 7 || got[1] != 7 || got[2] != 7 {
		t.Fatalf("single element: %v, want [7 7 7]", got)
	}
	// Out-of-range q clamps to the extremes instead of indexing out.
	if got := Quantiles([]float64{1, 2, 3}, -0.5, 1.5); got[0] != 1 || got[1] != 3 {
		t.Fatalf("clamped q: %v, want [1 3]", got)
	}
}

// TestQuantilesNaNFree pins the NaN part of the contract: NaN samples
// are dropped before ranking, so quantiles over any finite data stay
// finite, and an all-NaN window degrades to the empty case (zeros).
func TestQuantilesNaNFree(t *testing.T) {
	nan := math.NaN()
	got := Quantiles([]float64{nan, 3, nan, 1, 2, nan}, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("NaN-laced input: %v, want [1 2 3]", got)
	}
	for i, v := range Quantiles([]float64{nan, nan}, 0.5, 0.99) {
		if math.IsNaN(v) || v != 0 {
			t.Fatalf("all-NaN input, q[%d] = %v, want 0", i, v)
		}
	}
}

// Property: Quantiles output is always NaN-free and non-decreasing in q.
func TestPropertyQuantilesNaNFree(t *testing.T) {
	f := func(vs []float64, a, b float64) bool {
		if math.IsNaN(a) {
			a = 0
		}
		if math.IsNaN(b) {
			b = 0
		}
		if a > b {
			a, b = b, a
		}
		qs := Quantiles(vs, a, b)
		if math.IsNaN(qs[0]) || math.IsNaN(qs[1]) {
			return false
		}
		return qs[0] <= qs[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
