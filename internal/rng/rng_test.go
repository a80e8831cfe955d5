package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	c := a.Split()
	// The split stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split stream tracks parent: %d collisions", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Uniform(-0.5, 0.5)
		if f < -0.5 || f >= 0.5 {
			t.Fatalf("Uniform out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(6)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) did not cover all values: %d", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance too far from 1: %v", variance)
	}
}

func TestNorm32Parameters(t *testing.T) {
	r := New(9)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Norm32(3, 0.5))
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.02 {
		t.Fatalf("Norm32 mean: got %v want ~3", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse chi-square over 16 buckets; catches gross bias.
	r := New(11)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(16)]++
	}
	expected := float64(n) / 16
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile ~ 37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-square too high: %v", chi2)
	}
}

func TestPropertyFloat64AlwaysInRange(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		r := New(seed)
		for i := 0; i < int(steps); i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySameSeedSameStream(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 64; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFillUniformMatchesUniform pins FillUniform's stream contract: it
// writes exactly the values successive Uniform calls return and leaves
// the generator where they would, so two fills in sequence equal one
// long fill.
func TestFillUniformMatchesUniform(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 100003} {
		want, got := New(uint64(n)+11), New(uint64(n)+11)
		dst := make([]float32, n)
		got.FillUniform(dst, -0.25, 0.75)
		for i, v := range dst {
			if w := want.Uniform(-0.25, 0.75); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("n=%d: dst[%d] = %v, Uniform gives %v", n, i, v, w)
			}
		}
		if got.x != want.x {
			t.Fatalf("n=%d: state after FillUniform differs from after %d Uniform calls", n, n)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("n=%d: next draw %x, want %x", n, a, b)
		}

		whole, split := make([]float32, n), make([]float32, n)
		New(5).FillUniform(whole, -1, 1)
		r := New(5)
		r.FillUniform(split[:n/3], -1, 1)
		r.FillUniform(split[n/3:], -1, 1)
		for i := range whole {
			if math.Float32bits(whole[i]) != math.Float32bits(split[i]) {
				t.Fatalf("n=%d: split fill differs at %d: %v vs %v", n, i, split[i], whole[i])
			}
		}
	}
}

// BenchmarkFillUniform reports the cost of one streamed weight draw.
func BenchmarkFillUniform(b *testing.B) {
	r := New(1)
	dst := make([]float32, 1<<16)
	b.SetBytes(int64(len(dst)) * 4)
	for i := 0; i < b.N; i++ {
		r.FillUniform(dst, -0.1, 0.1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/weight")
}
