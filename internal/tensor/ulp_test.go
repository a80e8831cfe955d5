package tensor

import (
	"math"
	"testing"
)

func TestULPDiff32(t *testing.T) {
	next := math.Nextafter32
	cases := []struct {
		a, b float32
		want int64
	}{
		{1, 1, 0},
		{0, float32(math.Copysign(0, -1)), 0}, // +0 and -0 are the same value
		{1, next(1, 2), 1},
		{1, next(next(1, 2), 2), 2},
		{-1, next(-1, -2), 1},
		{-1, next(-1, 0), 1},
		{0, next(0, 1), 1},  // smallest positive subnormal
		{0, next(0, -1), 1}, // smallest negative subnormal
		{next(0, -1), next(0, 1), 2},
	}
	for _, tc := range cases {
		if got := ULPDiff32(tc.a, tc.b); got != tc.want {
			t.Errorf("ULPDiff32(%g, %g) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := ULPDiff32(tc.b, tc.a); got != tc.want {
			t.Errorf("ULPDiff32(%g, %g) = %d, want %d (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
	nan := float32(math.NaN())
	if got := ULPDiff32(nan, 1); got != math.MaxInt64 {
		t.Errorf("ULPDiff32(NaN, 1) = %d, want MaxInt64", got)
	}
	if WithinULP(nan, nan, math.MaxInt64-1) {
		t.Error("NaN must never be WithinULP of anything")
	}
	if !WithinULP(1, next(1, 2), 1) {
		t.Error("adjacent values must be within 1 ULP")
	}
}

// maxULPDiff returns the largest per-element ULP distance between
// same-shaped m and o.
func maxULPDiff(m, o *Matrix) int64 {
	var mx int64
	for i, v := range m.Data {
		if d := ULPDiff32(v, o.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}
