package tensor

import "math"

// ULP comparison helpers for the differential-testing harness
// (internal/check). Two float32 values that differ only by floating-
// point reassociation — e.g. the baseline BP-EW expressions versus the
// P1-factored ones — land within a handful of representable values of
// each other; comparing in ULPs (units in the last place) expresses
// that bound independently of magnitude, where an absolute epsilon
// would be either too loose for small values or too tight for large
// ones.

// ulpIndex maps a float32 onto a signed integer line where adjacent
// representable values differ by exactly 1 and ordering matches numeric
// ordering. Both zeros map to 0.
func ulpIndex(f float32) int64 {
	b := math.Float32bits(f)
	if b&0x80000000 != 0 {
		return -int64(b & 0x7fffffff)
	}
	return int64(b)
}

// ULPDiff32 returns the distance between a and b in units of last
// place: 0 means bitwise-equal (or +0 vs -0), 1 means adjacent
// representable values. If either value is NaN it returns
// math.MaxInt64, so NaNs never compare as close.
func ULPDiff32(a, b float32) int64 {
	if a != a || b != b { // NaN
		return math.MaxInt64
	}
	d := ulpIndex(a) - ulpIndex(b)
	if d < 0 {
		d = -d
	}
	return d
}

// WithinULP reports whether a and b are within maxULP units of last
// place of each other.
func WithinULP(a, b float32, maxULP int64) bool {
	return ULPDiff32(a, b) <= maxULP
}
