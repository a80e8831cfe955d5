package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"etalstm/internal/rng"
)

// Every binary16 value is exactly representable in binary32, so
// half → single → half must be a bitwise identity over the entire
// 16-bit space — including ±0, ±Inf, subnormals, and every NaN payload.
func TestF16ExhaustiveRoundtrip(t *testing.T) {
	for h := 0; h <= 0xffff; h++ {
		if got := ToF16(FromF16(uint16(h))); got != uint16(h) {
			t.Fatalf("half %#04x -> f32 %v -> half %#04x", h, FromF16(uint16(h)), got)
		}
	}
}

// A single-precision normal inside half's normal range moves at most
// 2^12 float32 ULPs through the storage round trip (half keeps 10 of
// the 23 mantissa bits), and the relative error stays within half an
// half-ULP (2^-11) — RNE's guarantee.
func TestF16RoundtripULPBound(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		for i := 0; i < 256; i++ {
			x := float32(r.Uniform(-1, 1))
			if math.Abs(float64(x)) < 6.2e-5 { // below half-normal range
				continue
			}
			y := FromF16(ToF16(x))
			if ULPDiff32(x, y) > 4096 {
				return false
			}
			if math.Abs(float64(y-x)) > math.Abs(float64(x))/2048+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestF16SpecialValues(t *testing.T) {
	cases := []struct {
		in   float32
		want uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-2, 0xc000},
		{65504, 0x7bff},                 // largest finite half
		{65520, 0x7c00},                 // rounds up to Inf
		{float32(math.Inf(1)), 0x7c00},  // Inf stays Inf
		{float32(math.Inf(-1)), 0xfc00}, //
		{5.9604645e-08, 0x0001},         // smallest half subnormal
		{2.9e-08, 0x0000},               // below half the subnormal step: flushes
		{-5.9604645e-08, 0x8001},        // sign survives the subnormal path
		{6.097555e-05, 0x03ff},          // largest half subnormal
		{6.1035156e-05, 0x0400},         // smallest half normal
		{1 + 1.0/2048, 0x3c00},          // tie rounds to even (down)
		{1 + 3.0/2048, 0x3c02},          // tie rounds to even (up)
	}
	for _, c := range cases {
		if got := ToF16(c.in); got != c.want {
			t.Errorf("ToF16(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
	if h := ToF16(float32(math.NaN())); h&0x7c00 != 0x7c00 || h&0x3ff == 0 {
		t.Errorf("NaN must stay NaN: %#04x", h)
	}
	if v := FromF16(0x7e00); !math.IsNaN(float64(v)) {
		t.Errorf("half NaN must decode to NaN, got %v", v)
	}
}

// Quantization is idempotent, and exact zeros — the pruned pattern —
// pass through with their sign bit intact.
func TestQuantizeF16(t *testing.T) {
	r := rng.New(7)
	m := New(4, 8)
	m.RandInit(r, 1)
	m.Data[3] = 0
	m.Data[5] = float32(math.Copysign(0, -1))
	orig := m.Clone()
	QuantizeF16(m)
	if d := maxULPDiff(orig, m); d > 4096 {
		t.Fatalf("quantization moved a value %d ULPs", d)
	}
	if math.Float32bits(m.Data[3]) != 0 || math.Float32bits(m.Data[5]) != 0x80000000 {
		t.Fatal("signed zeros must pass through bitwise")
	}
	once := m.Clone()
	QuantizeF16(m)
	if maxULPDiff(once, m) != 0 {
		t.Fatal("quantization must be idempotent")
	}
}
