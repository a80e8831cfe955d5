package tensor

import (
	"fmt"
	"math"
	"testing"

	"etalstm/internal/rng"
)

// TestAxpyKernelBitwise holds axpy4 and axpy1 to the Go loops of
// axpy.go bit for bit (any NaN matching any NaN; see firstBitDiff) for
// every length 0–70, so every split between the eight-wide loop, the
// four-wide step and the scalar tail occurs. Operands are sub-slices at
// offsets 0–3 of larger buffers, so loads and stores are unaligned,
// and the guard elements around d must come back untouched. Values
// are drawn four ways: uniform; laced with ±0, ±Inf, NaN and ±1e-40;
// subnormal throughout, so products and sums underflow; and large
// enough that products overflow to ±Inf and opposite infinities meet.
func TestAxpyKernelBitwise(t *testing.T) {
	inf := float32(math.Inf(1))
	specials := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()), 1e-40, -1e-40}
	kinds := []struct {
		name string
		b, a func(r *rng.RNG) float32
	}{
		{"uniform", uniformIn(1), uniformIn(1)},
		{"specials", func(r *rng.RNG) float32 {
			if r.Intn(2) == 0 {
				return specials[r.Intn(len(specials))]
			}
			return r.Uniform(-1, 1)
		}, func(r *rng.RNG) float32 { return specials[r.Intn(len(specials))] }},
		{"subnormal", uniformIn(1e-38), uniformIn(0.5)},
		{"overflow", uniformIn(math.MaxFloat32), uniformIn(1e10)},
	}
	r := rng.New(11)
	const guard = 4
	for _, kind := range kinds {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ {
				name := fmt.Sprintf("%s/n=%d/off=%d", kind.name, n, off)
				fill := func(f func(*rng.RNG) float32, size int) []float32 {
					buf := make([]float32, off+size+guard)
					for i := range buf {
						buf[i] = f(r)
					}
					return buf[off : off+size]
				}
				d := fill(kind.b, n)
				b := fill(kind.b, 4*n)
				a := [4]float32{kind.a(r), kind.a(r), kind.a(r), kind.a(r)}

				got, want := withGuard(d, guard), withGuard(d, guard)
				axpy4(got[guard:guard+n], b, a[0], a[1], a[2], a[3])
				axpy4Go(want[guard:guard+n], b, a[0], a[1], a[2], a[3])
				checkKernel(t, "axpy4 "+name, got, want)

				got, want = withGuard(d, guard), withGuard(d, guard)
				axpy1(got[guard:guard+n], b[n:], a[0])
				axpy1Go(want[guard:guard+n], b[n:], a[0])
				checkKernel(t, "axpy1 "+name, got, want)
			}
		}
	}
}

func uniformIn(scale float32) func(r *rng.RNG) float32 {
	return func(r *rng.RNG) float32 { return r.Uniform(-scale, scale) }
}

// withGuard returns a copy of d with guard elements of -1 on each side.
func withGuard(d []float32, guard int) []float32 {
	out := make([]float32, len(d)+2*guard)
	for i := range out {
		out[i] = -1
	}
	copy(out[guard:], d)
	return out
}

func checkKernel(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if i, ok := firstBitDiff(got, want); !ok {
		t.Fatalf("%s: element %d is %v (%#08x), Go loop gives %v (%#08x)", name,
			i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}
