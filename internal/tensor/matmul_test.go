package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"etalstm/internal/rng"
)

// refMatMul is the plain ikj product MatMul computed before its k loop
// was blocked: for each row of a, for each k with a non-zero a value,
// add a[i][k]·b[k][j] to every dst[i][j]. It is the bitwise oracle for
// MatMul.
func refMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

// checkBitwise asserts that MatMul(a, b) carries exactly the bits
// refMatMul computes.
func checkBitwise(t testing.TB, a, b *Matrix) {
	t.Helper()
	got := MatMul(New(a.Rows, b.Cols), a, b)
	want := refMatMul(a, b)
	if i, ok := firstBitDiff(got.Data, want.Data); !ok {
		t.Fatalf("MatMul %dx%d·%dx%d: element %d is %v (%#08x), ikj gives %v (%#08x)",
			a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], math.Float32bits(got.Data[i]),
			want.Data[i], math.Float32bits(want.Data[i]))
	}
}

// firstBitDiff compares two results bit for bit, except that any NaN
// matches any NaN. Go does not specify NaN payloads: where two NaNs
// meet in an add, amd64 keeps the payload of whichever operand the
// register allocator placed first, a compile-time choice in either
// loop. Every non-NaN value, signed zeros and infinities included,
// must carry exactly the oracle's bits.
func firstBitDiff(got, want []float32) (int, bool) {
	for i := range got {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i, false
		}
	}
	return 0, true
}

// randOperands returns an m×k a and a k×n b of uniform values, with
// roughly one a value in five set to zero so blocks of every mix occur.
func randOperands(r *rng.RNG, m, k, n int) (a, b *Matrix) {
	a = New(m, k)
	a.RandInit(r, 1)
	for i := range a.Data {
		if r.Intn(5) == 0 {
			a.Data[i] = 0
		}
	}
	b = New(k, n)
	b.RandInit(r, 1)
	return a, b
}

// TestMatMulBlockedBitwise holds the k-blocked MatMul to the plain ikj
// loop bit for bit: every shape with 1–17 rows and K on both sides of
// the block size and with every K mod 4 tail, row widths n that end in
// each of the kernel's loops, a zero at each position of a block,
// whole-zero rows (the t = 0 context of an LSTM cell), and ±0, ±Inf and
// NaN in either operand, serially and with the rows split across two
// workers.
func TestMatMulBlockedBitwise(t *testing.T) {
	specials := []float32{
		float32(math.Copysign(0, -1)), 0,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := SetWorkers(workers)
			defer SetWorkers(prev)
			r := rng.New(7)
			for _, k := range []int{1, 2, 3, 4, 5, 6, 16, 17, 64} {
				for m := 1; m <= 17; m++ {
					// Every n up to 9 and each side of 16, 32 and
					// 64 split a row between axpy4's eight-wide
					// loop, its four-wide step and its scalar tail
					// in every way; n = 64 and 65 put the larger
					// products past the parallel threshold, so
					// workers=2 splits rows.
					for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65} {
						a, b := randOperands(r, m, k, n)
						checkBitwise(t, a, b)

						// A zero (either sign) at each position of
						// every block, one position at a time.
						for pos := 0; pos < 4 && pos < k; pos++ {
							z := a.Clone()
							for i := 0; i < m; i++ {
								for kk := pos; kk < k; kk += 4 {
									z.Row(i)[kk] = specials[(i+kk)%2]
								}
							}
							checkBitwise(t, z, b)
						}

						// Whole-zero rows: every other row.
						z := a.Clone()
						for i := 0; i < m; i += 2 {
							for kk := range z.Row(i) {
								z.Row(i)[kk] = 0
							}
						}
						checkBitwise(t, z, b)

						// Specials scattered through a, then through b.
						s := a.Clone()
						for i := range s.Data {
							if r.Intn(7) == 0 {
								s.Data[i] = specials[r.Intn(len(specials))]
							}
						}
						checkBitwise(t, s, b)
						sb := b.Clone()
						for i := range sb.Data {
							if r.Intn(7) == 0 {
								sb.Data[i] = specials[r.Intn(len(specials))]
							}
						}
						checkBitwise(t, a, sb)
					}
				}
			}
		})
	}
}

// TestMatMulSerialAllocs: below the parallel threshold MatMul does not
// allocate when given a destination — the LSTM cell loop's zero-alloc
// steady state rests on it.
func TestMatMulSerialAllocs(t *testing.T) {
	a, b := randOperands(rng.New(3), 4, 16, 16)
	dst := New(4, 16)
	if n := testing.AllocsPerRun(20, func() { MatMul(dst, a, b) }); n != 0 {
		t.Errorf("MatMul allocates %.1f times, want 0", n)
	}
}

// FuzzMatMulBitwise feeds arbitrary float32 bit patterns — every NaN
// payload, subnormals, infinities, signed zeros — through MatMul and
// holds it to refMatMul bit for bit, serially and with two workers.
func FuzzMatMulBitwise(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []float32{1, 0, -2.5, float32(math.Inf(1)), 3, float32(math.NaN()), 0.5, -1} {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(uint8(3), uint8(5), uint8(2), false, seed)
	f.Add(uint8(17), uint8(17), uint8(7), true, seed)
	f.Add(uint8(1), uint8(4), uint8(1), false, []byte{0, 0, 0, 0})
	// Row widths of 8 and more reach axpy4's vector loops, and
	// subnormal words (±1e-40) reach them with products that underflow.
	sub := binary.LittleEndian.AppendUint32(nil, math.Float32bits(1e-40))
	sub = binary.LittleEndian.AppendUint32(sub, math.Float32bits(-1e-40))
	sub = binary.LittleEndian.AppendUint32(sub, math.Float32bits(0.75))
	f.Add(uint8(2), uint8(8), uint8(8), false, seed)
	f.Add(uint8(5), uint8(12), uint8(37), false, sub)
	f.Add(uint8(16), uint8(64), uint8(64), true, seed)
	f.Fuzz(func(t *testing.T, m, k, n uint8, parallel bool, data []byte) {
		if len(data) < 4 {
			return
		}
		rows, inner, cols := int(m%24)+1, int(k%70)+1, int(n%70)+1
		if parallel {
			prev := SetWorkers(2)
			defer SetWorkers(prev)
		} else {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
		}
		// Values cycle through the fuzzed words, offset by one word
		// between the operands so a and b differ.
		words := len(data) / 4
		pos := 0
		next := func() float32 {
			w := pos % words
			pos++
			return math.Float32frombits(binary.LittleEndian.Uint32(data[4*w:]))
		}
		a := New(rows, inner)
		for i := range a.Data {
			a.Data[i] = next()
		}
		pos++
		b := New(inner, cols)
		for i := range b.Data {
			b.Data[i] = next()
		}
		checkBitwise(t, a, b)
	})
}
