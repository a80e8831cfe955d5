package tensor

import (
	"testing"
	"testing/quick"

	"etalstm/internal/rng"
)

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers: %d", Workers())
	}
	SetWorkers(0) // clamps to 1
	if Workers() != 1 {
		t.Fatalf("Workers after clamp: %d", Workers())
	}
}

// TestParallelMatchesSerial: large kernels must produce identical
// results at any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	r := rng.New(1)
	a := New(130, 97)
	b := New(97, 113)
	a.RandInit(r, 1)
	b.RandInit(r, 1)

	prev := SetWorkers(1)
	defer SetWorkers(prev)
	serial := MatMul(nil, a, b)
	serialTB := MatMulTransB(nil, a, transpose(b))
	big := New(97, 113)
	fill(big, 0.5)
	serialAdd := big.Clone()
	AddMatMulTransA(serialAdd, a, MatMul(nil, a, b))

	for _, w := range []int{2, 4, 16} {
		SetWorkers(w)
		if got := MatMul(nil, a, b); !got.Equal(serial, 0) {
			t.Fatalf("MatMul differs at %d workers", w)
		}
		if got := MatMulTransB(nil, a, transpose(b)); !got.Equal(serialTB, 0) {
			t.Fatalf("MatMulTransB differs at %d workers", w)
		}
		add := big.Clone()
		AddMatMulTransA(add, a, MatMul(nil, a, b))
		if !add.Equal(serialAdd, 0) {
			t.Fatalf("AddMatMulTransA differs at %d workers", w)
		}
	}
}

// TestSmallKernelsStaySerial: tiny products must not fan out (the
// threshold guards goroutine overhead); indirectly verified by
// correctness at worker counts exceeding the row count.
func TestSmallKernelsStaySerial(t *testing.T) {
	prev := SetWorkers(64)
	defer SetWorkers(prev)
	a := NewFromData(2, 2, []float32{1, 2, 3, 4})
	b := NewFromData(2, 2, []float32{5, 6, 7, 8})
	got := MatMul(nil, a, b)
	want := NewFromData(2, 2, []float32{19, 22, 43, 50})
	if !got.Equal(want, 0) {
		t.Fatalf("small MatMul: %v", got.Data)
	}
}

// Property: AddMatMulTransA into zeros equals its definition at high worker counts.
func TestPropertyParallelTransA(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := New(33, 41)
		b := New(33, 29)
		a.RandInit(r, 1)
		b.RandInit(r, 1)
		got := New(41, 29)
		AddMatMulTransA(got, a, b)
		want := MatMul(nil, transpose(a), b)
		return got.Equal(want, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
