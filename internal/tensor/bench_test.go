package tensor

import (
	"testing"

	"etalstm/internal/rng"
)

func benchPair(n int) (*Matrix, *Matrix) {
	r := rng.New(1)
	a := New(n, n)
	b := New(n, n)
	a.RandInit(r, 1)
	b.RandInit(r, 1)
	return a, b
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.SetBytes(int64(256 * 256 * 256 * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulSerial256(b *testing.B) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulTransB256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(dst, x, y)
	}
}

func BenchmarkAddMatMulTransA256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMatMulTransA(dst, x, y)
	}
}

func BenchmarkSigmoid(b *testing.B) {
	r := rng.New(2)
	x := New(128, 1024)
	x.RandInit(r, 4)
	dst := New(128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x.Data {
			dst.Data[j] = Sigmoid32(v)
		}
	}
}

func BenchmarkMulAdd(b *testing.B) {
	x, y := benchPair(512)
	dst := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAdd(dst, x, y)
	}
}
