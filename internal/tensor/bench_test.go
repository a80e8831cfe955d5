package tensor

import (
	"fmt"
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

// BenchmarkMatMul times one serial product at the geometries the
// program runs: a served request's first layer (1×16·16×64) and upper
// layers (1×64·64×64), and a training batch's gate product
// (16×64·64×64). a has no zeros, so every k block takes axpy4.
func BenchmarkMatMul(b *testing.B) {
	for _, g := range []struct{ m, k, n int }{{1, 16, 64}, {1, 64, 64}, {16, 64, 64}} {
		b.Run(fmt.Sprintf("%dx%dx%d", g.m, g.k, g.n), func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			r := rng.New(1)
			x, y := New(g.m, g.k), New(g.k, g.n)
			x.RandInit(r, 1)
			y.RandInit(r, 1)
			dst := New(g.m, g.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, x, y)
			}
			flops := 2 * float64(g.m*g.k*g.n) * float64(b.N)
			b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
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
