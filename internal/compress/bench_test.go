package compress

import (
	"testing"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func benchMatrix(sparsity float64) *tensor.Matrix {
	r := rng.New(1)
	m := tensor.New(128, 1024)
	for i := range m.Data {
		if r.Float64() < sparsity {
			m.Data[i] = r.Uniform(-0.05, 0.05)
		} else {
			m.Data[i] = r.Uniform(0.2, 1)
		}
	}
	return m
}

func BenchmarkDecodeSparse65(b *testing.B) {
	m := benchMatrix(0.65)
	s := encode(m, 0.1)
	dst := tensor.New(m.Rows, m.Cols)
	b.SetBytes(m.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustDecode(dst)
	}
}
