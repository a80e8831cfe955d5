package lstm

import (
	"testing"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func benchSetup(hidden, batch int) (*Params, *tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
	r := rng.New(1)
	p := newParams(hidden, hidden)
	p.Init(r)
	x := tensor.New(batch, hidden)
	h := tensor.New(batch, hidden)
	s := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	return p, x, h, s
}

func BenchmarkForwardH256B32(b *testing.B) {
	p, x, h, s := benchSetup(256, 32)
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hOut, _, cache := Forward(ws, p, x, h, s)
		ws.Put(hOut)
		cache.Release(ws)
	}
}

// BenchmarkForwardH64B16 is one FW cell of the train_dense benchmark
// workload's upper layers (IMDB scaled to H=64, batch 16, input = H),
// mid-sequence: the context and cell state are non-zero, so the
// hPrev·U_g products run in full.
func BenchmarkForwardH64B16(b *testing.B) {
	p, x, h, s := benchSetup(64, 16)
	r := rng.New(3)
	h.RandInit(r, 0.5)
	s.RandInit(r, 0.5)
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hOut, _, cache := Forward(ws, p, x, h, s)
		ws.Put(hOut)
		cache.Release(ws)
	}
}

func BenchmarkComputeP1H256B32(b *testing.B) {
	p, x, h, s := benchSetup(256, 32)
	ws := tensor.NewWorkspace()
	_, _, cache := Forward(ws, p, x, h, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeP1(ws, cache).Release(ws)
	}
}

func BenchmarkBackwardH256B32(b *testing.B) {
	p, x, h, s := benchSetup(256, 32)
	ws := tensor.NewWorkspace()
	_, _, cache := Forward(ws, p, x, h, s)
	r := rng.New(2)
	dy := tensor.New(32, 256)
	dy.RandInit(r, 1)
	g := NewGrads(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Backward(ws, p, g, cache, BPInput{DY: dy})
		ws.PutAll(out.DX, out.DHPrev, out.DSPrev)
	}
}

func BenchmarkBackwardFromP1H256B32(b *testing.B) {
	p, x, h, s := benchSetup(256, 32)
	ws := tensor.NewWorkspace()
	hOut, sOut, p1 := ForwardWithP1(ws, p, x, h, s)
	ws.PutAll(hOut, sOut)
	r := rng.New(2)
	dy := tensor.New(32, 256)
	dy.RandInit(r, 1)
	g := NewGrads(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := BackwardFromP1(ws, p, g, x, h, p1, BPInput{DY: dy})
		ws.PutAll(out.DX, out.DHPrev, out.DSPrev)
	}
}
