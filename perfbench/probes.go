package main

import (
	"time"

	"etalstm/internal/compress"
	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// Layer probes time direct calls into one layer's public functions at
// the shapes a workload drives it with. Each reports the median over
// probeSamples samples of the mean time per call.
const (
	probeSamples = 15
	probeBudget  = 150 * time.Millisecond
)

// timeCall returns the median per-call time of fn, calling it in
// batches sized so all samples together take about probeBudget.
func timeCall(fn func()) time.Duration {
	fn() // warm the arenas
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d*probeSamples >= probeBudget || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, probeSamples)
	for s := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[s] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

func randMatrix(r *rng.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.RandInit(r, 1)
	return m
}

// probeTensor reports the kernels at one LSTM cell's shapes: batch rows
// against hidden×hidden recurrent weights, the products a cell runs
// eight of in FW and sixteen of in BP.
func probeTensor(r *run, batch, hidden int) {
	g := rng.New(r.seed)
	h := randMatrix(g, batch, hidden)
	dg := randMatrix(g, batch, hidden)
	u := randMatrix(g, hidden, hidden)
	du := tensor.New(hidden, hidden)
	dst := tensor.New(batch, hidden)
	flops := 2 * float64(batch*hidden*hidden)
	gflops := func(d time.Duration) float64 { return flops / d.Seconds() / 1e9 }
	r.set("tensor.matmul_gflops", "GFLOP/s", gflops(timeCall(func() { tensor.MatMul(dst, h, u) })))
	r.set("tensor.matmul_ta_gflops", "GFLOP/s", gflops(timeCall(func() { tensor.AddMatMulTransA(du, h, dg) })))
	r.set("tensor.matmul_tb_gflops", "GFLOP/s", gflops(timeCall(func() { tensor.MatMulTransB(dst, dg, u) })))
	// AddInPlace reads two operands and writes one.
	bytes := 3 * 4 * float64(batch*hidden)
	r.set("tensor.ew_gbps", "GB/s", bytes/timeCall(func() { tensor.AddInPlace(dst, h) }).Seconds()/1e9)
}

// reportArena reports a workspace's recycling after a workload ran on it.
func reportArena(r *run, ws *tensor.Workspace) {
	st := ws.Stats()
	ratio := 0.0
	if st.Gets > 0 {
		ratio = float64(st.Hits) / float64(st.Gets)
	}
	_, elems := ws.Retained()
	r.set("tensor.arena_hit_ratio", "ratio", ratio)
	r.set("tensor.arena_mb", "MB", float64(elems)*4/(1<<20))
}

// cellInputs are one cell's operands for every layer of net: the first
// layer's input from a real batch, random states elsewhere.
type cellInputs struct {
	x, h, s []*tensor.Matrix
}

func newCellInputs(net *model.Network, x0 *tensor.Matrix, seed uint64) cellInputs {
	g := rng.New(seed)
	var c cellInputs
	batch := x0.Rows
	for l, p := range net.Layer {
		x := x0
		if l > 0 {
			x = randMatrix(g, batch, p.Input)
		}
		c.x = append(c.x, x)
		c.h = append(c.h, randMatrix(g, batch, p.Hidden))
		c.s = append(c.s, randMatrix(g, batch, p.Hidden))
	}
	return c
}

// perCell times fn over one cell of every layer and returns the mean
// time per cell.
func perCell(net *model.Network, fn func(l int, p *lstm.Params)) time.Duration {
	d := timeCall(func() {
		for l, p := range net.Layer {
			fn(l, p)
		}
	})
	return d / time.Duration(len(net.Layer))
}

// probeDenseCells reports the dense training cell: FW with a stored
// cache, and the BP cell consuming it.
func probeDenseCells(r *run, net *model.Network, in cellInputs) {
	ws := tensor.NewWorkspace()
	r.set("lstm.fw_cell_us", "us", us(perCell(net, func(l int, p *lstm.Params) {
		h, _, cache := lstm.Forward(ws, p, in.x[l], in.h[l], in.s[l])
		ws.Put(h)
		cache.Release(ws)
	})))
	caches := make([]*lstm.FWCache, len(net.Layer))
	grads := make([]*lstm.Grads, len(net.Layer))
	for l, p := range net.Layer {
		_, _, caches[l] = lstm.Forward(nil, p, in.x[l], in.h[l], in.s[l])
		grads[l] = lstm.NewGrads(p)
	}
	r.set("lstm.bp_cell_us", "us", us(perCell(net, func(l int, p *lstm.Params) {
		out := lstm.Backward(ws, p, grads[l], caches[l], lstm.BPInput{DH: in.h[l], DS: in.s[l]})
		ws.PutAll(out.DX, out.DHPrev, out.DSPrev)
	})))
}

// probeSparseCells reports MS1's cells: FW fused with the P1 products,
// and — on sample, a P1 set training pruned, so at the prune ratio it
// reached — the pair encoding and the sparse BP cell of the last layer.
func probeSparseCells(r *run, net *model.Network, in cellInputs, sample *lstm.P1) {
	ws := tensor.NewWorkspace()
	r.set("lstm.fw_p1_cell_us", "us", us(perCell(net, func(l int, p *lstm.Params) {
		h, s, p1 := lstm.ForwardWithP1(ws, p, in.x[l], in.h[l], in.s[l])
		ws.PutAll(h, s)
		p1.Release(ws)
	})))
	last := len(net.Layer) - 1
	p := net.Layer[last]
	grads := lstm.NewGrads(p)
	r.set("lstm.encode_p1_us", "us", us(timeCall(func() { lstm.EncodeP1Sparse(nil, sample) })))
	r.set("lstm.bp_sparse_cell_us", "us", us(timeCall(func() {
		out := lstm.BackwardFromP1Sparse(ws, p, grads, in.x[last], in.h[last], sample,
			lstm.BPInput{DH: in.h[last], DS: in.s[last]}, 0)
		ws.PutAll(out.DX, out.DHPrev, out.DSPrev)
	})))
}

// probeInferCell reports the cache-free inference cell at batch rows.
func probeInferCell(r *run, net *model.Network, in cellInputs) {
	ws := tensor.NewWorkspace()
	r.set("lstm.infer_cell_us", "us", us(perCell(net, func(l int, p *lstm.Params) {
		h, s := lstm.InferenceForward(ws, p, in.x[l], in.h[l], in.s[l])
		ws.PutAll(h, s)
	})))
}

// probeCompress reports the gradient codec on one step's gradient set:
// top-k selection with error feedback at keep, and the decode back to
// dense.
func probeCompress(r *run, grads *model.Gradients, keep float64) {
	var tensors []*tensor.Matrix
	for _, g := range grads.Layer {
		tensors = append(tensors, g.W[:]...)
		tensors = append(tensors, g.U[:]...)
	}
	tensors = append(tensors, grads.Proj)
	fbs := make([]*compress.Feedback, len(tensors))
	for i := range fbs {
		fbs[i] = &compress.Feedback{}
	}
	encoded := make([]*compress.Sparse, len(tensors))
	for i := range encoded {
		encoded[i] = &compress.Sparse{}
	}
	r.set("compress.encode_us", "us", us(timeCall(func() {
		for i, m := range tensors {
			fbs[i].EncodeTopK(encoded[i], m, keep)
		}
	})))
	dst := make([]*tensor.Matrix, len(tensors))
	for i, m := range tensors {
		dst[i] = tensor.New(m.Rows, m.Cols)
	}
	r.set("compress.decode_us", "us", us(timeCall(func() {
		for i, s := range encoded {
			s.Decode(dst[i])
		}
	})))
}
