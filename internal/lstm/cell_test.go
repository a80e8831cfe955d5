package lstm

import (
	"math"
	"testing"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func newTestSetup(seed uint64, input, hidden, batch int) (*Params, *tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
	r := rng.New(seed)
	p := newParams(input, hidden)
	p.Init(r)
	x := tensor.New(batch, input)
	h0 := tensor.New(batch, hidden)
	s0 := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	h0.RandInit(r, 0.5)
	s0.RandInit(r, 0.5)
	return p, x, h0, s0
}

func TestForwardShapes(t *testing.T) {
	p, x, h0, s0 := newTestSetup(1, 6, 5, 3)
	h, s, cache := Forward(nil, p, x, h0, s0)
	if h.Rows != 3 || h.Cols != 5 || s.Rows != 3 || s.Cols != 5 {
		t.Fatalf("bad output shapes h=%v s=%v", h, s)
	}
	if cache.F.Rows != 3 || cache.F.Cols != 5 {
		t.Fatalf("bad cache shape %v", cache.F)
	}
}

func TestForwardGateRanges(t *testing.T) {
	p, x, h0, s0 := newTestSetup(2, 8, 8, 4)
	_, _, cache := Forward(nil, p, x, h0, s0)
	for _, m := range []*tensor.Matrix{cache.F, cache.I, cache.O} {
		for _, v := range m.Data {
			if v < 0 || v > 1 {
				t.Fatalf("sigmoid gate out of [0,1]: %v", v)
			}
		}
	}
	for _, v := range cache.C.Data {
		if v < -1 || v > 1 {
			t.Fatalf("tanh gate out of [-1,1]: %v", v)
		}
	}
}

func TestForwardStateUpdateIdentity(t *testing.T) {
	// s_t must equal f⊙s_{t-1} + i⊙c̃ element-by-element.
	p, x, h0, s0 := newTestSetup(3, 4, 4, 2)
	_, s, cache := Forward(nil, p, x, h0, s0)
	for k := range s.Data {
		want := cache.F.Data[k]*s0.Data[k] + cache.I.Data[k]*cache.C.Data[k]
		if math.Abs(float64(s.Data[k]-want)) > 1e-6 {
			t.Fatalf("state update mismatch at %d", k)
		}
	}
}

func TestForwardHiddenIdentity(t *testing.T) {
	p, x, h0, s0 := newTestSetup(4, 4, 4, 2)
	h, s, cache := Forward(nil, p, x, h0, s0)
	for k := range h.Data {
		want := cache.O.Data[k] * tensor.Tanh32(s.Data[k])
		if math.Abs(float64(h.Data[k]-want)) > 1e-6 {
			t.Fatalf("hidden mismatch at %d", k)
		}
	}
}

func TestForgetBiasInit(t *testing.T) {
	r := rng.New(5)
	p := newParams(3, 3)
	p.Init(r)
	for _, b := range p.B[GateF] {
		if b != 1 {
			t.Fatal("forget bias must init to 1")
		}
	}
	for _, g := range []Gate{GateI, GateC, GateO} {
		for _, b := range p.B[g] {
			if b != 0 {
				t.Fatalf("gate %v bias must init to 0", g)
			}
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	p1h, x1, h1, s1 := newTestSetup(6, 5, 5, 2)
	p2h, x2, h2, s2 := newTestSetup(6, 5, 5, 2)
	ha, _, _ := Forward(nil, p1h, x1, h1, s1)
	hb, _, _ := Forward(nil, p2h, x2, h2, s2)
	if !ha.Equal(hb, 0) {
		t.Fatal("forward must be deterministic for the same seed")
	}
}

// numericalGrad computes d loss / d theta by central differences, where
// loss = Σ h_t ⊙ mh + Σ s_t ⊙ ms for fixed random masks (so every output
// contributes a distinct gradient signal).
func numericalGrad(p *Params, x, h0, s0 *tensor.Matrix, mh, ms *tensor.Matrix, theta []float32, idx int) float64 {
	const eps = 1e-3
	orig := theta[idx]
	loss := func() float64 {
		h, s, _ := Forward(nil, p, x, h0, s0)
		var l float64
		for k := range h.Data {
			l += float64(h.Data[k]) * float64(mh.Data[k])
			l += float64(s.Data[k]) * float64(ms.Data[k])
		}
		return l
	}
	theta[idx] = orig + eps
	lp := loss()
	theta[idx] = orig - eps
	lm := loss()
	theta[idx] = orig
	return (lp - lm) / (2 * eps)
}

// TestBackwardGradCheck verifies every analytic gradient the BP cell
// produces (δW, δU, δb, δX, δH', δS') against central differences.
func TestBackwardGradCheck(t *testing.T) {
	const input, hidden, batch = 4, 3, 2
	p, x, h0, s0 := newTestSetup(7, input, hidden, batch)
	r := rng.New(99)
	mh := tensor.New(batch, hidden)
	ms := tensor.New(batch, hidden)
	mh.RandInit(r, 1)
	ms.RandInit(r, 1)

	_, _, cache := Forward(nil, p, x, h0, s0)
	grads := NewGrads(p)
	out := Backward(nil, p, grads, cache, BPInput{DY: mh, DS: ms})

	check := func(name string, analytic float32, num float64) {
		t.Helper()
		diff := math.Abs(float64(analytic) - num)
		denom := math.Max(1e-4, math.Abs(num)+math.Abs(float64(analytic)))
		if diff/denom > 2e-2 {
			t.Errorf("%s: analytic %v vs numeric %v", name, analytic, num)
		}
	}

	for g := Gate(0); g < NumGates; g++ {
		for _, idx := range []int{0, input*hidden - 1, hidden + 1} {
			num := numericalGrad(p, x, h0, s0, mh, ms, p.W[g].Data, idx)
			check(g.String()+".W", grads.W[g].Data[idx], num)
		}
		for _, idx := range []int{0, hidden*hidden - 1} {
			num := numericalGrad(p, x, h0, s0, mh, ms, p.U[g].Data, idx)
			check(g.String()+".U", grads.U[g].Data[idx], num)
		}
		for _, idx := range []int{0, hidden - 1} {
			num := numericalGrad(p, x, h0, s0, mh, ms, p.B[g], idx)
			check(g.String()+".B", grads.B[g][idx], num)
		}
	}
	// Input-side gradients.
	for _, idx := range []int{0, batch*input - 1} {
		num := numericalGrad(p, x, h0, s0, mh, ms, x.Data, idx)
		check("dX", out.DX.Data[idx], num)
	}
	for _, idx := range []int{0, batch*hidden - 1} {
		num := numericalGrad(p, x, h0, s0, mh, ms, h0.Data, idx)
		check("dHPrev", out.DHPrev.Data[idx], num)
	}
	for _, idx := range []int{0, batch*hidden - 1} {
		num := numericalGrad(p, x, h0, s0, mh, ms, s0.Data, idx)
		check("dSPrev", out.DSPrev.Data[idx], num)
	}
}

func TestBackwardNilInputs(t *testing.T) {
	// A BP cell at the last timestamp of a layer with no loss at that
	// step receives all-nil gradients and must produce zeros.
	p, x, h0, s0 := newTestSetup(8, 4, 4, 2)
	_, _, cache := Forward(nil, p, x, h0, s0)
	grads := NewGrads(p)
	out := Backward(nil, p, grads, cache, BPInput{})
	if maxAbs(out.DX) != 0 || maxAbs(out.DHPrev) != 0 || maxAbs(out.DSPrev) != 0 {
		t.Fatal("zero input gradients must give zero output gradients")
	}
	if grads.AbsSum() != 0 {
		t.Fatal("zero input gradients must give zero weight gradients")
	}
}

func TestBackwardAccumulates(t *testing.T) {
	// Two BP calls on the same Grads must sum (Eq. 3's +=).
	p, x, h0, s0 := newTestSetup(9, 4, 4, 2)
	r := rng.New(100)
	dy := tensor.New(2, 4)
	dy.RandInit(r, 1)
	_, _, cache := Forward(nil, p, x, h0, s0)

	g1 := NewGrads(p)
	Backward(nil, p, g1, cache, BPInput{DY: dy})
	once := g1.W[GateF].Clone()
	Backward(nil, p, g1, cache, BPInput{DY: dy})
	twice := g1.W[GateF]
	want := tensor.Scale(nil, once, 2)
	if !twice.Equal(want, 1e-5) {
		t.Fatal("gradients must accumulate across BP cells")
	}
}

func TestGradsScaleAndAdd(t *testing.T) {
	p, x, h0, s0 := newTestSetup(10, 3, 3, 2)
	r := rng.New(101)
	dy := tensor.New(2, 3)
	dy.RandInit(r, 1)
	_, _, cache := Forward(nil, p, x, h0, s0)
	g := NewGrads(p)
	Backward(nil, p, g, cache, BPInput{DY: dy})
	sum := g.AbsSum()
	g.Scale(2)
	if math.Abs(g.AbsSum()-2*sum) > 1e-3*sum {
		t.Fatal("Scale must double AbsSum")
	}
	h := NewGrads(p)
	h.Add(g)
	if math.Abs(h.AbsSum()-g.AbsSum()) > 1e-6 {
		t.Fatal("Add into zero grads must copy")
	}
}

func TestLayerLen(t *testing.T) {
	p := newParams(10, 20)
	// 4 gates × (10·20 + 20·20 + 20) floats
	want := 4 * (200 + 400 + 20)
	if got := LayerLen(10, 20); got != want {
		t.Fatalf("LayerLen: got %d want %d", got, want)
	}
	n := 0
	for g := Gate(0); g < NumGates; g++ {
		n += p.W[g].Size() + p.U[g].Size() + len(p.B[g])
	}
	if n != want {
		t.Fatalf("newParams holds %d values, want %d", n, want)
	}
}

func TestCacheBytes(t *testing.T) {
	p, x, h0, s0 := newTestSetup(12, 6, 5, 3)
	_, _, cache := Forward(nil, p, x, h0, s0)
	if cache.IntermediateBytes() != 5*3*5*4 {
		t.Fatalf("IntermediateBytes: %d", cache.IntermediateBytes())
	}
}

func TestInferenceForwardMatchesForward(t *testing.T) {
	p, x, h0, s0 := newTestSetup(13, 4, 4, 2)
	h1, s1 := InferenceForward(nil, p, x, h0, s0)
	h2, s2, _ := Forward(nil, p, x, h0, s0)
	if !h1.Equal(h2, 0) || !s1.Equal(s2, 0) {
		t.Fatal("inference forward must match training forward")
	}
}

func TestUnrolledSequenceGradCheck(t *testing.T) {
	// Full BPTT over 3 timestamps of one layer: gradients through the
	// recurrent connections (h and s chains) must match numerics.
	const input, hidden, batch, steps = 3, 2, 2, 3
	r := rng.New(200)
	p := newParams(input, hidden)
	p.Init(r)
	xs := make([]*tensor.Matrix, steps)
	for t0 := range xs {
		xs[t0] = tensor.New(batch, input)
		xs[t0].RandInit(r, 1)
	}
	mask := tensor.New(batch, hidden)
	mask.RandInit(r, 1)

	loss := func() float64 {
		h := tensor.New(batch, hidden)
		s := tensor.New(batch, hidden)
		for t0 := 0; t0 < steps; t0++ {
			h, s, _ = Forward(nil, p, xs[t0], h, s)
		}
		_ = s
		var l float64
		for k := range h.Data {
			l += float64(h.Data[k]) * float64(mask.Data[k])
		}
		return l
	}

	// Analytic: forward storing caches, then BP through time.
	h := tensor.New(batch, hidden)
	s := tensor.New(batch, hidden)
	caches := make([]*FWCache, steps)
	for t0 := 0; t0 < steps; t0++ {
		h, s, caches[t0] = Forward(nil, p, xs[t0], h, s)
	}
	grads := NewGrads(p)
	var dH, dS *tensor.Matrix
	for t0 := steps - 1; t0 >= 0; t0-- {
		in := BPInput{DH: dH, DS: dS}
		if t0 == steps-1 {
			in.DY = mask
		}
		out := Backward(nil, p, grads, caches[t0], in)
		dH, dS = out.DHPrev, out.DSPrev
	}

	const eps = 1e-3
	for g := Gate(0); g < NumGates; g++ {
		for _, idx := range []int{0, input*hidden - 1} {
			orig := p.W[g].Data[idx]
			p.W[g].Data[idx] = orig + eps
			lp := loss()
			p.W[g].Data[idx] = orig - eps
			lm := loss()
			p.W[g].Data[idx] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(grads.W[g].Data[idx])
			diff := math.Abs(ana - num)
			denom := math.Max(1e-4, math.Abs(num)+math.Abs(ana))
			if diff/denom > 3e-2 {
				t.Errorf("BPTT %v.W[%d]: analytic %v numeric %v", g, idx, ana, num)
			}
		}
		// Recurrent weights carry the through-time dependency.
		for _, idx := range []int{0, hidden*hidden - 1} {
			orig := p.U[g].Data[idx]
			p.U[g].Data[idx] = orig + eps
			lp := loss()
			p.U[g].Data[idx] = orig - eps
			lm := loss()
			p.U[g].Data[idx] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(grads.U[g].Data[idx])
			diff := math.Abs(ana - num)
			denom := math.Max(1e-4, math.Abs(num)+math.Abs(ana))
			if diff/denom > 3e-2 {
				t.Errorf("BPTT %v.U[%d]: analytic %v numeric %v", g, idx, ana, num)
			}
		}
	}
}

// newParams returns zeroed parameters for a layer on a buffer of its own.
func newParams(input, hidden int) *Params {
	return NewParamsOn(make([]float32, LayerLen(input, hidden)), input, hidden)
}
