package lstm

import (
	"math"
	"testing"
	"testing/quick"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// TestP1Equivalence is the load-bearing MS1 correctness test: BP from
// precomputed P1 products must reproduce the baseline BP bit-for-bit
// (up to float32 association noise).
func TestP1Equivalence(t *testing.T) {
	const input, hidden, batch = 6, 5, 4
	p, x, h0, s0 := newTestSetup(21, input, hidden, batch)
	r := rng.New(300)
	dy := tensor.New(batch, hidden)
	dh := tensor.New(batch, hidden)
	ds := tensor.New(batch, hidden)
	dy.RandInit(r, 1)
	dh.RandInit(r, 1)
	ds.RandInit(r, 1)

	_, _, cache := Forward(nil, p, x, h0, s0)
	p1 := ComputeP1(nil, cache)

	gBase := NewGrads(p)
	outBase := Backward(nil, p, gBase, cache, BPInput{DY: dy, DH: dh, DS: ds})

	gP1 := NewGrads(p)
	outP1 := BackwardFromP1(nil, p, gP1, x, h0, p1, BPInput{DY: dy, DH: dh, DS: ds})

	const tol = 1e-5
	if !outBase.DX.Equal(outP1.DX, tol) {
		t.Error("DX mismatch")
	}
	if !outBase.DHPrev.Equal(outP1.DHPrev, tol) {
		t.Error("DHPrev mismatch")
	}
	if !outBase.DSPrev.Equal(outP1.DSPrev, tol) {
		t.Error("DSPrev mismatch")
	}
	for g := Gate(0); g < NumGates; g++ {
		if !gBase.W[g].Equal(gP1.W[g], tol) {
			t.Errorf("W[%v] mismatch", g)
		}
		if !gBase.U[g].Equal(gP1.U[g], tol) {
			t.Errorf("U[%v] mismatch", g)
		}
	}
}

func TestP1ValueRange(t *testing.T) {
	// Every P1 product is a composition of values in [-1,1] when the
	// running cell state stays bounded, so |P1| must stay ≤ max(|s'|,1).
	p, x, h0, s0 := newTestSetup(22, 8, 8, 4)
	_, _, cache := Forward(nil, p, x, h0, s0)
	p1 := ComputeP1(nil, cache)
	bound := float64(maxAbs(s0))
	if bound < 1 {
		bound = 1
	}
	for i, m := range p1.Matrices() {
		if v := float64(maxAbs(m)); v > bound+1e-6 {
			t.Fatalf("P1[%d] out of range: %v > %v", i, v, bound)
		}
	}
}

// TestP1MoreCompressible reproduces the paper's Fig. 6 observation in
// miniature: the P1 products concentrate far more mass below 0.1 than
// the raw FW intermediates do.
func TestP1MoreCompressible(t *testing.T) {
	const input, hidden, batch = 32, 64, 16
	p, x, h0, s0 := newTestSetup(23, input, hidden, batch)
	_, _, cache := Forward(nil, p, x, h0, s0)
	p1 := ComputeP1(nil, cache)

	rawFrac := 0.0
	raws := []*tensor.Matrix{cache.F, cache.I, cache.C, cache.O, cache.S}
	for _, m := range raws {
		rawFrac += fracBelow(m, 0.1)
	}
	rawFrac /= float64(len(raws))

	p1Frac := 0.0
	for _, m := range p1.Matrices() {
		p1Frac += fracBelow(m, 0.1)
	}
	p1Frac /= 6

	if p1Frac <= rawFrac {
		t.Fatalf("P1 must be more compressible: raw %.3f vs p1 %.3f", rawFrac, p1Frac)
	}
	if p1Frac < 0.35 {
		t.Fatalf("P1 near-zero fraction implausibly low: %.3f", p1Frac)
	}
}

func TestForwardWithP1MatchesSeparate(t *testing.T) {
	p, x, h0, s0 := newTestSetup(24, 4, 4, 2)
	h1, s1, p1a := ForwardWithP1(nil, p, x, h0, s0)
	h2, s2, cache := Forward(nil, p, x, h0, s0)
	p1b := ComputeP1(nil, cache)
	if !h1.Equal(h2, 0) || !s1.Equal(s2, 0) {
		t.Fatal("outputs differ")
	}
	ma, mb := p1a.Matrices(), p1b.Matrices()
	for i := range ma {
		if !ma[i].Equal(mb[i], 0) {
			t.Fatalf("P1 matrix %d differs", i)
		}
	}
}

func TestP1Bytes(t *testing.T) {
	p, x, h0, s0 := newTestSetup(25, 4, 5, 3)
	_, _, p1 := ForwardWithP1(nil, p, x, h0, s0)
	if p1.Bytes() != 6*3*5*4 {
		t.Fatalf("P1 bytes: %d", p1.Bytes())
	}
}

// Property: P1 equivalence holds across random seeds and gradient
// sparsity patterns.
func TestPropertyP1Equivalence(t *testing.T) {
	f := func(seed uint64) bool {
		p, x, h0, s0 := newTestSetup(seed, 3, 4, 2)
		r := rng.New(seed ^ 0xabc)
		dy := tensor.New(2, 4)
		dy.RandInit(r, 1)
		_, _, cache := Forward(nil, p, x, h0, s0)
		p1 := ComputeP1(nil, cache)
		gA := NewGrads(p)
		oA := Backward(nil, p, gA, cache, BPInput{DY: dy})
		gB := NewGrads(p)
		oB := BackwardFromP1(nil, p, gB, x, h0, p1, BPInput{DY: dy})
		return oA.DX.Equal(oB.DX, 1e-5) &&
			oA.DSPrev.Equal(oB.DSPrev, 1e-5) &&
			gA.W[GateC].Equal(gB.W[GateC], 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOpCountsConsistency(t *testing.T) {
	fw := ForwardOps(512, 1024, 16)
	bp := BackwardOps(512, 1024, 16)
	if bp.MatMulMACs != 2*fw.MatMulMACs {
		t.Fatalf("BP MatMul must be 2× FW: %d vs %d", bp.MatMulMACs, fw.MatMulMACs)
	}
	if fw.FLOPs() <= 0 || bp.FLOPs() <= 0 {
		t.Fatal("op counts must be positive")
	}
	// MS1 moves P1 into FW; the sum of reordered parts must not exceed
	// the baseline total EW work by more than the P1 recompute savings.
	p1 := P1Ops(1024, 16)
	p2dense := P2Ops(1024, 16, 0)
	if p1.EWOps()+p2dense.EWOps() > bp.EWOps()+fw.EWOps() {
		t.Fatal("reordered EW work exceeds baseline total")
	}
}

func TestBackwardFromP1OpsSparsityMonotone(t *testing.T) {
	dense := BackwardFromP1Ops(512, 1024, 16, 0)
	sparse := BackwardFromP1Ops(512, 1024, 16, 0.65)
	if sparse.MatMulMACs >= dense.MatMulMACs {
		t.Fatal("sparsity must reduce MatMul MACs")
	}
	if sparse.EWMul >= dense.EWMul {
		t.Fatal("sparsity must reduce EW multiplies")
	}
	zero := BackwardFromP1Ops(512, 1024, 16, 1)
	if zero.MatMulMACs != 0 {
		t.Fatal("full sparsity must zero MatMul work")
	}
}

func TestOpCountArithmetic(t *testing.T) {
	a := OpCount{MatMulMACs: 1, EWMul: 2, EWAdd: 3, Activation: 4}
	b := a.Add(a)
	if b.MatMulMACs != 2 || b.Activation != 8 {
		t.Fatalf("Add: %+v", b)
	}
	c := a.Scale(3)
	if c.EWMul != 6 {
		t.Fatalf("Scale: %+v", c)
	}
	if a.FLOPs() != 2*1+2+3+4 {
		t.Fatalf("FLOPs: %d", a.FLOPs())
	}
	if a.EWOps() != 9 {
		t.Fatalf("EWOps: %d", a.EWOps())
	}
}

func TestP1SparsityZeroesGradients(t *testing.T) {
	// Pruning a P1 entry to zero must zero the matching gate gradient —
	// the computation-skipping contract of the DMA decoder.
	p, x, h0, s0 := newTestSetup(26, 4, 4, 2)
	r := rng.New(400)
	dy := tensor.New(2, 4)
	dy.RandInit(r, 1)
	_, _, cache := Forward(nil, p, x, h0, s0)
	p1 := ComputeP1(nil, cache)
	p1.Pi.Zero() // prune the entire input-gate P1 plane
	g := NewGrads(p)
	BackwardFromP1(nil, p, g, x, h0, p1, BPInput{DY: dy})
	if g.W[GateI].AbsSum() != 0 || g.U[GateI].AbsSum() != 0 {
		t.Fatal("zero Pi must zero input-gate weight gradients")
	}
	if math.Abs(g.W[GateO].AbsSum()) == 0 {
		t.Fatal("other gates must still receive gradients")
	}
}

// fracBelow returns the fraction of m's elements with |v| < threshold.
func fracBelow(m *tensor.Matrix, threshold float32) float64 {
	n := 0
	for _, v := range m.Data {
		if v < threshold && -v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(m.Data))
}

// maxAbs returns max |m_ij|.
func maxAbs(m *tensor.Matrix) float32 {
	var mx float32
	for _, v := range m.Data {
		mx = max(mx, v, -v)
	}
	return mx
}
