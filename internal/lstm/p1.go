package lstm

import (
	"etalstm/internal/obs"
	"etalstm/internal/tensor"
)

// P1 holds the six BP-EW-P1 products — the part of the BP element-wise
// stage that depends only on FW intermediates (paper Sec. IV-A). With
// MS1's execution reordering these are computed during the FW pass,
// immediately consuming the raw gates, and they replace f/i/c̃/o/s as
// what travels to the BP cell:
//
//	Pf  = s_{t-1} ⊙ f(1-f)        factor of δf̂ = δs ⊙ Pf
//	Pi  = c̃ ⊙ i(1-i)              factor of δî = δs ⊙ Pi
//	Pc  = i ⊙ (1-c̃²)              factor of δĉ = δs ⊙ Pc
//	Po  = tanh(s) ⊙ o(1-o)        factor of δô = δh ⊙ Po
//	Ps  = o ⊙ (1-tanh²(s))        factor of δs += δh ⊙ Ps
//	Pfs = f                        factor of δS_{t-1} = δs ⊙ Pfs
//
// Every product is a composition of values in [-1, 1], so each P1 entry
// lies in [-1, 1]; the products concentrate mass near zero far more than
// the raw gates do (paper Fig. 6), which is what makes near-zero pruning
// effective after the reorder.
//
// Ownership: the six matrices are drawn from the workspace given to
// ComputeP1; the BP cell (or whoever else consumes the set) calls
// Release to hand them back.
type P1 struct {
	Pf, Pi, Pc, Po, Ps, Pfs *tensor.Matrix // each batch×hidden
}

// Bytes returns the dense storage of the P1 set.
func (p *P1) Bytes() int64 {
	return p.Pf.Bytes() + p.Pi.Bytes() + p.Pc.Bytes() +
		p.Po.Bytes() + p.Ps.Bytes() + p.Pfs.Bytes()
}

// Matrices returns the six P1 matrices in a fixed order (Pf, Pi, Pc,
// Po, Ps, Pfs) for compression and statistics code.
func (p *P1) Matrices() []*tensor.Matrix {
	return []*tensor.Matrix{p.Pf, p.Pi, p.Pc, p.Po, p.Ps, p.Pfs}
}

// Release returns the six product matrices to ws and recycles the
// header. The caller must hold no other reference to them. Safe on a
// nil workspace.
func (p *P1) Release(ws *tensor.Workspace) {
	if p == nil {
		return
	}
	ws.PutAll(p.Pf, p.Pi, p.Pc, p.Po, p.Ps, p.Pfs)
	*p = P1{}
	ws.PutObj(wsSlotP1, p)
}

// getP1 pops a recycled header or allocates one.
func getP1(ws *tensor.Workspace) *P1 {
	if v := ws.GetObj(wsSlotP1); v != nil {
		return v.(*P1)
	}
	return &P1{}
}

// ComputeP1 derives the P1 products from a freshly produced FW cache.
// Under MS1 this runs inside the FW pass (execution reordering); the raw
// gate matrices may be released afterwards. The products are drawn
// from ws and owned by the returned set.
func ComputeP1(ws *tensor.Workspace, cache *FWCache) *P1 {
	sp := ws.Recorder().Begin(obs.PhaseBPEWP1)
	n := cache.F.Rows
	h := cache.F.Cols
	p := getP1(ws)
	*p = P1{
		Pf:  ws.Get(n, h),
		Pi:  ws.Get(n, h),
		Pc:  ws.Get(n, h),
		Po:  ws.Get(n, h),
		Ps:  ws.Get(n, h),
		Pfs: ws.Get(n, h),
	}
	for k := 0; k < n*h; k++ {
		f := cache.F.Data[k]
		i := cache.I.Data[k]
		c := cache.C.Data[k]
		o := cache.O.Data[k]
		ts := tensor.Tanh32(cache.S.Data[k])
		sp := cache.SPrev.Data[k]

		p.Pf.Data[k] = sp * f * (1 - f)
		p.Pi.Data[k] = c * i * (1 - i)
		p.Pc.Data[k] = i * (1 - float32(c*c))
		p.Po.Data[k] = ts * o * (1 - o)
		p.Ps.Data[k] = o * (1 - float32(ts*ts))
		p.Pfs.Data[k] = f
	}
	sp.End()
	return p
}

// ForwardWithP1 runs one FW cell and immediately computes its P1
// products (MS1's reordered flow). The raw intermediates are consumed
// on the spot: once the P1 products exist, the gate matrices go
// straight back to the workspace — the in-memory analogue of the
// paper's early-consume of raw gates. Only h, s (caller-owned) and the
// P1 set survive the call.
func ForwardWithP1(ws *tensor.Workspace, p *Params, x, hPrev, sPrev *tensor.Matrix) (h, s *tensor.Matrix, p1 *P1) {
	h, s, cache := Forward(ws, p, x, hPrev, sPrev)
	p1 = ComputeP1(ws, cache)
	cache.S = nil // s escapes to the caller; don't recycle it
	cache.Release(ws)
	return h, s, p1
}

// BackwardFromP1 runs the BP cell using precomputed P1 products instead
// of raw FW intermediates (the BP-EW-P2 + BP-MatMul remainder). x and
// hPrev are the cell's stored activations. The result is numerically
// identical to Backward on the same cell; TestP1Equivalence asserts it.
// Internal scratch comes from ws and is released before returning; the
// P1 set is left intact for the caller to Release once the cell is
// consumed for good.
func BackwardFromP1(ws *tensor.Workspace, p *Params, grads *Grads, x, hPrev *tensor.Matrix, p1 *P1, in BPInput) BPOutput {
	sp := ws.Recorder().Begin(obs.PhaseBPEWP2)
	batch := p1.Pf.Rows
	hidden := p.Hidden

	dh := ws.Get(batch, hidden)
	if in.DY != nil {
		tensor.AddInPlace(dh, in.DY)
	}
	if in.DH != nil {
		tensor.AddInPlace(dh, in.DH)
	}

	var dGate [NumGates]*tensor.Matrix
	for g := Gate(0); g < NumGates; g++ {
		dGate[g] = ws.Get(batch, hidden)
	}
	dsPrev := ws.Get(batch, hidden)

	// BP-EW-P2: pure gradient×P1 products. A zero P1 entry (pruned by
	// the compression module) zeroes the corresponding gate gradient,
	// which is exactly the "skip near-zero operands" computation saving
	// the paper describes.
	for k := 0; k < batch*hidden; k++ {
		dhk := dh.Data[k]
		ds := float32(dhk * p1.Ps.Data[k])
		if in.DS != nil {
			ds += in.DS.Data[k]
		}
		dGate[GateO].Data[k] = dhk * p1.Po.Data[k]
		dGate[GateF].Data[k] = ds * p1.Pf.Data[k]
		dGate[GateI].Data[k] = ds * p1.Pi.Data[k]
		dGate[GateC].Data[k] = ds * p1.Pc.Data[k]
		dsPrev.Data[k] = ds * p1.Pfs.Data[k]
	}
	ws.Put(dh)
	sp.End()

	out := matmulBackward(ws, p, grads, x, hPrev, &dGate, dsPrev)
	ws.PutAll(dGate[:]...)
	return out
}
