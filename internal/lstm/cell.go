package lstm

import (
	"etalstm/internal/obs"
	"etalstm/internal/tensor"
)

// Workspace object slots for the two cache header types (see
// tensor.Workspace.GetObj). Each slot holds exactly one concrete type.
const (
	wsSlotFWCache uint8 = 1
	wsSlotP1      uint8 = 2
)

// FWCache holds what the baseline training flow stores per FW cell for
// later reuse by the matching BP cell: the inputs (activations) and the
// five intermediate variables the paper identifies as the footprint
// upper-bound (f, i, c̃, o, s — paper Sec. III-B).
//
// Ownership: the cache owns F/I/C/O/S (allocated from the workspace the
// producing Forward was given) and borrows X/HPrev/SPrev from the
// caller. Whoever consumes the cache — the matching BP cell, or
// InferenceForward when no BP will run — calls Release to hand the
// owned buffers back.
type FWCache struct {
	// Activations: inputs to the cell. Stored by every training flow.
	X     *tensor.Matrix // batch×input layer input x_t
	HPrev *tensor.Matrix // batch×hidden context h_{t-1}
	SPrev *tensor.Matrix // batch×hidden previous cell state s_{t-1}

	// Intermediate variables produced by FW-EW and consumed by BP-EW.
	F *tensor.Matrix // forget gate output
	I *tensor.Matrix // input gate output
	C *tensor.Matrix // cell (candidate) gate output c̃
	O *tensor.Matrix // output gate output
	S *tensor.Matrix // new cell state s_t
}

// IntermediateBytes returns the bytes of the cell's intermediate
// variables (f, i, c̃, o, s) — the quantity MS1 attacks.
func (c *FWCache) IntermediateBytes() int64 {
	return c.F.Bytes() + c.I.Bytes() + c.C.Bytes() + c.O.Bytes() + c.S.Bytes()
}

// Release returns the cache's owned buffers (F, I, C̃, O, S) to ws and
// recycles the header. The borrowed activations are merely dropped. The
// caller must hold no other reference to the owned matrices — note that
// S is the s_t the producing Forward returned, and that the next cell's
// cache borrows it as SPrev; Release is therefore only safe once the
// *following* cell has been consumed too (BP visits cells in reverse
// time order, which guarantees exactly that). Safe on a nil workspace.
func (c *FWCache) Release(ws *tensor.Workspace) {
	if c == nil {
		return
	}
	ws.PutAll(c.F, c.I, c.C, c.O, c.S)
	*c = FWCache{}
	ws.PutObj(wsSlotFWCache, c)
}

// getFWCache pops a recycled header or allocates one.
func getFWCache(ws *tensor.Workspace) *FWCache {
	if v := ws.GetObj(wsSlotFWCache); v != nil {
		return v.(*FWCache)
	}
	return &FWCache{}
}

// Forward runs one FW cell (paper Fig. 2a): given layer input x
// (batch×input), context h_{t-1} and cell state s_{t-1} (batch×hidden),
// it returns the new context h_t, cell state s_t and the cache the BP
// cell will consume. x, hPrev and sPrev are retained by the cache, not
// copied; callers must not mutate them afterwards.
//
// FW-MatMul is the eight per-gate products x·W_g and hPrev·U_g. FW-EW
// is then one pass over (row, j) that forms every gate as
// act((x·W_g + hPrev·U_g) + b_g), the cell state s = f⊙s' + i⊙c̃ and
// h = o⊙tanh(s) — the per-gate expressions in the per-gate order, so
// the pass is bitwise what separate adds, bias passes and activation
// passes compute.
//
// The eight products are scratch drawn from ws and released before
// returning — the raw gates live only inside the FW cell, mirroring
// MS1's early-consume. h, s and the cache's owned buffers come from ws
// too; the caller (or cache.Release) returns them when their lifetime
// ends. ws may be nil, degrading every Get to a plain allocation.
func Forward(ws *tensor.Workspace, p *Params, x, hPrev, sPrev *tensor.Matrix) (h, s *tensor.Matrix, cache *FWCache) {
	sp := ws.Recorder().Begin(obs.PhaseFW)
	batch, n := x.Rows, p.Hidden
	var xw, hu [NumGates]*tensor.Matrix
	for g := Gate(0); g < NumGates; g++ {
		xw[g] = tensor.MatMul(ws.Get(batch, n), x, p.W[g])
		hu[g] = tensor.MatMul(ws.Get(batch, n), hPrev, p.U[g])
	}
	xf, xi, xc, xo := xw[GateF].Data, xw[GateI].Data, xw[GateC].Data, xw[GateO].Data
	hf, hi, hc, ho := hu[GateF].Data, hu[GateI].Data, hu[GateC].Data, hu[GateO].Data

	f := ws.Get(batch, n)
	i := ws.Get(batch, n)
	cg := ws.Get(batch, n)
	o := ws.Get(batch, n)
	s = ws.Get(batch, n)
	h = ws.Get(batch, n)
	bf, bi, bc, bo := p.B[GateF][:n], p.B[GateI][:n], p.B[GateC][:n], p.B[GateO][:n]
	for r := 0; r < batch; r++ {
		for j := 0; j < n; j++ {
			k := r*n + j
			fv := tensor.Sigmoid32((xf[k] + hf[k]) + bf[j])
			iv := tensor.Sigmoid32((xi[k] + hi[k]) + bi[j])
			cv := tensor.Tanh32((xc[k] + hc[k]) + bc[j])
			ov := tensor.Sigmoid32((xo[k] + ho[k]) + bo[j])
			sv := float32(fv*sPrev.Data[k]) + float32(iv*cv)
			f.Data[k], i.Data[k], cg.Data[k], o.Data[k], s.Data[k] = fv, iv, cv, ov, sv
			h.Data[k] = ov * tensor.Tanh32(sv)
		}
	}
	ws.PutAll(xw[:]...)
	ws.PutAll(hu[:]...)

	cache = getFWCache(ws)
	*cache = FWCache{X: x, HPrev: hPrev, SPrev: sPrev, F: f, I: i, C: cg, O: o, S: s}
	sp.End()
	return h, s, cache
}

// InferenceForward runs the FW cell without retaining any cache — the
// inference flow the paper contrasts against training, and the flow
// MS2 uses for FW cells whose BP cell is predicted insignificant. The
// gate intermediates are released back to ws immediately; only h and s
// (which the caller owns) survive.
func InferenceForward(ws *tensor.Workspace, p *Params, x, hPrev, sPrev *tensor.Matrix) (h, s *tensor.Matrix) {
	h, s, cache := Forward(ws, p, x, hPrev, sPrev)
	cache.S = nil // s escapes to the caller; don't recycle it
	cache.Release(ws)
	return h, s
}

// BPInput carries the gradients flowing into a BP cell: δY_t from the
// layer above (or the loss), δH_t from the next timestamp's BP cell and
// δS_t, the cell-state gradient from the next timestamp. The cell only
// reads them; the caller keeps ownership.
type BPInput struct {
	DY *tensor.Matrix // batch×hidden, may be nil (no output gradient)
	DH *tensor.Matrix // batch×hidden, may be nil (last timestamp)
	DS *tensor.Matrix // batch×hidden, may be nil (last timestamp)
}

// BPOutput carries the gradients a BP cell produces for its neighbours.
// All three matrices are drawn from the cell's workspace and owned by
// the caller, who returns them once consumed.
type BPOutput struct {
	DX     *tensor.Matrix // batch×input, gradient for the layer below
	DHPrev *tensor.Matrix // batch×hidden, context gradient for t-1
	DSPrev *tensor.Matrix // batch×hidden, cell-state gradient for t-1
}

// Backward runs one baseline BP cell (paper Fig. 2b): BP-EW on the
// cached FW intermediates followed by BP-MatMul, accumulating weight
// gradients into grads (Eq. 3) and returning the propagated gradients
// (Eq. 2). Internal scratch is drawn from ws and released before
// returning; the cache is left intact (the caller Releases it when the
// cell is consumed for good).
func Backward(ws *tensor.Workspace, p *Params, grads *Grads, cache *FWCache, in BPInput) BPOutput {
	// The baseline flow interleaves the P1 and P2 parts of BP-EW in one
	// loop, so its whole element-wise stage records as BP-EW-P2; only
	// the reordered flow separates a BP-EW-P1 phase (ComputeP1).
	span := ws.Recorder().Begin(obs.PhaseBPEWP2)
	batch := cache.F.Rows
	hidden := p.Hidden

	// Total gradient on h_t: δY_t (from above) + δH_t (from t+1).
	dh := ws.Get(batch, hidden)
	if in.DY != nil {
		tensor.AddInPlace(dh, in.DY)
	}
	if in.DH != nil {
		tensor.AddInPlace(dh, in.DH)
	}

	// BP-EW: gate gradients. These expressions interleave the P1 parts
	// (functions of FW intermediates only) with the P2 parts (products
	// with gradients); BackwardFromP1 performs the same math with P1
	// precomputed.
	var dGate [NumGates]*tensor.Matrix
	for g := Gate(0); g < NumGates; g++ {
		dGate[g] = ws.Get(batch, hidden)
	}
	dsPrev := ws.Get(batch, hidden)

	for k := 0; k < batch*hidden; k++ {
		f := cache.F.Data[k]
		i := cache.I.Data[k]
		c := cache.C.Data[k]
		o := cache.O.Data[k]
		s := cache.S.Data[k]
		sp := cache.SPrev.Data[k]
		ts := tensor.Tanh32(s)

		dhk := dh.Data[k]
		ds := float32(dhk * o * (1 - float32(ts*ts)))
		if in.DS != nil {
			ds += in.DS.Data[k]
		}

		dGate[GateO].Data[k] = dhk * ts * o * (1 - o)
		dGate[GateF].Data[k] = ds * sp * f * (1 - f)
		dGate[GateI].Data[k] = ds * c * i * (1 - i)
		dGate[GateC].Data[k] = ds * i * (1 - float32(c*c))
		dsPrev.Data[k] = ds * f
	}
	ws.Put(dh)
	span.End()

	out := matmulBackward(ws, p, grads, cache.X, cache.HPrev, &dGate, dsPrev)
	ws.PutAll(dGate[:]...)
	return out
}

// matmulBackward performs the BP-MatMul stage shared by the baseline
// and reordered flows: input/context gradients (Eq. 2) and weight
// gradient accumulation (Eq. 3). dGate stays owned by the caller;
// dsPrev's ownership passes through to the returned BPOutput.
func matmulBackward(ws *tensor.Workspace, p *Params, grads *Grads, x, hPrev *tensor.Matrix, dGate *[NumGates]*tensor.Matrix, dsPrev *tensor.Matrix) BPOutput {
	sp := ws.Recorder().Begin(obs.PhaseBPMatMul)
	batch := dsPrev.Rows
	dx := ws.Get(batch, p.Input)
	dhPrev := ws.Get(batch, p.Hidden)
	tmpX := ws.Get(batch, p.Input)
	tmpH := ws.Get(batch, p.Hidden)
	for g := Gate(0); g < NumGates; g++ {
		// δX_t += δgate_g · W_gᵀ ; δH_{t-1} += δgate_g · U_gᵀ
		tensor.AddInPlace(dx, tensor.MatMulTransB(tmpX, dGate[g], p.W[g]))
		tensor.AddInPlace(dhPrev, tensor.MatMulTransB(tmpH, dGate[g], p.U[g]))
		if grads != nil {
			// δW_g += x_tᵀ ⊗ δgate_g ; δU_g += h_{t-1}ᵀ ⊗ δgate_g
			tensor.AddMatMulTransA(grads.W[g], x, dGate[g])
			tensor.AddMatMulTransA(grads.U[g], hPrev, dGate[g])
			tensor.SumRows(grads.B[g], dGate[g])
		}
	}
	ws.Put(tmpX)
	ws.Put(tmpH)
	sp.End()
	return BPOutput{DX: dx, DHPrev: dhPrev, DSPrev: dsPrev}
}
