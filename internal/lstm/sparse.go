package lstm

import (
	"etalstm/internal/obs"
	"etalstm/internal/tensor"
)

// Workspace object slots for the sparse-backward headers (slots 1 and 2
// belong to FWCache and P1, see cell.go).
const (
	wsSlotSparseP1 uint8 = 3
	wsSlotTopK     uint8 = 4
)

// The six P1 planes in Matrices() order. The first four coincide with
// the Gate constants (Pf↔GateF … Po↔GateO), which is what lets the
// sparse BP-MatMul index planes[g] directly.
const (
	planePf = iota
	planePi
	planePc
	planePo
	planePs
	planePfs
	numPlanes
)

// pairPlane is one P1 product in CSR-style (value, index) form: row i's
// surviving pairs live at positions start[i]:start[i+1] of idx/val,
// with idx holding column offsets in ascending order — the software
// image of the DMA's WT data / WT index queue pair.
type pairPlane struct {
	start []int32 // len batch+1
	idx   []int32
	val   []float32
}

// rowIdx returns row i's surviving column indices.
func (pl *pairPlane) rowIdx(i int) []int32 { return pl.idx[pl.start[i]:pl.start[i+1]] }

// SparseP1 is the pair-encoded form of a pruned P1 set — what the BP
// cell's sparse kernels consume instead of the dense planes. Zeros
// (pruned entries) are represented by absence; everything else is
// stored exactly.
type SparseP1 struct {
	batch, hidden int
	planes        [numPlanes]pairPlane
}

// release resets the plane slices (keeping their capacity, so warm
// cycles stay allocation-free) and recycles the header.
func (s *SparseP1) release(ws *tensor.Workspace) {
	for i := range s.planes {
		pl := &s.planes[i]
		pl.start = pl.start[:0]
		pl.idx = pl.idx[:0]
		pl.val = pl.val[:0]
	}
	s.batch, s.hidden = 0, 0
	ws.PutObj(wsSlotSparseP1, s)
}

// getSparseP1 pops a recycled header or allocates one.
func getSparseP1(ws *tensor.Workspace) *SparseP1 {
	if v := ws.GetObj(wsSlotSparseP1); v != nil {
		return v.(*SparseP1)
	}
	return &SparseP1{}
}

// EncodeP1Sparse pair-encodes a (typically pruned) P1 set. This is the
// software stand-in for the DMA compression module emitting value+index
// queues, so it records under BP-EW-P1 — the phase that produced the
// products — keeping the BP-EW-P2 and BP-MatMul spans a clean measure
// of the kernels that consume the pairs. p1 itself is left intact.
func EncodeP1Sparse(ws *tensor.Workspace, p1 *P1) *SparseP1 {
	sp := ws.Recorder().Begin(obs.PhaseBPEWP1)
	s := getSparseP1(ws)
	s.batch, s.hidden = p1.Pf.Rows, p1.Pf.Cols
	for pi, m := range p1.Matrices() {
		pl := &s.planes[pi]
		pl.start = append(pl.start[:0], 0)
		pl.idx = pl.idx[:0]
		pl.val = pl.val[:0]
		for i := 0; i < m.Rows; i++ {
			for j, v := range m.Row(i) {
				if v != 0 {
					pl.idx = append(pl.idx, int32(j))
					pl.val = append(pl.val, v)
				}
			}
			pl.start = append(pl.start, int32(len(pl.idx)))
		}
	}
	sp.End()
	return s
}

// scatterMul writes dst[k] = src[k]·val at the plane's surviving
// positions. Everywhere else dst keeps the exact zero it was cleared
// to, which is what the dense kernel's product against a pruned (zero)
// P1 entry yields.
func scatterMul(dst, src *tensor.Matrix, pl *pairPlane, hidden int) {
	for i := 0; i+1 < len(pl.start); i++ {
		off := i * hidden
		for n := pl.start[i]; n < pl.start[i+1]; n++ {
			k := off + int(pl.idx[n])
			dst.Data[k] = src.Data[k] * pl.val[n]
		}
	}
}

// BackwardFromP1Sparse is BackwardFromP1 driven by the (value, index)
// pairs of a pruned P1 set: BP-EW-P2 touches only surviving pairs, and
// BP-MatMul's inner products gather over each gate's surviving columns
// (the Omni-PE's index-driven operand fetch). topK > 0 additionally
// caps each batch row of the weight-gradient MatMuls to its topK
// largest-|δgate| columns (Zhu et al., arXiv:1806.00512); propagated
// gradients (δX, δH_{t-1}) always use the full pattern.
//
// Every arithmetic difference from the dense kernel is the skipping of
// terms that are exact zeros there, in an accumulation order that
// preserves the dense per-accumulator order — so at any prune
// threshold the result matches BackwardFromP1 on the same pruned set
// bitwise (modulo the sign of exact zeros, which no comparison in this
// codebase distinguishes), and with topK ≥ hidden the top-k path is the
// identity. The check package's sparse equivalence matrix enforces
// both.
func BackwardFromP1Sparse(ws *tensor.Workspace, p *Params, grads *Grads, x, hPrev *tensor.Matrix, p1 *P1, in BPInput, topK int) BPOutput {
	sp1 := EncodeP1Sparse(ws, p1)
	span := ws.Recorder().Begin(obs.PhaseBPEWP2)
	batch := p1.Pf.Rows
	hidden := p.Hidden

	dh := ws.Get(batch, hidden)
	if in.DY != nil {
		tensor.AddInPlace(dh, in.DY)
	}
	if in.DH != nil {
		tensor.AddInPlace(dh, in.DH)
	}

	// δs = δh⊙Ps + δS_{t+1}, walked over Ps's pairs only: where Ps was
	// pruned the product is an exact zero and δs is just the carried δS
	// value the buffer already holds. Adding the product onto the carried
	// value reproduces the dense expression bitwise (float add commutes).
	ds := ws.Get(batch, hidden)
	if in.DS != nil {
		copy(ds.Data, in.DS.Data)
	}
	pl := &sp1.planes[planePs]
	for i := 0; i < batch; i++ {
		off := i * hidden
		for n := pl.start[i]; n < pl.start[i+1]; n++ {
			k := off + int(pl.idx[n])
			ds.Data[k] = float32(dh.Data[k]*pl.val[n]) + ds.Data[k]
		}
	}

	var dGate [NumGates]*tensor.Matrix
	for g := Gate(0); g < NumGates; g++ {
		dGate[g] = ws.Get(batch, hidden)
	}
	dsPrev := ws.Get(batch, hidden)
	scatterMul(dGate[GateO], dh, &sp1.planes[planePo], hidden)
	scatterMul(dGate[GateF], ds, &sp1.planes[planePf], hidden)
	scatterMul(dGate[GateI], ds, &sp1.planes[planePi], hidden)
	scatterMul(dGate[GateC], ds, &sp1.planes[planePc], hidden)
	scatterMul(dsPrev, ds, &sp1.planes[planePfs], hidden)
	ws.Put(dh)
	ws.Put(ds)
	span.End()

	out := sparseMatmulBackward(ws, p, grads, x, hPrev, sp1, &dGate, dsPrev, topK)
	ws.PutAll(dGate[:]...)
	sp1.release(ws)
	return out
}

// sparseMatmulBackward is matmulBackward with every inner product
// gathering over the gate's surviving pattern instead of all hidden
// columns. δgate_g is zero wherever its P1 plane was pruned (plane g —
// the gate and plane orders coincide), so each skipped term is a
// multiply-add of an exact zero. Per-accumulator accumulation order
// matches the dense kernel: gates ascend, batch rows ascend, columns
// ascend.
func sparseMatmulBackward(ws *tensor.Workspace, p *Params, grads *Grads, x, hPrev *tensor.Matrix, sp1 *SparseP1, dGate *[NumGates]*tensor.Matrix, dsPrev *tensor.Matrix, topK int) BPOutput {
	span := ws.Recorder().Begin(obs.PhaseBPMatMul)
	batch := dsPrev.Rows
	hidden := p.Hidden
	dx := ws.Get(batch, p.Input)
	dhPrev := ws.Get(batch, p.Hidden)
	sel := getTopKSelector(ws)
	for g := Gate(0); g < NumGates; g++ {
		pl := &sp1.planes[g]
		dg := dGate[g]
		// δX_t += δgate_g·W_gᵀ ; δH_{t-1} += δgate_g·U_gᵀ. An empty
		// pattern row contributes exactly zero and is skipped whole.
		for i := 0; i < batch; i++ {
			pat := pl.rowIdx(i)
			if len(pat) == 0 {
				continue
			}
			dgrow := dg.Row(i)
			dxrow := dx.Row(i)
			for j := 0; j < p.Input; j++ {
				wrow := p.W[g].Row(j)
				var sum float32
				for _, kk := range pat {
					sum += float32(dgrow[kk] * wrow[kk])
				}
				dxrow[j] += sum
			}
			dhrow := dhPrev.Row(i)
			for j := 0; j < hidden; j++ {
				urow := p.U[g].Row(j)
				var sum float32
				for _, kk := range pat {
					sum += float32(dgrow[kk] * urow[kk])
				}
				dhrow[j] += sum
			}
		}
		if grads == nil {
			continue
		}
		// δW_g += x_tᵀ⊗δgate_g ; δU_g += h_{t-1}ᵀ⊗δgate_g ; δB_g += Σδgate_g
		// — the weight-gradient side, where the per-row top-k structured
		// sparsifier applies.
		for k := 0; k < batch; k++ {
			pat := pl.rowIdx(k)
			if len(pat) == 0 {
				continue
			}
			dgrow := dg.Row(k)
			if topK > 0 {
				pat = sel.Filter(pat, dgrow, topK)
			}
			for i, av := range x.Row(k) {
				if av == 0 {
					continue
				}
				wrow := grads.W[g].Row(i)
				for _, kk := range pat {
					wrow[kk] += float32(av * dgrow[kk])
				}
			}
			for i, av := range hPrev.Row(k) {
				if av == 0 {
					continue
				}
				urow := grads.U[g].Row(i)
				for _, kk := range pat {
					urow[kk] += float32(av * dgrow[kk])
				}
			}
			brow := grads.B[g]
			for _, kk := range pat {
				brow[kk] += dgrow[kk]
			}
		}
	}
	sel.put(ws)
	span.End()
	return BPOutput{DX: dx, DHPrev: dhPrev, DSPrev: dsPrev}
}

// TopKSelector picks per-row top-k column subsets for the structured
// weight-gradient sparsifier. It owns reusable scratch, so a warm
// selector filters without allocating.
type TopKSelector struct {
	absv []float32
	keep []int32
}

// getTopKSelector pops a recycled selector or allocates one.
func getTopKSelector(ws *tensor.Workspace) *TopKSelector {
	if v := ws.GetObj(wsSlotTopK); v != nil {
		return v.(*TopKSelector)
	}
	return &TopKSelector{}
}

// put recycles the selector (scratch keeps its capacity).
func (s *TopKSelector) put(ws *tensor.Workspace) { ws.PutObj(wsSlotTopK, s) }

// Filter returns the members of idx whose |row[idx[n]]| rank among the
// k largest, preserving ascending index order. Ties at the cut
// magnitude keep the smallest indices, making the selection fully
// deterministic. k <= 0 or k >= len(idx) returns idx unchanged — the
// bitwise identity the equivalence matrix asserts at k = rowlen. The
// returned slice aliases either idx or the selector's scratch and is
// valid until the next Filter call.
func (s *TopKSelector) Filter(idx []int32, row []float32, k int) []int32 {
	if k <= 0 || k >= len(idx) {
		return idx
	}
	s.absv = s.absv[:0]
	for _, j := range idx {
		v := row[j]
		if v < 0 {
			v = -v
		}
		s.absv = append(s.absv, v)
	}
	cut := kthLargest(s.absv, k)
	greater := 0
	for _, j := range idx {
		v := row[j]
		if v < 0 {
			v = -v
		}
		if v > cut {
			greater++
		}
	}
	ties := k - greater
	s.keep = s.keep[:0]
	for _, j := range idx {
		v := row[j]
		if v < 0 {
			v = -v
		}
		if v > cut {
			s.keep = append(s.keep, j)
		} else if v == cut && ties > 0 {
			s.keep = append(s.keep, j)
			ties--
		}
	}
	return s.keep
}

// kthLargest returns the k-th largest element (1-based) of a,
// partially reordering a in place (iterative quickselect, middle
// pivot).
func kthLargest(a []float32, k int) float32 {
	target := len(a) - k
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return a[target]
		}
	}
	return a[target]
}
