package model

import (
	"fmt"
	"time"

	"etalstm/internal/lstm"
	"etalstm/internal/obs"
	"etalstm/internal/tensor"
)

// The BPTT driver (DESIGN.md §11).
//
// One FW sweep and one BP sweep serve every storage plan. A plan
// partitions time into segments (memplan.Plan picks the boundaries):
// the main FW pass runs segments before the last in inference mode,
// snapshotting only the (h,s) column entering each boundary, and stores
// per-cell state only for the final segment. BP then walks the segments
// in reverse, replaying FW over each earlier segment from its column
// snapshot to regenerate exactly the per-cell state (raw caches or MS1
// P1 products, per the storage policy) a single segment would have
// kept — the Gruslys et al. recipe composed with MS1/MS2. Full storage
// is the one-segment plan, boundaries []int{0}: nothing is recomputed.
//
// Bitwise discipline. Every plan produces the same results bit for bit:
//
//   - FW values: Forward, ForwardWithP1 and InferenceForward share one
//     kernel, so replaying a segment produces the identical h/s/P1
//     values the main pass computed.
//   - Losses: evaluated timesteps are visited in ascending t.
//   - Projection gradients: accumulated during FW in ascending t, then
//     folded into the zero-initialized Gradients, which is exact.
//   - Layer gradients: within a segment BP runs layer-major with t
//     descending, and segments are processed last-to-first, so each
//     layer's accumulation order over global t does not depend on the
//     plan; the δH/δS carries thread across segment boundaries
//     unchanged. The δY seeds are recomputed per segment from the
//     stored top-layer h (a deterministic function).

// ForwardResult holds what one FW pass produced and what its BP pass
// consumes: the stored segment's per-cell state, the checkpoint columns
// entering the earlier segments, the losses, and the FW-accumulated
// projection gradients.
type ForwardResult struct {
	// Inputs are the external x_t (caller-owned, retained for replay).
	Inputs []*tensor.Matrix
	// Boundaries are the segment starts (ascending, Boundaries[0] == 0).
	Boundaries []int
	// Targets are retained: the BP pass recomputes the per-step dLogits
	// from them instead of storing T output-sized gradient planes.
	Targets *Targets

	// H[l][t] is layer l's hidden output at timestamp t; Cache[l][t] is
	// non-nil iff the policy said StoreRaw, P1[l][t] iff it said
	// StoreP1. All three are indexed over the whole sequence and hold
	// the stored segment only — every t under full storage, nil before
	// the last boundary otherwise. BP releases entries as it consumes
	// them.
	H     [][]*tensor.Matrix
	Cache [][]*lstm.FWCache
	P1    [][]*lstm.P1

	// Loss is the scalar training loss of the minibatch.
	Loss float64
	// PerStepLoss[t] is the loss contribution of timestamp t (single
	// loss: all mass at SeqLen-1). MS2's Eq. 4 predictor consumes this.
	PerStepLoss []float64

	// cols[i] is the (h,s) column entering Boundaries[i] (cols[0] stays
	// nil — segment 0 restarts from initState or zeros).
	cols []*State
	// projG/projBG accumulate the projection gradients during FW, in
	// ascending-t order, so no per-step dLogits/dY planes are retained.
	projG  *tensor.Matrix
	projBG []float32

	initState       *State
	recomputedCells int
	tracker         byteTracker
}

// PeakStoredBytes returns the measured peak of bytes held for later BP
// consumption over the pass so far: checkpoint columns, stored per-cell
// state (h + caches/P1), in-flight δ planes, and the projection-gradient
// accumulators. The running (h,s) state and per-cell scratch are
// transient and excluded — the same accounting memplan.Plan predicts.
func (r *ForwardResult) PeakStoredBytes() int64 { return r.tracker.peak }

// RecomputedCells returns how many FW cells were re-executed during BP
// (0 under full storage).
func (r *ForwardResult) RecomputedCells() int { return r.recomputedCells }

// State carries the recurrent state (h, s per layer) across sequence
// chunks — truncated BPTT, the standard training flow for language
// modeling where documents are longer than the unroll window.
type State struct {
	H, S []*tensor.Matrix // per layer, batch×hidden
}

// ZeroState returns a fresh all-zero state for n.
func (n *Network) ZeroState() *State {
	st := &State{}
	for l := 0; l < n.Cfg.Layers; l++ {
		st.H = append(st.H, tensor.New(n.Cfg.Batch, n.Cfg.Hidden))
		st.S = append(st.S, tensor.New(n.Cfg.Batch, n.Cfg.Hidden))
	}
	return st
}

// byteTracker is a high-water-mark counter for stored bytes.
type byteTracker struct{ cur, peak int64 }

func (b *byteTracker) add(n int64) {
	b.cur += n
	if b.cur > b.peak {
		b.peak = b.cur
	}
}
func (b *byteTracker) sub(n int64) { b.cur -= n }

// evaluates reports whether the loss kind evaluates timestep t.
func (n *Network) evaluates(t int) bool {
	return n.Cfg.Loss != SingleLoss || t == n.Cfg.SeqLen-1
}

// Logits projects a top-layer hidden output (batch×hidden) through the
// output layer into dst (nil allocates) and returns it. The loss
// evaluation and every forward-only caller share this projection.
func (n *Network) Logits(dst, top *tensor.Matrix) *tensor.Matrix {
	logits := tensor.MatMul(dst, top, n.Proj)
	tensor.AddRowVector(logits, logits, n.ProjB)
	return logits
}

// evalOutput projects top (batch×hidden) through the output layer and
// returns timestep t's raw loss plus the dLogits, scaled by 1/SeqLen for
// the per-timestep kinds. It is shared by the FW loss accumulation and
// the BP seed recompute, which must produce bitwise-identical values.
func (n *Network) evalOutput(top *tensor.Matrix, targets *Targets, t int) (float64, *tensor.Matrix, error) {
	cfg := n.Cfg
	ws := n.Workspace()
	logits := n.Logits(ws.Get(cfg.Batch, cfg.OutSize), top)
	var loss float64
	var dl *tensor.Matrix
	switch cfg.Loss {
	case SingleLoss:
		if len(targets.Classes) == 0 {
			return 0, nil, fmt.Errorf("model: single loss requires class targets")
		}
		loss, dl = SoftmaxCrossEntropy(logits, targets.Classes[len(targets.Classes)-1])
	case PerTimestampLoss:
		if len(targets.Classes) != cfg.SeqLen {
			return 0, nil, fmt.Errorf("model: per-timestamp loss requires %d class target steps, got %d",
				cfg.SeqLen, len(targets.Classes))
		}
		loss, dl = SoftmaxCrossEntropy(logits, targets.Classes[t])
		dl = tensor.Scale(dl, dl, 1/float32(cfg.SeqLen))
	case RegressionLoss:
		if len(targets.Regress) != cfg.SeqLen {
			return 0, nil, fmt.Errorf("model: regression loss requires %d target steps, got %d",
				cfg.SeqLen, len(targets.Regress))
		}
		loss, dl = SquaredError(logits, targets.Regress[t])
		dl = tensor.Scale(dl, dl, 1/float32(cfg.SeqLen))
	default:
		return 0, nil, fmt.Errorf("model: unknown loss kind %v", cfg.Loss)
	}
	ws.Put(logits)
	return loss, dl, nil
}

// foldLoss accumulates one evaluated timestep into the result's loss
// fields and projection-gradient accumulators. The caller visits
// evaluated timesteps in ascending t.
func (n *Network) foldLoss(res *ForwardResult, top *tensor.Matrix, t int) error {
	// The output projection and loss run at the tail of the FW pass, so
	// their time records under the FW phase.
	sp := n.Workspace().Recorder().Begin(obs.PhaseFW)
	defer sp.End()
	loss, dl, err := n.evalOutput(top, res.Targets, t)
	if err != nil {
		return err
	}
	if n.Cfg.Loss == SingleLoss {
		res.Loss = loss
		res.PerStepLoss[t] = loss
	} else {
		res.Loss += loss / float64(n.Cfg.SeqLen)
		res.PerStepLoss[t] = loss / float64(n.Cfg.SeqLen)
	}
	tensor.AddMatMulTransA(res.projG, top, dl)
	tensor.SumRows(res.projBG, dl)
	n.Workspace().Put(dl)
	return nil
}

// validBoundaries checks the segment-start invariants.
func validBoundaries(boundaries []int, seqLen int) error {
	if len(boundaries) == 0 || boundaries[0] != 0 {
		return fmt.Errorf("model: boundaries must start at 0, got %v", boundaries)
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] || boundaries[i] >= seqLen {
			return fmt.Errorf("model: boundaries must ascend within [0,%d): %v", seqLen, boundaries)
		}
	}
	return nil
}

// Forward runs the FW phase over a minibatch from a zero initial state
// under full storage (the one-segment plan). xs has SeqLen entries of
// shape batch×InputSize; policy selects per-cell storage (nil =
// BaselinePolicy); targets may be nil to run without a loss.
func (n *Network) Forward(xs []*tensor.Matrix, targets *Targets, policy StoragePolicy) (*ForwardResult, error) {
	res, _, err := n.ForwardCheckpointed(xs, targets, policy, nil, nil)
	return res, err
}

// ForwardCheckpointed runs the FW phase under a checkpoint plan:
// segments before the last execute in inference mode (only the (h,s)
// column entering each boundary is snapshotted), the last segment
// stores per-cell state per policy, and losses/projection-gradient
// seeds accumulate along the way. boundaries must satisfy
// validBoundaries; nil means []int{0}, a single stored segment — full
// storage. The pass starts from state (nil = zero) and returns the
// carried-out state for the next chunk; gradients do not flow across
// the chunk boundary (truncated BPTT).
func (n *Network) ForwardCheckpointed(xs []*tensor.Matrix, targets *Targets, policy StoragePolicy, state *State, boundaries []int) (*ForwardResult, *State, error) {
	cfg := n.Cfg
	if len(boundaries) == 0 {
		boundaries = []int{0}
	}
	if err := validBoundaries(boundaries, cfg.SeqLen); err != nil {
		return nil, nil, err
	}
	if len(xs) != cfg.SeqLen {
		return nil, nil, fmt.Errorf("model: got %d input steps, want %d", len(xs), cfg.SeqLen)
	}
	for t, x := range xs {
		if x.Rows != cfg.Batch || x.Cols != cfg.InputSize {
			return nil, nil, fmt.Errorf("model: input %d is %dx%d, want %dx%d",
				t, x.Rows, x.Cols, cfg.Batch, cfg.InputSize)
		}
	}
	if state != nil && (len(state.H) != cfg.Layers || len(state.S) != cfg.Layers) {
		return nil, nil, fmt.Errorf("model: state has %d/%d layers, want %d",
			len(state.H), len(state.S), cfg.Layers)
	}
	if policy == nil {
		policy = BaselinePolicy()
	}
	ws := n.Workspace()

	K := len(boundaries)
	res := &ForwardResult{
		Inputs:      xs,
		Boundaries:  append([]int(nil), boundaries...),
		Targets:     targets,
		H:           make([][]*tensor.Matrix, cfg.Layers),
		Cache:       make([][]*lstm.FWCache, cfg.Layers),
		P1:          make([][]*lstm.P1, cfg.Layers),
		PerStepLoss: make([]float64, cfg.SeqLen),
		cols:        make([]*State, K),
		projG:       ws.Get(cfg.Hidden, cfg.OutSize),
		projBG:      make([]float32, cfg.OutSize),
		initState:   state,
	}
	for l := 0; l < cfg.Layers; l++ {
		res.H[l] = make([]*tensor.Matrix, cfg.SeqLen)
		res.Cache[l] = make([]*lstm.FWCache, cfg.SeqLen)
		res.P1[l] = make([]*lstm.P1, cfg.SeqLen)
	}
	res.tracker.add(res.projG.Bytes() + int64(len(res.projBG))*4)

	// Running recurrent state, copied so BP cannot reach into the
	// previous chunk and the caller's state stays immutable.
	h := make([]*tensor.Matrix, cfg.Layers)
	s := make([]*tensor.Matrix, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		h[l] = ws.Get(cfg.Batch, cfg.Hidden)
		s[l] = ws.Get(cfg.Batch, cfg.Hidden)
		if state != nil {
			h[l].CopyFrom(state.H[l])
			s[l].CopyFrom(state.S[l])
		}
	}

	// Inference sweep over the recomputable region, time-major: a
	// column's lower-layer output feeds its upper layer immediately, so
	// only the 2·Layers running planes stay live.
	lastLo := boundaries[K-1]
	nextB := 1
	for t := 0; t < lastLo; t++ {
		if nextB < K-1 && t == boundaries[nextB] {
			res.snapshotColumn(nextB, h, s)
			nextB++
		}
		for l := 0; l < cfg.Layers; l++ {
			x := xs[t]
			if l > 0 {
				x = h[l-1]
			}
			oldH, oldS := h[l], s[l]
			h[l], s[l] = lstm.InferenceForward(ws, n.Layer[l], x, oldH, oldS)
			ws.Put(oldS)
			ws.Put(oldH)
		}
		if targets != nil && n.evaluates(t) {
			if err := n.foldLoss(res, h[cfg.Layers-1], t); err != nil {
				return nil, nil, err
			}
		}
	}
	if K > 1 {
		res.snapshotColumn(K-1, h, s)
	}

	// Stored segment: the tail keeps per-cell state for BP.
	sRetained := n.runStoredSegment(res, policy, lastLo, cfg.SeqLen, h, s)
	if targets != nil {
		for t := lastLo; t < cfg.SeqLen; t++ {
			if !n.evaluates(t) {
				continue
			}
			if err := n.foldLoss(res, res.H[cfg.Layers-1][t], t); err != nil {
				return nil, nil, err
			}
		}
	}

	out := &State{H: make([]*tensor.Matrix, cfg.Layers), S: make([]*tensor.Matrix, cfg.Layers)}
	for l := 0; l < cfg.Layers; l++ {
		out.H[l] = h[l].Clone()
		out.S[l] = s[l].Clone()
		// h[l] aliases the segment's last column (BP releases it); s[l]
		// dies here unless a raw cache retains it.
		if !sRetained[l] {
			ws.Put(s[l])
		}
	}
	return res, out, nil
}

// snapshotColumn pins a copy of the running (h,s) column as cols[i].
func (res *ForwardResult) snapshotColumn(i int, h, s []*tensor.Matrix) {
	col := &State{}
	var bytes int64
	for l := range h {
		ch := h[l].Clone()
		cs := s[l].Clone()
		col.H = append(col.H, ch)
		col.S = append(col.S, cs)
		bytes += ch.Bytes() + cs.Bytes()
	}
	res.cols[i] = col
	res.tracker.add(bytes)
}

// runStoredSegment advances the running state over [lo,hi), storing
// each cell into res per policy — the shared FW sweep of the main pass
// and the BP-time segment replay. h/s are owned running buffers and are
// mutated in place; on return each h[l] aliases the segment's last
// column (owned by res.H), and s[l] must be recycled by the caller
// unless the returned sRetained[l] says a raw cache holds it.
func (n *Network) runStoredSegment(res *ForwardResult, policy StoragePolicy, lo, hi int, h, s []*tensor.Matrix) (sRetained []bool) {
	cfg := n.Cfg
	ws := n.Workspace()
	sRetained = make([]bool, cfg.Layers)
	for t := lo; t < hi; t++ {
		for l := 0; l < cfg.Layers; l++ {
			x := res.Inputs[t]
			if l > 0 {
				x = h[l-1]
			}
			oldH, oldS := h[l], s[l]
			store := policy.Store(l, t)
			switch store {
			case StoreRaw:
				var cache *lstm.FWCache
				h[l], s[l], cache = lstm.Forward(ws, n.Layer[l], x, oldH, oldS)
				res.Cache[l][t] = cache
				res.tracker.add(cache.IntermediateBytes())
			case StoreP1:
				var p1 *lstm.P1
				h[l], s[l], p1 = lstm.ForwardWithP1(ws, n.Layer[l], x, oldH, oldS)
				res.P1[l][t] = p1
				res.tracker.add(p1.Bytes())
			case StoreNone:
				h[l], s[l] = lstm.InferenceForward(ws, n.Layer[l], x, oldH, oldS)
			}
			res.H[l][t] = h[l]
			res.tracker.add(h[l].Bytes())
			if store == StoreRaw {
				// The cache retains oldS as SPrev (and, on the segment's
				// first step, oldH as HPrev); both stay live until BP
				// releases the cell.
				sRetained[l] = true
			} else {
				// MS1/inference cells consume their inputs on the spot:
				// the previous cell state dies once this cell has run
				// (unless a raw cache still holds it), and the
				// segment's initial h copy dies after its first cell.
				if !sRetained[l] {
					ws.Put(oldS)
				}
				sRetained[l] = false
				if t == lo {
					ws.Put(oldH)
				}
			}
		}
	}
	return sRetained
}

// recomputeSegment replays FW over segment i from its checkpoint column
// (or the initial state), storing per-cell state per policy — the
// recompute-FW phase. The per-cell kernel spans are suppressed for the
// replay and its whole wall time is folded into PhaseRecomputeFW, so
// recompute cost never inflates the FW/BP-EW rows of a phase breakdown.
func (n *Network) recomputeSegment(res *ForwardResult, i, lo, hi int, policy StoragePolicy) {
	cfg := n.Cfg
	ws := n.Workspace()
	h := make([]*tensor.Matrix, cfg.Layers)
	s := make([]*tensor.Matrix, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		h[l] = ws.Get(cfg.Batch, cfg.Hidden)
		s[l] = ws.Get(cfg.Batch, cfg.Hidden)
		switch {
		case i > 0:
			h[l].CopyFrom(res.cols[i].H[l])
			s[l].CopyFrom(res.cols[i].S[l])
		case res.initState != nil:
			h[l].CopyFrom(res.initState.H[l])
			s[l].CopyFrom(res.initState.S[l])
		}
	}
	rec := ws.Recorder()
	var t0 time.Time
	if rec != nil {
		ws.SetRecorder(nil)
		t0 = time.Now()
	}
	sRetained := n.runStoredSegment(res, policy, lo, hi, h, s)
	if rec != nil {
		ws.SetRecorder(rec)
		rec.Observe(obs.PhaseRecomputeFW, time.Since(t0))
	}
	res.recomputedCells += (hi - lo) * cfg.Layers
	for l := 0; l < cfg.Layers; l++ {
		if !sRetained[l] {
			ws.Put(s[l])
		}
	}
}

// Backward runs BP through time over a ForwardResult (see
// BackwardCheckpointed).
func (n *Network) Backward(res *ForwardResult, policy StoragePolicy, grads *Gradients, opts BackwardOpts) error {
	return n.BackwardCheckpointed(res, policy, grads, opts)
}

// BackwardCheckpointed runs BP through time over a ForwardResult,
// recomputing each earlier segment's per-cell state from its checkpoint
// column as the reverse sweep reaches it. The same policy passed to the
// FW pass must be supplied so the driver knows whether to use raw
// caches, P1 products, or to skip (StoreNone) each cell. Skipping a
// cell breaks the δH/δS chain at that point and propagates no δX to the
// layer below (the paper's "as if performing inference" semantics); the
// convergence-aware scaling that compensates lives in internal/skip.
//
// BP consumes res: as the reverse-time sweep visits each cell it
// releases that cell's cache/P1 set, its stored hidden output and the
// gradients feeding it back to the network's workspace (the in-memory
// analogue of the paper's free-on-consume of intermediates), and
// checkpoint columns go back as their segment finishes. res must not
// be reused. grads must be zero (fresh from NewGradients): the
// FW-accumulated projection gradients are folded in with one exact
// addition.
func (n *Network) BackwardCheckpointed(res *ForwardResult, policy StoragePolicy, grads *Gradients, opts BackwardOpts) error {
	cfg := n.Cfg
	if policy == nil {
		policy = BaselinePolicy()
	}
	if res.Targets == nil {
		return fmt.Errorf("model: backward requires targets (run the forward pass with supervision)")
	}
	projG := res.projG
	if projG == nil {
		return fmt.Errorf("model: forward result already consumed")
	}
	res.projG = nil
	ws := n.Workspace()
	rec := ws.Recorder()
	// cellBuf holds each layer's per-cell gradients for OnCell, zeroed
	// and reused from one cell to the next.
	var cellBuf []*lstm.Grads
	if opts.OnCell != nil {
		for _, p := range n.Layer {
			cellBuf = append(cellBuf, lstm.NewGrads(p))
		}
	}

	// Fold the FW-accumulated projection gradients. grads starts zero,
	// so this addition is exact.
	sp := rec.Begin(obs.PhaseBPMatMul)
	tensor.AddInPlace(grads.Proj, projG)
	for i := range grads.ProjB {
		grads.ProjB[i] += res.projBG[i]
	}
	sp.End()

	K := len(res.Boundaries)
	// δH/δS carries persist across segment boundaries, preserving each
	// layer's global reverse-time accumulation chain.
	dH := make([]*tensor.Matrix, cfg.Layers)
	dS := make([]*tensor.Matrix, cfg.Layers)

	for i := K - 1; i >= 0; i-- {
		lo := res.Boundaries[i]
		hi := cfg.SeqLen
		if i+1 < K {
			hi = res.Boundaries[i+1]
		}
		if i < K-1 {
			n.recomputeSegment(res, i, lo, hi, policy)
		}
		// Every P1 set sees the pre-BP hook (MS1 pruning) once, whether
		// the main FW pass stored it or the replay just regenerated it.
		if opts.OnP1 != nil {
			for l := range res.P1 {
				for t := lo; t < hi; t++ {
					if p1 := res.P1[l][t]; p1 != nil {
						opts.OnP1(l, t, p1)
					}
				}
			}
		}

		// Seed δY from the loss: the dLogits are recomputed from the
		// segment's stored top-layer h (bitwise identical to the values
		// the FW pass folded into the loss) instead of having been stored.
		// dY and dXBelow are indexed t-lo.
		dY := make([]*tensor.Matrix, hi-lo)
		sp := rec.Begin(obs.PhaseBPMatMul)
		for t := lo; t < hi; t++ {
			if !n.evaluates(t) {
				continue
			}
			_, dl, err := n.evalOutput(res.H[cfg.Layers-1][t], res.Targets, t)
			if err != nil {
				sp.End()
				return err
			}
			dY[t-lo] = tensor.MatMulTransB(ws.Get(cfg.Batch, cfg.Hidden), dl, n.Proj)
			res.tracker.add(dY[t-lo].Bytes())
			ws.Put(dl)
		}
		sp.End()

		for l := cfg.Layers - 1; l >= 0; l-- {
			dHl, dSl := dH[l], dS[l]
			dXBelow := make([]*tensor.Matrix, hi-lo)
			for t := hi - 1; t >= lo; t-- {
				j := t - lo
				if policy.Store(l, t) == StoreNone {
					grads.SkippedCells++
					// The chain breaks here: the pending gradients and
					// this cell's stored output die unconsumed.
					res.releaseDelta(dY[j])
					res.tracker.sub(res.H[l][t].Bytes())
					ws.PutAll(dY[j], dHl, dSl, res.H[l][t])
					dY[j], res.H[l][t] = nil, nil
					dHl, dSl = nil, nil
					continue
				}
				grads.ExecutedCells++
				in := lstm.BPInput{DY: dY[j], DH: dHl, DS: dSl}

				target := grads.Layer[l]
				var cellGrads *lstm.Grads
				if opts.OnCell != nil {
					cellGrads = cellBuf[l]
					cellGrads.Zero()
					target = cellGrads
				}

				var out lstm.BPOutput
				switch {
				case res.Cache[l][t] != nil:
					res.tracker.sub(res.Cache[l][t].IntermediateBytes())
					out = lstm.Backward(ws, n.Layer[l], target, res.Cache[l][t], in)
					res.Cache[l][t].Release(ws)
					res.Cache[l][t] = nil
				case res.P1[l][t] != nil:
					x := res.Inputs[t]
					if l > 0 {
						x = res.H[l-1][t]
					}
					// hPrev on the segment's first step comes from the
					// checkpoint column or the carried-in state; zeroH is
					// only drawn for the zero-start first timestamp (a
					// carried-in state belongs to the caller and must not
					// be recycled).
					var hPrev, zeroH *tensor.Matrix
					switch {
					case t > lo:
						hPrev = res.H[l][t-1]
					case i > 0:
						hPrev = res.cols[i].H[l]
					case res.initState != nil:
						hPrev = res.initState.H[l]
					default:
						zeroH = ws.Get(cfg.Batch, cfg.Hidden)
						hPrev = zeroH
					}
					res.tracker.sub(res.P1[l][t].Bytes())
					out = opts.backwardFromP1(ws, n.Layer[l], target, x, hPrev, res.P1[l][t], in)
					ws.Put(zeroH)
					res.P1[l][t].Release(ws)
					res.P1[l][t] = nil
				default:
					return fmt.Errorf("model: cell (%d,%d) has no stored state but policy says execute", l, t)
				}

				if opts.OnCell != nil {
					opts.OnCell(l, t, cellGrads)
					grads.Layer[l].Add(cellGrads)
				}
				// Release-on-consume: this cell was the last reader of
				// its incoming gradients and of its own stored output.
				res.releaseDelta(dY[j])
				res.tracker.sub(res.H[l][t].Bytes())
				ws.PutAll(dY[j], dHl, dSl, res.H[l][t])
				dY[j], res.H[l][t] = nil, nil
				dHl, dSl = out.DHPrev, out.DSPrev
				dXBelow[j] = out.DX
				res.tracker.add(out.DX.Bytes())
			}
			dH[l], dS[l] = dHl, dSl
			dY = dXBelow
		}
		for _, d := range dY {
			res.releaseDelta(d)
			ws.Put(d)
		}
		if i > 0 {
			col := res.cols[i]
			for l := range col.H {
				res.tracker.sub(col.H[l].Bytes() + col.S[l].Bytes())
			}
			ws.PutAll(col.H...)
			ws.PutAll(col.S...)
			res.cols[i] = nil
		}
	}
	// Gradients flowing past t=0 into the previous chunk are discarded
	// (truncated BPTT).
	for l := 0; l < cfg.Layers; l++ {
		ws.PutAll(dH[l], dS[l])
	}
	res.tracker.sub(projG.Bytes() + int64(len(res.projBG))*4)
	ws.Put(projG)
	return nil
}

// releaseDelta discounts a δ plane from the stored-bytes tracker.
func (res *ForwardResult) releaseDelta(d *tensor.Matrix) {
	if d != nil {
		res.tracker.sub(d.Bytes())
	}
}
