package model

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"etalstm/internal/lstm"
	"etalstm/internal/obs"
	"etalstm/internal/tensor"
)

// VecState is the recurrent state of a single sample: one h and one s
// row per layer, each of length Cfg.Hidden. It is the serving-side
// analogue of State (which carries batch×hidden matrices for truncated
// BPTT): a streaming session holds one VecState and threads it through
// successive InferBatch calls so the model sees one long sequence.
type VecState struct {
	H [][]float32 // per layer, len Hidden
	S [][]float32
}

// InferSeq is one inference request: a variable-length input sequence
// and an optional carried-in state (nil = zero start). Sequences in one
// InferBatch call may have different lengths.
type InferSeq struct {
	Inputs [][]float32 // len >= 1 timesteps, each of len Cfg.InputSize
	State  *VecState
}

// InferOut is the result for one InferSeq: the projected output at the
// sequence's final timestep and the carried-out recurrent state (always
// freshly allocated — it never aliases the request's State).
type InferOut struct {
	Output []float32 // len Cfg.OutSize
	State  *VecState
}

// CheckInferSeq validates one request against the network's geometry
// without running it: non-empty sequence, input width, and (when a
// state is carried in) state layer count and width. Serving layers call
// it per request so one malformed request fails alone instead of
// failing the whole micro-batch it would have joined.
func (n *Network) CheckInferSeq(seq InferSeq) error {
	cfg := n.Cfg
	if len(seq.Inputs) == 0 {
		return fmt.Errorf("model: empty input sequence")
	}
	for t, x := range seq.Inputs {
		if len(x) != cfg.InputSize {
			return fmt.Errorf("model: input step %d has width %d, want %d", t, len(x), cfg.InputSize)
		}
	}
	if st := seq.State; st != nil {
		if len(st.H) != cfg.Layers || len(st.S) != cfg.Layers {
			return fmt.Errorf("model: state has %d/%d layers, want %d", len(st.H), len(st.S), cfg.Layers)
		}
		for l := 0; l < cfg.Layers; l++ {
			if len(st.H[l]) != cfg.Hidden || len(st.S[l]) != cfg.Hidden {
				return fmt.Errorf("model: state layer %d is %d/%d wide, want %d",
					l, len(st.H[l]), len(st.S[l]), cfg.Hidden)
			}
		}
	}
	return nil
}

// rowPrefix views the first rows rows of m without copying. Views are
// read-only borrows: they are never handed back to a workspace (only
// their owning matrix is).
func rowPrefix(m *tensor.Matrix, rows int) *tensor.Matrix {
	if rows == m.Rows {
		return m
	}
	return &tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// InferBatch runs one inference-only forward sweep over a batch of
// independent variable-length sequences, packed so every timestep's
// cell call is a single dense batched kernel. Requests are sorted by
// length (descending) into the batch rows; as shorter sequences finish,
// the active row count shrinks and later timesteps run on a prefix of
// the batch — no masking, no wasted compute on finished rows. Each
// sample's final h/s rows are extracted at its own last timestep, and
// the output projection runs once over all final hidden rows.
//
// The cells form a (layer, timestep) grid in which cell (l, t) needs
// only (l−1, t) and (l, t−1), so the layers run as a wavefront: when
// the sweep is large enough for the kernels to fan out
// (tensor.SerialWork) and the network has more than one layer, each
// layer runs on its own goroutine with its own stage arena
// (ws.Stage(l)) and starts cell t as soon as the layer below has
// published h_t. Otherwise the same loop runs the layers in order on
// the caller. Every cell's arithmetic is the same either way, so the
// results are bitwise identical.
//
// The batch dimension here is the number of requests, independent of
// Cfg.Batch, and sequence lengths are independent of Cfg.SeqLen — the
// serving path is not tied to the training geometry.
//
// ws supplies scratch (nil = plain allocation). InferBatch only reads
// the network's weights, so concurrent calls on one Network are safe as
// long as each caller brings its own workspace — that is how the
// serving worker pool shares one checkpoint across goroutines without
// cloning weights. A panic in any layer is re-raised on the caller's
// goroutine once every layer has stopped.
//
// Results are returned in request order.
func (n *Network) InferBatch(ws *tensor.Workspace, reqs []InferSeq) ([]InferOut, error) {
	cfg := n.Cfg
	if len(reqs) == 0 {
		return nil, nil
	}
	for i := range reqs {
		if err := n.CheckInferSeq(reqs[i]); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}

	// Row assignment: longest sequence first, so the rows active at any
	// timestep are exactly a prefix. The sort is stable in effect (ties
	// keep request order) to make packing deterministic.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(reqs[order[a]].Inputs) > len(reqs[order[b]].Inputs)
	})
	maxLen := len(reqs[order[0]].Inputs)

	// act[t] = rows still running at timestep t (a prefix of the batch).
	cnt := make([]int, maxLen+2)
	rowSteps := 0
	for i := range reqs {
		cnt[len(reqs[i].Inputs)]++
		rowSteps += len(reqs[i].Inputs)
	}
	act := make([]int, maxLen+1)
	running := len(reqs)
	for t := 0; t < maxLen; t++ {
		act[t] = running
		running -= cnt[t+1]
	}

	// Carried-out states are allocated as one backing block per request
	// (not per vector): serving allocates a fresh state on every request,
	// so the constant count here is squarely on the hot path. A shared
	// whole-batch block would be smaller still, but states escape into
	// sessions with unbounded lifetimes and must not pin each other.
	outs := make([]InferOut, len(reqs))
	states := make([]VecState, len(reqs))
	for i := range outs {
		st := &states[i]
		rows := make([][]float32, 2*cfg.Layers)
		backing := make([]float32, 2*cfg.Layers*cfg.Hidden)
		for l := range rows {
			rows[l] = backing[l*cfg.Hidden : (l+1)*cfg.Hidden : (l+1)*cfg.Hidden]
		}
		st.H, st.S = rows[:cfg.Layers], rows[cfg.Layers:]
		outs[i].State = st
	}

	var macs int64
	for l := 0; l < cfg.Layers; l++ {
		macs += lstm.ForwardOps(n.Layer[l].Input, cfg.Hidden, rowSteps).MatMulMACs
	}
	sw := &inferSweep{net: n, reqs: reqs, order: order, act: act[:maxLen], outs: outs,
		lanes: make([]layerLane, cfg.Layers)}
	sw.run(ws, cfg.Layers > 1 && !tensor.SerialWork(macs))

	// One batched projection over every sample's final top-layer hidden
	// row (already extracted into the per-request states above).
	top := cfg.Layers - 1
	finalH := ws.Get(len(reqs), cfg.Hidden)
	for i := range reqs {
		copy(finalH.Row(i), outs[i].State.H[top])
	}
	logits := tensor.MatMul(ws.Get(len(reqs), cfg.OutSize), finalH, n.Proj)
	tensor.AddRowVector(logits, logits, n.ProjB)
	// One backing block for every output row; a few tens of floats, so
	// one surviving Result pinning its batch-mates' rows is harmless.
	outBlock := make([]float32, len(reqs)*cfg.OutSize)
	copy(outBlock, logits.Data)
	for i := range outs {
		outs[i].Output = outBlock[i*cfg.OutSize : (i+1)*cfg.OutSize : (i+1)*cfg.OutSize]
	}
	ws.PutAll(finalH, logits)
	return outs, nil
}

// inferSweep is one InferBatch call's (layer, timestep) grid: the packed
// rows shared read-only by every layer, and one lane per layer.
type inferSweep struct {
	net   *Network
	reqs  []InferSeq
	order []int // batch row -> request index, longest first
	act   []int // act[t] = rows still running at timestep t
	outs  []InferOut
	lanes []layerLane
	// abort tells waiting layers that a layer below them panicked.
	abort atomic.Bool
}

// layerLane is one layer's row of the grid.
type layerLane struct {
	ws    *tensor.Workspace
	hs    []*tensor.Matrix // h_t this layer produced; nil once handed back
	freed int              // hs[:freed] are back in ws
	// done counts the timesteps whose h_t the layer above may read.
	done atomic.Int64
	// waiting and wake park the layer above while done lags behind it.
	waiting atomic.Bool
	wake    chan struct{}
	// panicked holds what the layer panicked with, for the caller to
	// re-raise after the join.
	panicked any
}

// awaitSpins is how many times a layer yields, waiting for the layer
// below to publish a timestep, before it parks. Parking and waking a
// goroutine costs more than a short yield loop, so a layer that is only
// just ahead of the one below yields first.
const awaitSpins = 64

// run computes every cell of the grid. pipelined runs every layer on
// its own stage arena: the top layer on the caller, each other one on a
// helper goroutine. Otherwise the same loop runs the layers in order on
// the caller, on ws. Either way a panic in any layer is re-raised here
// once every layer has stopped.
func (sw *inferSweep) run(ws *tensor.Workspace, pipelined bool) {
	maxLen := len(sw.act)
	hs := make([]*tensor.Matrix, len(sw.lanes)*maxLen)
	for l := range sw.lanes {
		ln := &sw.lanes[l]
		ln.hs = hs[l*maxLen : (l+1)*maxLen : (l+1)*maxLen]
		ln.ws = ws
		if pipelined {
			ln.ws = ws.Stage(l)
			ln.wake = make(chan struct{}, 1)
		}
	}
	// Stage arenas carry no recorder: a pipelined sweep records one FW
	// phase, the wall time of its layer loop, on the caller's recorder.
	var sp obs.Span
	if pipelined {
		sp = ws.Recorder().Begin(obs.PhaseFW)
	}
	var wg sync.WaitGroup
	top := len(sw.lanes) - 1
	for l := range sw.lanes {
		if pipelined && l < top {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw.runLayer(l)
			}()
			continue
		}
		sw.runLayer(l)
		if !pipelined && l > 0 {
			// The layer below has run to completion on this goroutine
			// and this one has read all of its h: hand them back now,
			// so at most two layers' h buffers are live at a time.
			sw.lanes[l-1].recycle(maxLen)
		}
	}
	wg.Wait()
	sp.End()
	for l := range sw.lanes {
		if p := sw.lanes[l].panicked; p != nil {
			panic(p)
		}
	}
	for l := range sw.lanes {
		sw.lanes[l].recycle(maxLen)
	}
}

// runLayer computes layer l's cells in timestep order. Cell (l, t)
// reads h_t of the layer below and this layer's own (h, s) at t−1, so
// it waits for nothing but the layer below publishing step t.
func (sw *inferSweep) runLayer(l int) {
	ln := &sw.lanes[l]
	defer func() {
		if r := recover(); r != nil {
			ln.panicked = r
			sw.abort.Store(true)
		}
		// Whatever stopped this layer, the layer above must not stay
		// parked on it.
		ln.signal()
	}()
	cfg := sw.net.Cfg
	ws := ln.ws
	var below, above *layerLane
	if l > 0 {
		below = &sw.lanes[l-1]
	}
	if l+1 < len(sw.lanes) {
		above = &sw.lanes[l+1]
	}
	hOwner := ws.Get(len(sw.reqs), cfg.Hidden)
	sOwner := ws.Get(len(sw.reqs), cfg.Hidden)
	for row, idx := range sw.order {
		if st := sw.reqs[idx].State; st != nil {
			copy(hOwner.Row(row), st.H[l])
			copy(sOwner.Row(row), st.S[l])
		}
	}
	maxLen := len(sw.act)
	for t := 0; t < maxLen; t++ {
		active := sw.act[t]
		var x *tensor.Matrix
		if below == nil {
			x = ws.Get(active, cfg.InputSize)
			for row := 0; row < active; row++ {
				copy(x.Row(row), sw.reqs[sw.order[row]].Inputs[t])
			}
		} else {
			if !sw.await(below, t) {
				return
			}
			x = below.hs[t]
		}
		hNew, sNew := lstm.InferenceForward(ws, sw.net.Layer[l],
			x, rowPrefix(hOwner, active), rowPrefix(sOwner, active))
		if below == nil {
			ws.Put(x)
		}
		// Rows finishing at this timestep carry their state out.
		next := 0
		if t+1 < maxLen {
			next = sw.act[t+1]
		}
		for row := next; row < active; row++ {
			idx := sw.order[row]
			copy(sw.outs[idx].State.H[l], hNew.Row(row))
			copy(sw.outs[idx].State.S[l], sNew.Row(row))
		}
		// The consumed h: at t == 0 it is the carried-in copy (dies
		// now); at t > 0 it is hs[t-1], which the layer above may still
		// read (recycled below). The consumed s dies either way —
		// finished rows were extracted at their own step.
		if t == 0 {
			ws.Put(hOwner)
		}
		ws.Put(sOwner)
		hOwner, sOwner = hNew, sNew
		ln.hs[t] = hNew
		ln.done.Store(int64(t + 1))
		ln.signal()
		// h_{t'} is dead once this layer has moved past t' and the
		// layer above has read it.
		keep := t
		if above != nil {
			keep = min(keep, int(above.done.Load()))
		}
		ln.recycle(keep)
	}
	ws.Put(sOwner)
}

// await blocks until below has published timestep t. It returns false
// when the sweep is aborting instead: a layer panicked, and below may
// never publish t.
func (sw *inferSweep) await(below *layerLane, t int) bool {
	for spin := 0; below.done.Load() <= int64(t); spin++ {
		if sw.abort.Load() {
			return false
		}
		if spin < awaitSpins {
			runtime.Gosched()
			continue
		}
		// Park. signal runs after every publish and on every exit, and
		// it wakes a waiter whose flag it observes; the re-check after
		// raising the flag closes the window in between.
		below.waiting.Store(true)
		if below.done.Load() <= int64(t) && !sw.abort.Load() {
			<-below.wake
		}
	}
	return true
}

// signal wakes the layer above if it is parked on this lane. The send
// never blocks: a token already buffered wakes the waiter just as well.
func (ln *layerLane) signal() {
	if ln.waiting.Swap(false) {
		select {
		case ln.wake <- struct{}{}:
		default:
		}
	}
}

// recycle hands hs[freed:upto] back to the lane's arena. Only the
// goroutine running the lane calls it while the sweep runs.
func (ln *layerLane) recycle(upto int) {
	for ; ln.freed < upto; ln.freed++ {
		ln.ws.Put(ln.hs[ln.freed])
		ln.hs[ln.freed] = nil
	}
}
