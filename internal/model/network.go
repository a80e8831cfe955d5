package model

import (
	"fmt"
	"math"
	"math/bits"

	"etalstm/internal/lstm"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// Network is a stacked LSTM with a linear output projection. Layer 0
// consumes the external inputs; layer l>0 consumes layer l-1's hidden
// outputs. All unrolled cells of a layer share one lstm.Params.
//
// Every weight lives in one vector (Params); Layer, Proj and ProjB are
// views of it, so a write through either reaches the other.
type Network struct {
	Cfg Config

	Layer []*lstm.Params // len Cfg.Layers
	Proj  *tensor.Matrix // Hidden×OutSize
	ProjB []float32      // len OutSize

	params []float32

	// ws recycles FW/BP scratch across sequences (see Workspace). It
	// makes the network single-goroutine for forward/backward passes:
	// concurrent training uses one Clone per worker, never a shared
	// Network.
	ws *tensor.Workspace
	// wsOff forces Workspace() to return nil, making every FW/BP pass
	// allocate fresh buffers. See DisableWorkspace.
	wsOff bool
}

// Workspace returns the network's scratch arena, creating it on first
// use. Every FW pass draws its per-sequence buffers from it and the BP
// pass returns them as the reverse sweep consumes them, so steady-state
// training reuses the same storage batch after batch. A Clone starts
// with a fresh workspace of its own — that per-replica confinement is
// what keeps the trainer's concurrent replicas race-free.
func (n *Network) Workspace() *tensor.Workspace {
	if n.wsOff {
		return nil
	}
	if n.ws == nil {
		n.ws = tensor.NewWorkspace()
	}
	return n.ws
}

// DisableWorkspace makes the network run FW/BP without a scratch arena:
// Workspace() returns nil, which every kernel accepts (Get degrades to
// a plain allocation, Put to a no-op). The buffer-recycling contract
// promises this changes allocation behaviour only, never the math — the
// differential harness (internal/check) runs the same scenario with the
// arena on and off and asserts bitwise-identical results.
func (n *Network) DisableWorkspace() {
	n.wsOff = true
	n.ws = nil
}

// NewNetwork builds a network with initialized weights.
func NewNetwork(cfg Config, r *rng.RNG) (*Network, error) {
	n, err := Alloc(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range n.Layer {
		p.Init(r)
	}
	n.Proj.XavierInit(r, cfg.Hidden, cfg.OutSize)
	return n, nil
}

// Alloc builds a network of cfg's geometry with every weight zero —
// the storage NewNetwork initializes and a checkpoint decoder fills.
func Alloc(cfg Config) (*Network, error) {
	if err := cfg.checkAlloc(); err != nil {
		return nil, err
	}
	return alloc(cfg), nil
}

// alloc is Alloc for a cfg that checkAlloc accepts.
func alloc(cfg Config) *Network {
	count, _ := cfg.ParamCount()
	n := &Network{Cfg: cfg, params: make([]float32, count)}
	n.Layer, n.Proj, n.ProjB = carve(cfg, n.params, lstm.NewParamsOn)
	return n
}

// Params returns the vector every weight lives in, in checkpoint
// payload order: per layer, per gate W, U, B; then Proj and ProjB.
func (n *Network) Params() []float32 { return n.params }

// ParamCount returns how many weights a network of c's geometry has:
// per layer 4 gates × (in·H + H·H + H), in being InputSize for layer 0
// and H above it, then H·Out + Out for the projection. ok is false when
// the count does not fit in an int, which a checkpoint header can claim;
// Alloc and NewGradientsFor reject such a geometry, and persist checks a
// header's payload length against the count before allocating.
func (c Config) ParamCount() (n int, ok bool) {
	ok = true
	mul := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		ok = ok && hi == 0
		return lo
	}
	add := func(a, b uint64) uint64 {
		sum, carry := bits.Add64(a, b, 0)
		ok = ok && carry == 0
		return sum
	}
	in, h := uint64(c.InputSize), uint64(c.Hidden)
	layers, out := uint64(c.Layers), uint64(c.OutSize)
	gates := uint64(lstm.NumGates)
	first := mul(mul(gates, h), add(add(in, h), 1))
	upper := mul(mul(layers-1, mul(gates, h)), add(mul(2, h), 1))
	proj := mul(out, add(h, 1))
	count := add(add(first, upper), proj)
	return int(count), ok && count <= math.MaxInt
}

// checkAlloc reports why a network or gradient set of c's geometry
// cannot be allocated: c is invalid, or its weights overflow an int.
func (c Config) checkAlloc() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, ok := c.ParamCount(); !ok {
		return fmt.Errorf("model: %+v has more weights than an int can count", c)
	}
	return nil
}

// layerInput returns layer l's input width: the external inputs for
// layer 0, the layer below's hidden outputs above it.
func (c Config) layerInput(l int) int {
	if l == 0 {
		return c.InputSize
	}
	return c.Hidden
}

// carve lays cfg's layers (made by on), projection and projection bias
// out over vec, which holds cfg.ParamCount() values, in payload order.
// Networks carve their weights with it and Gradients their gradients,
// so the two share one layout.
func carve[L any](cfg Config, vec []float32, on func(buf []float32, input, hidden int) L) ([]L, *tensor.Matrix, []float32) {
	layers := make([]L, cfg.Layers)
	for l := range layers {
		n := lstm.LayerLen(cfg.layerInput(l), cfg.Hidden)
		layers[l] = on(vec[:n:n], cfg.layerInput(l), cfg.Hidden)
		vec = vec[n:]
	}
	n := cfg.Hidden * cfg.OutSize
	return layers, tensor.NewFromData(cfg.Hidden, cfg.OutSize, vec[:n:n]), vec[n:]
}

// Clone returns a deep copy of n: same geometry, independent parameter
// storage. Data-parallel replicas are built from clones so concurrent
// FW/BP passes never share mutable weight memory with the master.
func (n *Network) Clone() *Network {
	c := alloc(n.Cfg)
	copy(c.params, n.params)
	return c
}

// CopyWeightsFrom overwrites n's parameters with src's. Both networks
// must share the same geometry (typically n is a Clone of src). This is
// the replica re-synchronization step after each data-parallel
// optimizer step.
func (n *Network) CopyWeightsFrom(src *Network) error {
	if n.Cfg != src.Cfg {
		return fmt.Errorf("model: CopyWeightsFrom geometry mismatch: %+v vs %+v", n.Cfg, src.Cfg)
	}
	copy(n.params, src.params)
	return nil
}

// ParamBytes returns total parameter storage (weight matrices +
// projection), the "Parameter" bar of paper Fig. 5.
func (n *Network) ParamBytes() int64 { return int64(len(n.params)) * 4 }

// Targets carries supervision for one minibatch. Exactly one of the
// fields is consulted, selected by Config.Loss:
//   - SingleLoss: Classes[SeqLen-1] (other timesteps ignored);
//   - PerTimestampLoss: Classes[t] for every t;
//   - RegressionLoss: Regress[t] for every t.
//
// A class of -1 masks that sample/timestep out of the loss.
type Targets struct {
	Classes [][]int          // [t][batch]
	Regress []*tensor.Matrix // [t], each batch×OutSize
}

// Gradients collects the result of one BP pass. Like a Network's
// weights, every gradient lives in one vector (Vec) laid out as
// Network.Params, and Layer, Proj and ProjB are views of it.
type Gradients struct {
	Layer []*lstm.Grads  // per layer, accumulated over timestamps
	Proj  *tensor.Matrix // Hidden×OutSize
	ProjB []float32
	// SkippedCells counts BP cells the policy skipped (MS2).
	SkippedCells int
	// ExecutedCells counts BP cells actually run.
	ExecutedCells int

	cfg Config
	vec []float32
}

// NewGradients allocates zeroed gradients for n.
func (n *Network) NewGradients() *Gradients { return newGradients(n.Cfg) }

// NewGradientsFor allocates zeroed gradients shaped for cfg without
// building a network — the decode template the distributed gradient
// transports use (a coordinator merges gradients it never trains with).
func NewGradientsFor(cfg Config) (*Gradients, error) {
	if err := cfg.checkAlloc(); err != nil {
		return nil, err
	}
	return newGradients(cfg), nil
}

// newGradients allocates zeroed gradients for a cfg that checkAlloc
// accepts.
func newGradients(cfg Config) *Gradients {
	count, _ := cfg.ParamCount()
	g := &Gradients{cfg: cfg, vec: make([]float32, count)}
	g.Layer, g.Proj, g.ProjB = carve(cfg, g.vec, lstm.NewGradsOn)
	return g
}

// Zero clears every gradient and both cell counters, so g can take
// the next BP pass.
func (g *Gradients) Zero() {
	clear(g.vec)
	g.SkippedCells, g.ExecutedCells = 0, 0
}

// Vec returns the vector every gradient lives in, in the order of
// Network.Params, so the i-th gradient belongs to the i-th weight.
func (g *Gradients) Vec() []float32 { return g.vec }

// Add accumulates o into g (shapes must match). The skip/execute
// counters sum as well, so a merged gradient set reports the combined
// BP-cell accounting of its contributors. This is the element step of
// the data-parallel tree all-reduce.
func (g *Gradients) Add(o *Gradients) {
	if len(o.vec) != len(g.vec) {
		panic(fmt.Sprintf("model: Gradients.Add of %d values into %d", len(o.vec), len(g.vec)))
	}
	for i, x := range o.vec {
		g.vec[i] += x
	}
	g.SkippedCells += o.SkippedCells
	g.ExecutedCells += o.ExecutedCells
}

// Clone returns a deep copy of g — same values, independent storage.
// The equivalence harness snapshots merged gradients with it before a
// reducer mutates them in place.
func (g *Gradients) Clone() *Gradients {
	c := newGradients(g.cfg)
	copy(c.vec, g.vec)
	c.SkippedCells, c.ExecutedCells = g.SkippedCells, g.ExecutedCells
	return c
}

// Scale multiplies every gradient entry by s (replica averaging after
// an all-reduce; the cell counters are left untouched).
func (g *Gradients) Scale(s float32) {
	for i := range g.vec {
		g.vec[i] *= s
	}
}

// BackwardOpts tunes the BP pass.
type BackwardOpts struct {
	// OnCell, when non-nil, receives each executed BP cell's own weight
	// gradients before they are merged into the layer total. Used to
	// collect the per-timestamp magnitudes of paper Fig. 8. Costs one
	// extra Grads per layer, which the layer's next cell zeroes and
	// reuses, so the hook must not keep cell past its return.
	OnCell func(layer, t int, cell *lstm.Grads)

	// OnP1, when non-nil, is invoked once for every P1 set the BP pass
	// consumes, before the reverse sweep reaches it — the stored last
	// segment's sets (every set under full storage) and each recomputed
	// segment's sets right after its replay. It is the hook MS1's
	// near-zero pruning uses, so every plan sees the same compressed
	// products.
	OnP1 func(layer, t int, p1 *lstm.P1)

	// SparseBP routes every P1-based BP cell through the pair-driven
	// sparse kernels (lstm.BackwardFromP1Sparse): BP-EW-P2 touches only
	// the pairs that survived pruning and BP-MatMul gathers over each
	// gate's surviving columns. On an unpruned P1 set this changes
	// nothing (bitwise); on a pruned set it converts MS1's storage
	// saving into compute saving. Cells stored as raw caches are
	// unaffected.
	SparseBP bool

	// TopK, when positive and SparseBP is set, additionally caps each
	// batch row of the weight-gradient MatMuls to its TopK
	// largest-|δgate| columns (structurally sparsified backward
	// propagation, Zhu et al. arXiv:1806.00512). Propagated gradients
	// always use the full pattern. TopK ≥ hidden is the identity.
	TopK int
}

// backwardFromP1 dispatches one P1-based BP cell to the dense or sparse
// kernel per opts.
func (opts BackwardOpts) backwardFromP1(ws *tensor.Workspace, p *lstm.Params, grads *lstm.Grads, x, hPrev *tensor.Matrix, p1 *lstm.P1, in lstm.BPInput) lstm.BPOutput {
	if opts.SparseBP {
		return lstm.BackwardFromP1Sparse(ws, p, grads, x, hPrev, p1, in, opts.TopK)
	}
	return lstm.BackwardFromP1(ws, p, grads, x, hPrev, p1, in)
}
