// Package lstm implements the LSTM cell used by the training substrate:
// forward propagation, baseline backpropagation, and the reordered
// BP-EW-P1/P2 split that η-LSTM's MS1 optimization exploits.
//
// Conventions. All batch data is batch-major: a batch×H matrix holds one
// sample per row. A cell has four gates indexed by GateF..GateO; each
// gate g owns an input weight W[g] (input×H), a recurrent weight U[g]
// (H×H) and a bias B[g] (len H). The gate pre-activation for gate g is
//
//	raw_g = x·W_g + h_{t-1}·U_g + b_g            (paper Eq. 1)
//
// followed by sigmoid for f, i, o and tanh for the cell gate c̃.
package lstm

import (
	"fmt"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// Gate indexes the four LSTM gates.
type Gate int

// The four gates of an LSTM cell.
const (
	GateF Gate = iota // forget gate (sigmoid)
	GateI             // input gate (sigmoid)
	GateC             // cell/candidate gate (tanh)
	GateO             // output gate (sigmoid)
	NumGates
)

// String implements fmt.Stringer.
func (g Gate) String() string {
	switch g {
	case GateF:
		return "f"
	case GateI:
		return "i"
	case GateC:
		return "c"
	case GateO:
		return "o"
	}
	return fmt.Sprintf("Gate(%d)", int(g))
}

// Params holds the weights of one LSTM layer. All unrolled cells of the
// layer share a single Params (the paper's weight-sharing across
// timestamps).
type Params struct {
	Input  int // input feature width
	Hidden int // hidden state width

	W [NumGates]*tensor.Matrix // Input×Hidden
	U [NumGates]*tensor.Matrix // Hidden×Hidden
	B [NumGates][]float32      // len Hidden
}

// LayerLen returns how many float32 values one layer's W, U and B
// take: 4 gates × (input·hidden + hidden·hidden + hidden).
func LayerLen(input, hidden int) int {
	return int(NumGates) * (input*hidden + hidden*hidden + hidden)
}

// carve lays a layer's weights out over buf (len LayerLen) as views, in
// checkpoint payload order: per gate W, U, B.
func carve(buf []float32, input, hidden int) (w, u [NumGates]*tensor.Matrix, b [NumGates][]float32) {
	if len(buf) != LayerLen(input, hidden) {
		panic(fmt.Sprintf("lstm: %d-value buffer for a %d×%d layer of %d", len(buf), input, hidden, LayerLen(input, hidden)))
	}
	take := func(n int) []float32 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	for g := Gate(0); g < NumGates; g++ {
		w[g] = tensor.NewFromData(input, hidden, take(input*hidden))
		u[g] = tensor.NewFromData(hidden, hidden, take(hidden*hidden))
		b[g] = take(hidden)
	}
	return w, u, b
}

// NewParamsOn returns a layer's parameters as views of buf, which must
// hold LayerLen(input, hidden) values; writes through either reach the
// other. A network carves every layer from its one parameter vector.
func NewParamsOn(buf []float32, input, hidden int) *Params {
	p := &Params{Input: input, Hidden: hidden}
	p.W, p.U, p.B = carve(buf, input, hidden)
	return p
}

// Init fills the parameters with the standard LSTM initialization:
// Xavier-uniform weights and a +1 forget-gate bias (helps gradient flow
// on long sequences).
func (p *Params) Init(r *rng.RNG) {
	for g := Gate(0); g < NumGates; g++ {
		p.W[g].XavierInit(r, p.Input, p.Hidden)
		p.U[g].XavierInit(r, p.Hidden, p.Hidden)
		for j := range p.B[g] {
			p.B[g][j] = 0
		}
	}
	for j := range p.B[GateF] {
		p.B[GateF][j] = 1
	}
}

// Grads accumulates weight gradients for one layer across its unrolled
// BP cells (paper Eq. 3's "+=" accumulation).
type Grads struct {
	Input  int
	Hidden int

	W [NumGates]*tensor.Matrix
	U [NumGates]*tensor.Matrix
	B [NumGates][]float32
}

// NewGradsOn returns a layer's gradients as views of buf, laid out as
// NewParamsOn lays out parameters.
func NewGradsOn(buf []float32, input, hidden int) *Grads {
	g := &Grads{Input: input, Hidden: hidden}
	g.W, g.U, g.B = carve(buf, input, hidden)
	return g
}

// NewGrads allocates zeroed gradients matching p's shapes.
func NewGrads(p *Params) *Grads {
	return NewGradsOn(make([]float32, LayerLen(p.Input, p.Hidden)), p.Input, p.Hidden)
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for i := Gate(0); i < NumGates; i++ {
		g.W[i].Zero()
		g.U[i].Zero()
		for j := range g.B[i] {
			g.B[i][j] = 0
		}
	}
}

// Scale multiplies every gradient by s (MS2's convergence-aware
// scaling factor applies through this).
func (g *Grads) Scale(s float32) {
	for i := Gate(0); i < NumGates; i++ {
		tensor.Scale(g.W[i], g.W[i], s)
		tensor.Scale(g.U[i], g.U[i], s)
		for j := range g.B[i] {
			g.B[i][j] *= s
		}
	}
}

// Add accumulates o into g.
func (g *Grads) Add(o *Grads) {
	for i := Gate(0); i < NumGates; i++ {
		tensor.AddInPlace(g.W[i], o.W[i])
		tensor.AddInPlace(g.U[i], o.U[i])
		for j := range g.B[i] {
			g.B[i][j] += o.B[i][j]
		}
	}
}

// AbsSum returns Σ|δW|+|δU| — the gradient "magnitude" of paper Fig. 8.
func (g *Grads) AbsSum() float64 {
	var s float64
	for i := Gate(0); i < NumGates; i++ {
		s += g.W[i].AbsSum() + g.U[i].AbsSum()
	}
	return s
}
