// Package check is the differential-correctness harness: a deliberately
// naive float64 reference LSTM that serves as ground truth, a central
// finite-difference gradient checker, and an equivalence engine that
// runs one training scenario through every optimized execution path
// (serial/parallel workers, arena/nil workspace, raw/P1 storage,
// pruning and skipping) and bounds how far each is allowed to diverge.
//
// The trust chain has two links, each independently verifiable:
//
//  1. the reference's analytic gradients are validated against central
//     finite differences of its own loss (pure float64, tight bounds);
//  2. the optimized float32 paths (model.Network Forward/Backward, the
//     P1-reordered flow, the data-parallel engine) are validated
//     against the reference, and against each other in ULPs.
//
// Every routine here favours obviousness over speed: plain loops, no
// workspace, no reordering, no shared buffers. Nothing in this package
// may be called from production code — it exists so that every future
// performance PR has an oracle to run against.
package check

import (
	"fmt"
	"math"

	"etalstm/internal/lstm"
	"etalstm/internal/model"
)

// mat64 is a dense row-major float64 matrix — the only data structure
// the reference uses.
type mat64 struct {
	rows, cols int
	v          []float64
}

func newMat64(rows, cols int) *mat64 {
	return &mat64{rows: rows, cols: cols, v: make([]float64, rows*cols)}
}

func (m *mat64) at(i, j int) float64     { return m.v[i*m.cols+j] }
func (m *mat64) set(i, j int, x float64) { m.v[i*m.cols+j] = x }

// Ref is the naive float64 reference network: a deep copy of a
// model.Network's weights, widened to float64, with loop-only FW, BP
// and loss. It is the oracle the optimized float32 paths are checked
// against.
type Ref struct {
	Cfg model.Config

	// Per layer, per gate: W [in×hidden], U [hidden×hidden], B [hidden].
	W, U [][lstm.NumGates]*mat64
	B    [][lstm.NumGates][]float64

	Proj  *mat64 // hidden×out
	ProjB []float64
}

// RefGrads holds the reference's analytic gradients, mirroring the
// parameter layout.
type RefGrads struct {
	W, U  [][lstm.NumGates]*mat64
	B     [][lstm.NumGates][]float64
	Proj  *mat64
	ProjB []float64
}

// NewRef copies net's weights into a float64 reference.
func NewRef(net *model.Network) *Ref {
	cfg := net.Cfg
	r := &Ref{Cfg: cfg, ProjB: make([]float64, cfg.OutSize)}
	for l := 0; l < cfg.Layers; l++ {
		p := net.Layer[l]
		var w, u [lstm.NumGates]*mat64
		var b [lstm.NumGates][]float64
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			w[g] = newMat64(p.W[g].Rows, p.W[g].Cols)
			for i, x := range p.W[g].Data {
				w[g].v[i] = float64(x)
			}
			u[g] = newMat64(p.U[g].Rows, p.U[g].Cols)
			for i, x := range p.U[g].Data {
				u[g].v[i] = float64(x)
			}
			b[g] = make([]float64, len(p.B[g]))
			for i, x := range p.B[g] {
				b[g][i] = float64(x)
			}
		}
		r.W = append(r.W, w)
		r.U = append(r.U, u)
		r.B = append(r.B, b)
	}
	r.Proj = newMat64(net.Proj.Rows, net.Proj.Cols)
	for i, x := range net.Proj.Data {
		r.Proj.v[i] = float64(x)
	}
	for i, x := range net.ProjB {
		r.ProjB[i] = float64(x)
	}
	return r
}

func (r *Ref) newGrads() *RefGrads {
	g := &RefGrads{
		Proj:  newMat64(r.Proj.rows, r.Proj.cols),
		ProjB: make([]float64, len(r.ProjB)),
	}
	for l := range r.W {
		var w, u [lstm.NumGates]*mat64
		var b [lstm.NumGates][]float64
		for gg := lstm.Gate(0); gg < lstm.NumGates; gg++ {
			w[gg] = newMat64(r.W[l][gg].rows, r.W[l][gg].cols)
			u[gg] = newMat64(r.U[l][gg].rows, r.U[l][gg].cols)
			b[gg] = make([]float64, len(r.B[l][gg]))
		}
		g.W = append(g.W, w)
		g.U = append(g.U, u)
		g.B = append(g.B, b)
	}
	return g
}

// refState is everything one forward pass stored — every intermediate,
// for every cell, with no lifetime management at all.
type refState struct {
	x          [][]*mat64 // [layer][t] layer input (batch×in)
	f, i, c, o [][]*mat64 // gate activations (batch×hidden)
	s          [][]*mat64 // cell state s_t
	h          [][]*mat64 // hidden output h_t
	logits     []*mat64   // [t], nil where not evaluated
	dLogits    []*mat64
	loss       float64
}

// Forward runs the reference FW pass and loss over float64-widened
// inputs, returning the loss. Inputs and targets use the same types as
// the optimized path; widening happens on read.
func (r *Ref) Forward(inputs []*mat64, classes [][]int, regress []*mat64) (float64, error) {
	st, err := r.forward(inputs, classes, regress)
	if err != nil {
		return 0, err
	}
	return st.loss, nil
}

func sigmoid64(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func (r *Ref) forward(inputs []*mat64, classes [][]int, regress []*mat64) (*refState, error) {
	cfg := r.Cfg
	if len(inputs) != cfg.SeqLen {
		return nil, fmt.Errorf("check: %d input steps, want %d", len(inputs), cfg.SeqLen)
	}
	st := &refState{
		x: grid(cfg.Layers, cfg.SeqLen), f: grid(cfg.Layers, cfg.SeqLen),
		i: grid(cfg.Layers, cfg.SeqLen), c: grid(cfg.Layers, cfg.SeqLen),
		o: grid(cfg.Layers, cfg.SeqLen), s: grid(cfg.Layers, cfg.SeqLen),
		h:      grid(cfg.Layers, cfg.SeqLen),
		logits: make([]*mat64, cfg.SeqLen), dLogits: make([]*mat64, cfg.SeqLen),
	}
	B, H := cfg.Batch, cfg.Hidden
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.InputSize
		if l > 0 {
			in = H
		}
		hPrev := newMat64(B, H) // zero initial state
		sPrev := newMat64(B, H)
		for t := 0; t < cfg.SeqLen; t++ {
			x := inputs[t]
			if l > 0 {
				x = st.h[l-1][t]
			}
			st.x[l][t] = x
			f, i, c, o := newMat64(B, H), newMat64(B, H), newMat64(B, H), newMat64(B, H)
			s, h := newMat64(B, H), newMat64(B, H)
			for b := 0; b < B; b++ {
				for j := 0; j < H; j++ {
					// raw_g = x·W_g + hPrev·U_g + b_g, one gate at a time.
					var raw [lstm.NumGates]float64
					for g := lstm.Gate(0); g < lstm.NumGates; g++ {
						acc := r.B[l][g][j]
						for k := 0; k < in; k++ {
							acc += x.at(b, k) * r.W[l][g].at(k, j)
						}
						for k := 0; k < H; k++ {
							acc += hPrev.at(b, k) * r.U[l][g].at(k, j)
						}
						raw[g] = acc
					}
					fv := sigmoid64(raw[lstm.GateF])
					iv := sigmoid64(raw[lstm.GateI])
					cv := math.Tanh(raw[lstm.GateC])
					ov := sigmoid64(raw[lstm.GateO])
					sv := fv*sPrev.at(b, j) + iv*cv
					f.set(b, j, fv)
					i.set(b, j, iv)
					c.set(b, j, cv)
					o.set(b, j, ov)
					s.set(b, j, sv)
					h.set(b, j, ov*math.Tanh(sv))
				}
			}
			st.f[l][t], st.i[l][t], st.c[l][t], st.o[l][t] = f, i, c, o
			st.s[l][t], st.h[l][t] = s, h
			hPrev, sPrev = h, s
		}
	}
	if err := r.computeLoss(st, classes, regress); err != nil {
		return nil, err
	}
	return st, nil
}

func grid(layers, seqLen int) [][]*mat64 {
	g := make([][]*mat64, layers)
	for l := range g {
		g[l] = make([]*mat64, seqLen)
	}
	return g
}

// computeLoss mirrors the model's loss evaluation in float64: the same
// three loss topologies, the same masking, the same normalization.
func (r *Ref) computeLoss(st *refState, classes [][]int, regress []*mat64) error {
	cfg := r.Cfg
	top := st.h[cfg.Layers-1]
	evalStep := func(t int) *mat64 {
		logits := newMat64(cfg.Batch, cfg.OutSize)
		for b := 0; b < cfg.Batch; b++ {
			for j := 0; j < cfg.OutSize; j++ {
				acc := r.ProjB[j]
				for k := 0; k < cfg.Hidden; k++ {
					acc += top[t].at(b, k) * r.Proj.at(k, j)
				}
				logits.set(b, j, acc)
			}
		}
		st.logits[t] = logits
		return logits
	}
	switch cfg.Loss {
	case model.SingleLoss:
		if len(classes) == 0 {
			return fmt.Errorf("check: single loss requires class targets")
		}
		t := cfg.SeqLen - 1
		loss, dl := crossEntropy64(evalStep(t), classes[len(classes)-1])
		st.loss = loss
		st.dLogits[t] = dl
	case model.PerTimestampLoss:
		if len(classes) != cfg.SeqLen {
			return fmt.Errorf("check: per-timestamp loss requires %d class steps", cfg.SeqLen)
		}
		inv := 1 / float64(cfg.SeqLen)
		for t := 0; t < cfg.SeqLen; t++ {
			loss, dl := crossEntropy64(evalStep(t), classes[t])
			st.loss += loss * inv
			for i := range dl.v {
				dl.v[i] *= inv
			}
			st.dLogits[t] = dl
		}
	case model.RegressionLoss:
		if len(regress) != cfg.SeqLen {
			return fmt.Errorf("check: regression loss requires %d target steps", cfg.SeqLen)
		}
		inv := 1 / float64(cfg.SeqLen)
		for t := 0; t < cfg.SeqLen; t++ {
			loss, dl := squaredError64(evalStep(t), regress[t])
			st.loss += loss * inv
			for i := range dl.v {
				dl.v[i] *= inv
			}
			st.dLogits[t] = dl
		}
	default:
		return fmt.Errorf("check: unknown loss kind %v", cfg.Loss)
	}
	return nil
}

// crossEntropy64 is model.SoftmaxCrossEntropy in float64: mean over
// unmasked rows, targets of -1 masked out, log-sum-exp stabilized.
func crossEntropy64(logits *mat64, targets []int) (float64, *mat64) {
	d := newMat64(logits.rows, logits.cols)
	active := 0
	for _, tgt := range targets {
		if tgt >= 0 {
			active++
		}
	}
	if active == 0 {
		return 0, d
	}
	inv := 1 / float64(active)
	var loss float64
	for b := 0; b < logits.rows; b++ {
		tgt := targets[b]
		if tgt < 0 {
			continue
		}
		mx := logits.at(b, 0)
		for j := 1; j < logits.cols; j++ {
			if v := logits.at(b, j); v > mx {
				mx = v
			}
		}
		var sum float64
		for j := 0; j < logits.cols; j++ {
			sum += math.Exp(logits.at(b, j) - mx)
		}
		logZ := math.Log(sum) + mx
		loss += (logZ - logits.at(b, tgt)) * inv
		for j := 0; j < logits.cols; j++ {
			p := math.Exp(logits.at(b, j)-mx) / sum
			d.set(b, j, p*inv)
		}
		d.set(b, tgt, d.at(b, tgt)-inv)
	}
	return loss, d
}

// squaredError64 is model.SquaredError in float64.
func squaredError64(pred, target *mat64) (float64, *mat64) {
	d := newMat64(pred.rows, pred.cols)
	n := float64(len(pred.v))
	if n == 0 {
		return 0, d
	}
	var loss float64
	for k := range pred.v {
		diff := pred.v[k] - target.v[k]
		loss += diff * diff / n
		d.v[k] = 2 * diff / n
	}
	return loss, d
}

// Backward runs the full reference pass — FW, loss, naive BPTT — and
// returns the loss plus analytic gradients for every parameter.
func (r *Ref) Backward(inputs []*mat64, classes [][]int, regress []*mat64) (float64, *RefGrads, error) {
	st, err := r.forward(inputs, classes, regress)
	if err != nil {
		return 0, nil, err
	}
	cfg := r.Cfg
	B, H := cfg.Batch, cfg.Hidden
	g := r.newGrads()

	// Loss → projection gradients and the top layer's δY seeds.
	dY := make([]*mat64, cfg.SeqLen)
	top := st.h[cfg.Layers-1]
	for t := 0; t < cfg.SeqLen; t++ {
		dl := st.dLogits[t]
		if dl == nil {
			continue
		}
		// δProj += topᵀ·dl ; δProjB += Σrows dl ; δY = dl·Projᵀ
		for k := 0; k < H; k++ {
			for j := 0; j < cfg.OutSize; j++ {
				for b := 0; b < B; b++ {
					g.Proj.set(k, j, g.Proj.at(k, j)+top[t].at(b, k)*dl.at(b, j))
				}
			}
		}
		for j := 0; j < cfg.OutSize; j++ {
			for b := 0; b < B; b++ {
				g.ProjB[j] += dl.at(b, j)
			}
		}
		dy := newMat64(B, H)
		for b := 0; b < B; b++ {
			for k := 0; k < H; k++ {
				var acc float64
				for j := 0; j < cfg.OutSize; j++ {
					acc += dl.at(b, j) * r.Proj.at(k, j)
				}
				dy.set(b, k, acc)
			}
		}
		dY[t] = dy
	}

	for l := cfg.Layers - 1; l >= 0; l-- {
		in := cfg.InputSize
		if l > 0 {
			in = H
		}
		dXBelow := make([]*mat64, cfg.SeqLen)
		dhNext := newMat64(B, H) // δH from t+1 (zero at the last timestamp)
		dsNext := newMat64(B, H) // δS from t+1
		for t := cfg.SeqLen - 1; t >= 0; t-- {
			f, i, c, o := st.f[l][t], st.i[l][t], st.c[l][t], st.o[l][t]
			s := st.s[l][t]
			var hPrev, sPrev *mat64
			if t > 0 {
				hPrev, sPrev = st.h[l][t-1], st.s[l][t-1]
			} else {
				hPrev, sPrev = newMat64(B, H), newMat64(B, H)
			}
			var dGate [lstm.NumGates]*mat64
			for gg := lstm.Gate(0); gg < lstm.NumGates; gg++ {
				dGate[gg] = newMat64(B, H)
			}
			dsPrev := newMat64(B, H)
			for b := 0; b < B; b++ {
				for j := 0; j < H; j++ {
					dh := dhNext.at(b, j)
					if dY[t] != nil {
						dh += dY[t].at(b, j)
					}
					ts := math.Tanh(s.at(b, j))
					ds := dh*o.at(b, j)*(1-ts*ts) + dsNext.at(b, j)
					dGate[lstm.GateO].set(b, j, dh*ts*o.at(b, j)*(1-o.at(b, j)))
					dGate[lstm.GateF].set(b, j, ds*sPrev.at(b, j)*f.at(b, j)*(1-f.at(b, j)))
					dGate[lstm.GateI].set(b, j, ds*c.at(b, j)*i.at(b, j)*(1-i.at(b, j)))
					dGate[lstm.GateC].set(b, j, ds*i.at(b, j)*(1-c.at(b, j)*c.at(b, j)))
					dsPrev.set(b, j, ds*f.at(b, j))
				}
			}
			// Weight gradients and propagated gradients, gate by gate.
			x := st.x[l][t]
			dx := newMat64(B, in)
			dhPrev := newMat64(B, H)
			for gg := lstm.Gate(0); gg < lstm.NumGates; gg++ {
				for k := 0; k < in; k++ {
					for j := 0; j < H; j++ {
						var acc float64
						for b := 0; b < B; b++ {
							acc += x.at(b, k) * dGate[gg].at(b, j)
						}
						g.W[l][gg].set(k, j, g.W[l][gg].at(k, j)+acc)
					}
				}
				for k := 0; k < H; k++ {
					for j := 0; j < H; j++ {
						var acc float64
						for b := 0; b < B; b++ {
							acc += hPrev.at(b, k) * dGate[gg].at(b, j)
						}
						g.U[l][gg].set(k, j, g.U[l][gg].at(k, j)+acc)
					}
				}
				for j := 0; j < H; j++ {
					for b := 0; b < B; b++ {
						g.B[l][gg][j] += dGate[gg].at(b, j)
					}
				}
			}
			// δX and δH_{t-1}: dx = Σ_g dGate_g·W_gᵀ, dhPrev = Σ_g dGate_g·U_gᵀ.
			for gg := lstm.Gate(0); gg < lstm.NumGates; gg++ {
				for b := 0; b < B; b++ {
					for k := 0; k < in; k++ {
						var acc float64
						for j := 0; j < H; j++ {
							acc += dGate[gg].at(b, j) * r.W[l][gg].at(k, j)
						}
						dx.set(b, k, dx.at(b, k)+acc)
					}
					for k := 0; k < H; k++ {
						var acc float64
						for j := 0; j < H; j++ {
							acc += dGate[gg].at(b, j) * r.U[l][gg].at(k, j)
						}
						dhPrev.set(b, k, dhPrev.at(b, k)+acc)
					}
				}
			}
			dhNext, dsNext = dhPrev, dsPrev
			dXBelow[t] = dx
		}
		// Gradients past t=0 are discarded (truncated BPTT, zero start).
		dY = dXBelow
	}
	return st.loss, g, nil
}
