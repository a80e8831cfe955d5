package train_test

import (
	"math"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/train"
)

// netTensors and gradTensors list a network's parameters and a
// gradient set one tensor at a time, in the order the optimizers walked
// them before they walked one vector: per layer, per gate W, U, B; then
// the projection and its bias.
func netTensors(n *model.Network) (ts [][]float32) {
	for _, p := range n.Layer {
		for g := range p.W {
			ts = append(ts, p.W[g].Data, p.U[g].Data, p.B[g])
		}
	}
	return append(ts, n.Proj.Data, n.ProjB)
}

func gradTensors(gs *model.Gradients) (ts [][]float32) {
	for _, p := range gs.Layer {
		for g := range p.W {
			ts = append(ts, p.W[g].Data, p.U[g].Data, p.B[g])
		}
	}
	return append(ts, gs.Proj.Data, gs.ProjB)
}

// zerosLike allocates one separate slice per tensor, as the optimizers'
// per-tensor state did.
func zerosLike(ts [][]float32) [][]float32 {
	out := make([][]float32, len(ts))
	for i, t := range ts {
		out[i] = make([]float32, len(t))
	}
	return out
}

// refSGD, refAdam and refClip are the per-tensor optimizer loops the
// flat ones replaced, with the same explicit rounding of each product,
// so they state the expected result on every target.
type refSGD struct {
	lr, mom float32
	vel     [][]float32
}

func (s *refSGD) step(net *model.Network, gs *model.Gradients) {
	ps, gts := netTensors(net), gradTensors(gs)
	if s.mom != 0 && s.vel == nil {
		s.vel = zerosLike(ps)
	}
	for k, param := range ps {
		grad := gts[k]
		for i := range param {
			g := grad[i]
			if s.vel != nil {
				s.vel[k][i] = float32(s.mom*s.vel[k][i]) + g
				g = s.vel[k][i]
			}
			param[i] -= float32(s.lr * g)
		}
	}
}

type refAdam struct {
	lr, b1, b2, eps float32
	t               int
	m, v            [][]float32
}

func (a *refAdam) step(net *model.Network, gs *model.Gradients) {
	ps, gts := netTensors(net), gradTensors(gs)
	if a.m == nil {
		a.m, a.v = zerosLike(ps), zerosLike(ps)
	}
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.b1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.b2), float64(a.t)))
	for k, param := range ps {
		grad, m, v := gts[k], a.m[k], a.v[k]
		for i := range param {
			g := grad[i]
			m[i] = float32(a.b1*m[i]) + float32((1-a.b1)*g)
			v[i] = float32(a.b2*v[i]) + float32((1-a.b2)*g*g)
			mh := m[i] / bc1
			vh := v[i] / bc2
			param[i] -= float32(a.lr*mh) / (float32(math.Sqrt(float64(vh))) + a.eps)
		}
	}
}

func refClip(gs *model.Gradients, maxNorm float64) float64 {
	var sq float64
	for _, t := range gradTensors(gs) {
		for _, v := range t {
			sq += float64(float64(v) * float64(v))
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, t := range gradTensors(gs) {
		for i := range t {
			t[i] *= scale
		}
	}
	return norm
}

// TestFlatOptimizersMatchPerTensor: SGD (with and without momentum),
// Adam and ClipGradients over the one parameter vector are bitwise the
// per-tensor loops they replaced, over several clipped steps with fresh
// gradients each step.
func TestFlatOptimizersMatchPerTensor(t *testing.T) {
	cfg := model.Config{InputSize: 5, Hidden: 6, Layers: 3, SeqLen: 2,
		Batch: 2, OutSize: 4, Loss: model.SingleLoss}
	for _, c := range []struct {
		name string
		opt  train.Optimizer
		ref  func(*model.Network, *model.Gradients)
	}{
		{"sgd", &train.SGD{LR: 0.05}, (&refSGD{lr: 0.05}).step},
		{"momentum", &train.SGD{LR: 0.05, Momentum: 0.9}, (&refSGD{lr: 0.05, mom: 0.9}).step},
		{"adam", &train.Adam{LR: 0.01}, (&refAdam{lr: 0.01, b1: 0.9, b2: 0.999, eps: 1e-8}).step},
	} {
		got, err := model.NewNetwork(cfg, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		want := got.Clone()
		r := rng.New(22)
		for step := 0; step < 6; step++ {
			g := got.NewGradients()
			r.FillUniform(g.Vec(), -3, 3)
			w := g.Clone()
			gn, wn := train.ClipGradients(g, 4), refClip(w, 4)
			if math.Float64bits(gn) != math.Float64bits(wn) {
				t.Fatalf("%s step %d: clip norm %v, per-tensor %v", c.name, step, gn, wn)
			}
			c.opt.Step(got, g)
			c.ref(want, w)
			for i, v := range got.Params() {
				if math.Float32bits(v) != math.Float32bits(want.Params()[i]) {
					t.Fatalf("%s step %d: weight %d = %v, per-tensor %v", c.name, step, i, v, want.Params()[i])
				}
			}
		}
	}
}
