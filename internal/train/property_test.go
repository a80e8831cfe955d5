package train_test

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"etalstm/internal/core"
	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
)

func randomGrads(t *testing.T, seed uint64) (*model.Network, *model.Gradients) {
	t.Helper()
	cfg := model.Config{InputSize: 3, Hidden: 4, Layers: 2, SeqLen: 2,
		Batch: 2, OutSize: 3, Loss: model.SingleLoss}
	net, err := model.NewNetwork(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	g := net.NewGradients()
	r := rng.New(seed ^ 0xdead)
	for l := range g.Layer {
		for gate := lstm.Gate(0); gate < lstm.NumGates; gate++ {
			g.Layer[l].W[gate].RandInit(r, 2)
			g.Layer[l].U[gate].RandInit(r, 2)
			for j := range g.Layer[l].B[gate] {
				g.Layer[l].B[gate][j] = r.Uniform(-2, 2)
			}
		}
	}
	g.Proj.RandInit(r, 2)
	return net, g
}

// Property: clipping is idempotent — clipping an already-clipped
// gradient set changes nothing.
func TestPropertyClipIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		_, g := randomGrads(t, seed)
		train.ClipGradients(g, 1)
		before := g.Proj.Clone()
		norm := train.ClipGradients(g, 1)
		return norm <= 1.0001 && g.Proj.Equal(before, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: an Adam first step moves every parameter opposite its
// gradient's sign (for non-tiny gradients).
func TestPropertyAdamFirstStepDirection(t *testing.T) {
	f := func(seed uint64) bool {
		net, g := randomGrads(t, seed)
		before := net.Proj.Clone()
		opt := &train.Adam{LR: 0.01}
		opt.Step(net, g)
		for i, grad := range g.Proj.Data {
			if math.Abs(float64(grad)) < 1e-3 {
				continue
			}
			delta := net.Proj.Data[i] - before.Data[i]
			if grad > 0 && delta >= 0 {
				return false
			}
			if grad < 0 && delta <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: SGD without momentum is exactly param -= lr·grad.
func TestPropertySGDExactUpdate(t *testing.T) {
	f := func(seed uint64) bool {
		net, g := randomGrads(t, seed)
		before := net.Proj.Clone()
		opt := &train.SGD{LR: 0.1}
		opt.Step(net, g)
		for i := range net.Proj.Data {
			want := before.Data[i] - 0.1*g.Proj.Data[i]
			if math.Abs(float64(net.Proj.Data[i]-want)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDivergenceGuard: a ridiculous learning rate must be caught as a
// non-finite loss error rather than silently training on NaNs.
func TestDivergenceGuard(t *testing.T) {
	cfg := model.Config{InputSize: 4, Hidden: 8, Layers: 2, SeqLen: 6,
		Batch: 8, OutSize: 4, Loss: model.RegressionLoss}
	net, err := model.NewNetwork(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	prov := &explodingProvider{cfg: cfg}
	tr := core.New(net, &train.SGD{LR: 1e6}, 0, core.Config{})
	_, runErr := tr.Run(context.Background(), prov, 50)
	if runErr == nil {
		t.Fatal("expected divergence to surface as an error")
	}
}

// explodingProvider feeds large-magnitude regression targets that make
// an LR=1e6 SGD run blow up quickly.
type explodingProvider struct {
	cfg model.Config
}

func (p *explodingProvider) NumBatches() int { return 2 }

func (p *explodingProvider) Batch(i int) train.Batch {
	r := rng.New(uint64(i) + 1)
	b := train.Batch{Targets: &model.Targets{}}
	for t := 0; t < p.cfg.SeqLen; t++ {
		x := tensor.New(p.cfg.Batch, p.cfg.InputSize)
		x.RandInit(r, 10)
		b.Inputs = append(b.Inputs, x)
		tgt := tensor.New(p.cfg.Batch, p.cfg.OutSize)
		tgt.RandInit(r, 100)
		b.Targets.Regress = append(b.Targets.Regress, tgt)
	}
	return b
}
