package train_test

import (
	"context"
	"math"
	"testing"

	"etalstm/internal/core"
	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// syntheticProvider is a tiny deterministic classification task: the
// target class is a fixed linear function of the inputs, so a working
// trainer must drive the loss down quickly.
type syntheticProvider struct {
	batches []train.Batch
}

func (p *syntheticProvider) NumBatches() int         { return len(p.batches) }
func (p *syntheticProvider) Batch(i int) train.Batch { return p.batches[i] }

func newSyntheticTask(cfg model.Config, nBatches int, seed uint64) *syntheticProvider {
	r := rng.New(seed)
	p := &syntheticProvider{}
	for b := 0; b < nBatches; b++ {
		xs := make([]*tensor.Matrix, cfg.SeqLen)
		for t := range xs {
			xs[t] = tensor.New(cfg.Batch, cfg.InputSize)
			xs[t].RandInit(r, 1)
		}
		tg := &model.Targets{Classes: make([][]int, cfg.SeqLen)}
		for t := range tg.Classes {
			tg.Classes[t] = make([]int, cfg.Batch)
			for i := range tg.Classes[t] {
				// Deterministic rule: class = sign pattern of the first
				// two features of the last input step.
				v := xs[cfg.SeqLen-1].Row(i)[0]
				cls := 0
				if v > 0 {
					cls = 1
				}
				tg.Classes[t][i] = cls
			}
		}
		p.batches = append(p.batches, train.Batch{Inputs: xs, Targets: tg})
	}
	return p
}

func smallConfig() model.Config {
	return model.Config{
		InputSize: 4, Hidden: 8, Layers: 2, SeqLen: 5,
		Batch: 8, OutSize: 2, Loss: model.SingleLoss,
	}
}

func TestSGDReducesLoss(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(42)
	net, _ := model.NewNetwork(cfg, r)
	prov := newSyntheticTask(cfg, 4, 7)
	tr := core.New(net, &train.SGD{LR: 0.5}, 5, core.Config{})
	stats, err := tr.Run(context.Background(), prov, 30)
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats[0].MeanLoss, stats[len(stats)-1].MeanLoss
	if last >= first*0.8 {
		t.Fatalf("SGD failed to learn: first %v last %v", first, last)
	}
}

func TestMomentumReducesLoss(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(43)
	net, _ := model.NewNetwork(cfg, r)
	prov := newSyntheticTask(cfg, 4, 8)
	tr := core.New(net, &train.SGD{LR: 0.1, Momentum: 0.9}, 5, core.Config{})
	stats, err := tr.Run(context.Background(), prov, 12)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("momentum SGD failed to reduce loss")
	}
}

func TestAdamReducesLoss(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(44)
	net, _ := model.NewNetwork(cfg, r)
	prov := newSyntheticTask(cfg, 4, 9)
	tr := core.New(net, &train.Adam{LR: 0.01}, 5, core.Config{})
	stats, err := tr.Run(context.Background(), prov, 12)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss*0.8 {
		t.Fatalf("Adam failed to learn: %v -> %v", stats[0].MeanLoss, stats[len(stats)-1].MeanLoss)
	}
}

func TestEpochLossesRecorded(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(45)
	net, _ := model.NewNetwork(cfg, r)
	prov := newSyntheticTask(cfg, 2, 10)
	tr := core.New(net, &train.SGD{LR: 0.1}, 0, core.Config{})
	if _, err := tr.Run(context.Background(), prov, 3); err != nil {
		t.Fatal(err)
	}
	if len(tr.Losses()) != 3 {
		t.Fatalf("epoch losses: %d", len(tr.Losses()))
	}
}

func TestP1PolicyTrainsIdentically(t *testing.T) {
	// MS1's reordering is exact: with pruning effectively off (only
	// exact zeros fall below the threshold), training on stored P1
	// products must produce the same weights as raw storage, step for
	// step.
	cfg := smallConfig()
	prov := newSyntheticTask(cfg, 3, 13)

	r1 := rng.New(48)
	netA, _ := model.NewNetwork(cfg, r1)
	trA := core.New(netA, &train.SGD{LR: 0.2}, 0, core.Config{})
	if _, err := trA.Run(context.Background(), prov, 3); err != nil {
		t.Fatal(err)
	}

	r2 := rng.New(48)
	netB, _ := model.NewNetwork(cfg, r2)
	trB := core.New(netB, &train.SGD{LR: 0.2}, 0, core.Config{EnableMS1: true, PruneThreshold: math.SmallestNonzeroFloat32})
	if _, err := trB.Run(context.Background(), prov, 3); err != nil {
		t.Fatal(err)
	}

	for l := range netA.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			if !netA.Layer[l].W[g].Equal(netB.Layer[l].W[g], 1e-4) {
				t.Fatalf("layer %d W[%v] diverged between baseline and P1 training", l, g)
			}
		}
	}
}

func TestClipGradients(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(49)
	net, _ := model.NewNetwork(cfg, r)
	g := net.NewGradients()
	for i := range g.Proj.Data {
		g.Proj.Data[i] = 100
	}
	norm := train.ClipGradients(g, 1)
	if norm <= 1 {
		t.Fatalf("expected large pre-clip norm, got %v", norm)
	}
	var sq float64
	for _, v := range g.Proj.Data {
		sq += float64(v) * float64(v)
	}
	if math.Sqrt(sq) > 1.0001 {
		t.Fatalf("post-clip norm %v > 1", math.Sqrt(sq))
	}
}

func TestClipNoopBelowThreshold(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(50)
	net, _ := model.NewNetwork(cfg, r)
	g := net.NewGradients()
	g.Proj.Data[0] = 0.5
	train.ClipGradients(g, 10)
	if g.Proj.Data[0] != 0.5 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestEvaluateAccuracy(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(51)
	net, _ := model.NewNetwork(cfg, r)
	prov := newSyntheticTask(cfg, 4, 14)
	tr := core.New(net, &train.Adam{LR: 0.02}, 5, core.Config{})
	if _, err := tr.Run(context.Background(), prov, 25); err != nil {
		t.Fatal(err)
	}
	_, acc, err := train.Evaluate(net, prov)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("trained accuracy too low: %v", acc)
	}
}

func TestEvaluateMAERequiresRegression(t *testing.T) {
	cfg := smallConfig()
	r := rng.New(52)
	net, _ := model.NewNetwork(cfg, r)
	if _, err := train.EvaluateMAE(net, newSyntheticTask(cfg, 1, 15)); err == nil {
		t.Fatal("expected error for non-regression model")
	}
}

// TestEvaluateMAE: with every weight and bias zero, each gate sits at
// σ(0) or tanh(0), so s and h stay 0 and every output is 0; the MAE is
// then the mean |target| over batches, timesteps and elements.
func TestEvaluateMAE(t *testing.T) {
	bench, err := workload.ByName("WAYMO")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 6, 4)
	net, err := model.NewNetwork(small.Cfg, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	clear(net.Params())
	prov := small.Provider(2, 54)
	var want float64
	var n int
	for b := 0; b < prov.NumBatches(); b++ {
		for _, m := range prov.Batch(b).Targets.Regress {
			for _, v := range m.Data {
				want += math.Abs(float64(v))
			}
			n += len(m.Data)
		}
	}
	want /= float64(n)
	got, err := train.EvaluateMAE(net, prov)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("EvaluateMAE = %v, want mean |target| %v", got, want)
	}
}

func TestBLEUPerfectMatch(t *testing.T) {
	seq := []int{1, 2, 3, 4, 5, 6}
	if got := train.BLEU(seq, seq); math.Abs(got-1) > 1e-9 {
		t.Fatalf("train.BLEU(identical) = %v", got)
	}
}

func TestBLEUDisjoint(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	b := []int{6, 7, 8, 9, 10}
	if got := train.BLEU(a, b); got > 0.2 {
		t.Fatalf("train.BLEU(disjoint) too high: %v", got)
	}
}

func TestBLEUBrevityPenalty(t *testing.T) {
	ref := []int{1, 2, 3, 4, 5, 6, 7, 8}
	short := []int{1, 2, 3, 4}
	full := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if train.BLEU(short, ref) >= train.BLEU(full, ref) {
		t.Fatal("brevity penalty must penalize short candidates")
	}
}

func TestBLEUEmpty(t *testing.T) {
	if train.BLEU(nil, []int{1}) != 0 || train.BLEU([]int{1}, nil) != 0 {
		t.Fatal("empty sequences must score 0")
	}
}

func TestCorpusBLEURange(t *testing.T) {
	c := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	got := train.CorpusBLEU(c, c)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("train.CorpusBLEU(identical) = %v", got)
	}
	if train.CorpusBLEU(nil, nil) != 0 {
		t.Fatal("empty corpus must score 0")
	}
}

func TestTrainerRequiresNetAndOpt(t *testing.T) {
	tr := &core.Trainer{}
	if _, err := tr.RunEpoch(context.Background(), &syntheticProvider{}, 0); err == nil {
		t.Fatal("expected error for missing Net/Opt")
	}
}

func TestOptimizerNames(t *testing.T) {
	if (&train.SGD{LR: 0.1}).Name() == "" || (&train.Adam{LR: 0.1}).Name() == "" {
		t.Fatal("optimizers must have names")
	}
}
