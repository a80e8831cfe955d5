package core

import (
	"context"
	"math"
	"testing"

	"etalstm/internal/memplan"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

func scaledBench(t *testing.T, name string) (workload.Benchmark, train.Provider) {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := b.Scaled(64, 12, 8)
	return s, s.Provider(3, 21)
}

func newTrainer(t *testing.T, bench workload.Benchmark, cfg Config, seed uint64) *Trainer {
	t.Helper()
	net, err := model.NewNetwork(bench.Cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return New(net, &train.Adam{LR: 0.01}, 5, cfg)
}

func TestBaselineModeTrains(t *testing.T) {
	bench, prov := scaledBench(t, "IMDB")
	tr := newTrainer(t, bench, Config{}, 1)
	stats, err := tr.Run(context.Background(), prov, 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("baseline mode failed to learn")
	}
	if stats[0].SkipFrac != 0 || stats[0].PruneStats.Elements != 0 {
		t.Fatal("baseline mode must not optimize")
	}
}

func TestMS1ModePrunesAndTrains(t *testing.T) {
	bench, prov := scaledBench(t, "IMDB")
	tr := newTrainer(t, bench, Config{EnableMS1: true}, 2)
	stats, err := tr.Run(context.Background(), prov, 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].PruneStats.Elements == 0 {
		t.Fatal("MS1 must prune P1 products")
	}
	if stats[0].PruneStats.Frac() <= 0.2 {
		t.Fatalf("P1 prune fraction %.3f implausibly low", stats[0].PruneStats.Frac())
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("MS1 mode failed to learn")
	}
}

func TestMS2ModeSkipsAfterWarmup(t *testing.T) {
	bench, prov := scaledBench(t, "IMDB")
	tr := newTrainer(t, bench, Config{EnableMS2: true, WarmupEpochs: 3}, 3)
	stats, err := tr.Run(context.Background(), prov, 8)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if stats[e].SkipFrac != 0 {
			t.Fatalf("epoch %d must not skip during warmup", e)
		}
	}
	skippedLater := false
	for e := 3; e < len(stats); e++ {
		if stats[e].SkipFrac > 0 {
			skippedLater = true
			if !stats[e].ScaleApplied {
				t.Fatal("skipping epochs must apply gradient scaling")
			}
		}
	}
	if !skippedLater {
		t.Fatal("MS2 never skipped after warmup")
	}
	if stats[len(stats)-1].MeanLoss >= stats[0].MeanLoss {
		t.Fatal("MS2 mode failed to learn")
	}
}

func TestCombinedModeTrains(t *testing.T) {
	bench, prov := scaledBench(t, "BABI")
	tr := newTrainer(t, bench, Config{EnableMS1: true, EnableMS2: true}, 4)
	stats, err := tr.Run(context.Background(), prov, 8)
	if err != nil {
		t.Fatal(err)
	}
	last := stats[len(stats)-1]
	if last.MeanLoss >= stats[0].MeanLoss {
		t.Fatal("combined mode failed to learn")
	}
	if last.PruneStats.Elements == 0 {
		t.Fatal("combined mode must prune")
	}
}

// TestAccuracyImpactSmall is the Table II claim in miniature: combined
// optimizations land within a few percent of the baseline's final loss
// on the same data and seeds.
func TestAccuracyImpactSmall(t *testing.T) {
	bench, prov := scaledBench(t, "IMDB")
	const epochs = 10

	base := newTrainer(t, bench, Config{}, 7)
	if _, err := base.Run(context.Background(), prov, epochs); err != nil {
		t.Fatal(err)
	}
	opt := newTrainer(t, bench, Config{EnableMS1: true, EnableMS2: true}, 7)
	if _, err := opt.Run(context.Background(), prov, epochs); err != nil {
		t.Fatal(err)
	}

	bl := base.Losses()[epochs-1]
	ol := opt.Losses()[epochs-1]
	// Relative tolerance with an absolute floor: once both runs are in
	// the noise floor (loss < 0.01), any ratio between them is noise.
	if math.Abs(bl-ol) > math.Max(0.15*bl, 0.01) {
		t.Fatalf("combined-MS final loss diverged: baseline %.4f vs optimized %.4f", bl, ol)
	}
}

// TestConvergenceSpeedPreserved: the per-epoch loss trajectory under
// combined optimizations tracks the baseline's (the paper's "no
// convergence speed issues").
func TestConvergenceSpeedPreserved(t *testing.T) {
	bench, prov := scaledBench(t, "WMT")
	const epochs = 8
	base := newTrainer(t, bench, Config{}, 9)
	if _, err := base.Run(context.Background(), prov, epochs); err != nil {
		t.Fatal(err)
	}
	opt := newTrainer(t, bench, Config{EnableMS1: true, EnableMS2: true}, 9)
	if _, err := opt.Run(context.Background(), prov, epochs); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		b, o := base.Losses()[e], opt.Losses()[e]
		if math.Abs(b-o) > 0.25*math.Max(b, 1e-9)+0.05 {
			t.Fatalf("epoch %d: optimized loss %.4f strays from baseline %.4f", e, o, b)
		}
	}
}

func TestFootprintModeMapping(t *testing.T) {
	bench, _ := scaledBench(t, "PTB")
	cases := map[memplan.Mode]Config{
		memplan.Baseline: {},
		memplan.MS1:      {EnableMS1: true},
		memplan.MS2:      {EnableMS2: true},
		memplan.Combined: {EnableMS1: true, EnableMS2: true},
	}
	for want, cfg := range cases {
		tr := newTrainer(t, bench, cfg, 12)
		if tr.FootprintMode() != want {
			t.Fatalf("mode for %+v: got %v want %v", cfg, tr.FootprintMode(), want)
		}
	}
}

func TestRunEpochRequiresNetOpt(t *testing.T) {
	tr := &Trainer{}
	bench, prov := scaledBench(t, "PTB")
	_ = bench
	if _, err := tr.RunEpoch(context.Background(), prov, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestCalibrationSetsAbsBar(t *testing.T) {
	bench, prov := scaledBench(t, "IMDB")
	tr := newTrainer(t, bench, Config{EnableMS2: true}, 13)
	if _, err := tr.RunEpoch(context.Background(), prov, 0); err != nil {
		t.Fatal(err)
	}
	if tr.absBar <= 0 {
		t.Fatal("epoch 0 must calibrate the absolute significance bar")
	}
	if tr.predictor.Alpha == 1 {
		t.Fatal("epoch 0 must calibrate α")
	}
}
