package traffic

import (
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/workload"
)

func ptbCfg() model.Config {
	return model.Config{InputSize: 512, Hidden: 1024, Layers: 3, SeqLen: 35,
		Batch: 128, OutSize: 1000, Loss: model.PerTimestampLoss}
}

func TestBaselinePositive(t *testing.T) {
	m := Baseline(ptbCfg())
	if m.Weights <= 0 || m.Activations <= 0 || m.Intermediates <= 0 {
		t.Fatalf("baseline movement: %+v", m)
	}
	if m.Total() != m.Weights+m.Activations+m.Intermediates {
		t.Fatal("Total")
	}
}

// TestIntermediateVsActivationRatio reproduces the Fig. 4 headline: the
// intermediate-variable data movement exceeds the activation movement
// by roughly 4× (paper: avg 4.34×, up to 4.81×) across the Fig. 3
// configurations.
func TestIntermediateVsActivationRatio(t *testing.T) {
	var sum float64
	sweeps := workload.AllFig3Sweeps()
	for _, sc := range sweeps {
		m := Baseline(sc.Cfg)
		ratio := float64(m.Intermediates) / float64(m.Activations)
		if ratio < 2 || ratio > 6 {
			t.Errorf("%s: interm/act ratio %.2f outside the Fig. 4 regime", sc.Label, ratio)
		}
		sum += ratio
	}
	avg := sum / float64(len(sweeps))
	if avg < 2.2 || avg > 5.5 {
		t.Fatalf("average interm/act ratio %.2f, paper reports ~4.3", avg)
	}
}

// TestIntermediateGrowsFasterThanActivations: the Sec. III-B claim that
// intermediate traffic outgrows activation traffic with model size.
func TestIntermediateGrowsFasterThanActivations(t *testing.T) {
	sweep := workload.Fig3LengthSweep()
	first := Baseline(sweep[0].Cfg)
	last := Baseline(sweep[len(sweep)-1].Cfg)
	growthI := float64(last.Intermediates) / float64(first.Intermediates)
	growthA := float64(last.Activations) / float64(first.Activations)
	if growthI < growthA {
		t.Fatalf("intermediates grew %vx, activations %vx", growthI, growthA)
	}
}

func TestMS1Reductions(t *testing.T) {
	cfg := ptbCfg()
	base := Baseline(cfg)
	ms1 := WithMS1(cfg, 0.65)
	r := ReductionVs(base, ms1)
	// Paper Fig. 17: MS1 reduces weights ~31.79 % and intermediates
	// ~60.27 %, and does not touch activations.
	if r.Weights < 0.2 || r.Weights > 0.55 {
		t.Errorf("MS1 weight reduction %.3f, paper ~0.32", r.Weights)
	}
	if r.Intermediates < 0.3 || r.Intermediates > 0.75 {
		t.Errorf("MS1 intermediate reduction %.3f, paper ~0.60", r.Intermediates)
	}
	if r.Activations != 0 {
		t.Errorf("MS1 must not change activation movement, got %.3f", r.Activations)
	}
}

func TestMS2Reductions(t *testing.T) {
	cfg := ptbCfg()
	base := Baseline(cfg)
	ms2 := WithMS2(cfg, 0.5)
	r := ReductionVs(base, ms2)
	// Paper Fig. 17: MS2 reduces weights ~24.67 %, activations ~32.89 %,
	// intermediates ~49.34 %.
	if r.Weights < 0.15 || r.Weights > 0.45 {
		t.Errorf("MS2 weight reduction %.3f, paper ~0.25", r.Weights)
	}
	if r.Activations < 0.2 || r.Activations > 0.5 {
		t.Errorf("MS2 activation reduction %.3f, paper ~0.33", r.Activations)
	}
	if r.Intermediates < 0.35 || r.Intermediates > 0.65 {
		t.Errorf("MS2 intermediate reduction %.3f, paper ~0.49", r.Intermediates)
	}
}

func TestMS2ZeroSkipIsBaseline(t *testing.T) {
	cfg := ptbCfg()
	if WithMS2(cfg, 0) != Baseline(cfg) {
		t.Fatal("zero skip fraction must equal baseline")
	}
}

func TestCombinedBeatsBoth(t *testing.T) {
	cfg := ptbCfg()
	base := Baseline(cfg)
	comb := Combined(cfg, 0.65, 0.5)
	ms1 := WithMS1(cfg, 0.65)
	ms2 := WithMS2(cfg, 0.5)
	if comb.Total() >= ms1.Total() || comb.Total() >= ms2.Total() {
		t.Fatalf("combined %d must beat MS1 %d and MS2 %d",
			comb.Total(), ms1.Total(), ms2.Total())
	}
	r := ReductionVs(base, comb)
	// Paper Fig. 17 overall: weights −40.85 %, activations −32.89 %,
	// intermediates −80.04 %.
	if r.Weights < 0.3 || r.Weights > 0.6 {
		t.Errorf("combined weight reduction %.3f, paper ~0.41", r.Weights)
	}
	if r.Intermediates < 0.6 || r.Intermediates > 0.92 {
		t.Errorf("combined intermediate reduction %.3f, paper ~0.80", r.Intermediates)
	}
	if r.Activations < 0.2 || r.Activations > 0.5 {
		t.Errorf("combined activation reduction %.3f, paper ~0.33", r.Activations)
	}
}

func TestReductionVsZeroBase(t *testing.T) {
	r := ReductionVs(Movement{}, Movement{})
	if r.Weights != 0 || r.Activations != 0 || r.Intermediates != 0 {
		t.Fatal("zero baseline must give zero reductions")
	}
}

func TestSuiteWideCombinedBands(t *testing.T) {
	// Across the six Table I benchmarks with per-benchmark skip
	// fractions, the combined reductions must stay in plausible bands.
	for _, b := range workload.Suite() {
		skip := 0.35
		if b.Cfg.SeqLen >= 100 {
			skip = 0.6
		}
		r := ReductionVs(Baseline(b.Cfg), Combined(b.Cfg, 0.65, skip))
		if r.Intermediates < 0.5 || r.Intermediates > 0.95 {
			t.Errorf("%s: intermediate reduction %.3f", b.Name, r.Intermediates)
		}
		if r.Weights <= 0 || r.Weights >= 0.7 {
			t.Errorf("%s: weight reduction %.3f", b.Name, r.Weights)
		}
	}
}
