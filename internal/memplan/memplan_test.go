package memplan

import (
	"math"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/workload"
)

func ptbCfg() model.Config {
	return model.Config{InputSize: 512, Hidden: 1024, Layers: 3, SeqLen: 35,
		Batch: 128, OutSize: 1000, Loss: model.PerTimestampLoss}
}

func TestBaselineBreakdownPositive(t *testing.T) {
	b := Footprint(ptbCfg(), Baseline, Params{})
	if b.Parameter <= 0 || b.Activations <= 0 || b.Intermediate <= 0 {
		t.Fatalf("breakdown: %+v", b)
	}
	if b.Total() != b.Parameter+b.Activations+b.Intermediate {
		t.Fatal("Total must sum categories")
	}
}

func TestIntermediateBytesFormula(t *testing.T) {
	cfg := ptbCfg()
	b := Footprint(cfg, Baseline, Params{})
	want := int64(5*cfg.Layers*cfg.SeqLen*cfg.Batch*cfg.Hidden) * 4
	if b.Intermediate != want {
		t.Fatalf("intermediate: %d want %d", b.Intermediate, want)
	}
}

// TestIntermediateFracGrowsWithLength reproduces the Fig. 5 trend: the
// intermediate share grows with layer length and reaches ~74 % at the
// LL303 extreme.
func TestIntermediateFracGrowsWithLength(t *testing.T) {
	prev := 0.0
	for _, sc := range workload.Fig3LengthSweep() {
		f := Footprint(sc.Cfg, Baseline, Params{}).IntermediateFrac()
		if f <= prev {
			t.Fatalf("%s: intermediate frac %v not growing (prev %v)", sc.Label, f, prev)
		}
		prev = f
	}
	if prev < 0.65 || prev > 0.9 {
		t.Fatalf("LL303 intermediate frac %v outside the paper's ~74%% regime", prev)
	}
}

// TestIntermediateFracAverage: across the 17 Fig. 3 configurations the
// average intermediate share should sit in the paper's ~47 % regime.
func TestIntermediateFracAverage(t *testing.T) {
	var sum float64
	sweeps := workload.AllFig3Sweeps()
	for _, sc := range sweeps {
		sum += Footprint(sc.Cfg, Baseline, Params{}).IntermediateFrac()
	}
	avg := sum / float64(len(sweeps))
	if avg < 0.30 || avg > 0.65 {
		t.Fatalf("average intermediate frac %v outside the paper regime (~0.47)", avg)
	}
}

func TestFromSparsity(t *testing.T) {
	// 65% sparsity: 6 planes × 0.35 × 6B / (5 planes × 4B) = 0.63.
	got := FromSparsity(0.65)
	if math.Abs(got-0.63) > 1e-9 {
		t.Fatalf("FromSparsity(0.65) = %v", got)
	}
	if FromSparsity(1) != 0 {
		t.Fatal("full sparsity keeps nothing")
	}
}

func TestMS1ReducesOnlyIntermediates(t *testing.T) {
	cfg := ptbCfg()
	base := Footprint(cfg, Baseline, Params{})
	ms1 := Footprint(cfg, MS1, Params{P1KeepRatio: 0.6})
	if ms1.Parameter != base.Parameter || ms1.Activations != base.Activations {
		t.Fatal("MS1 must not change parameter/activation footprint")
	}
	if ms1.Intermediate >= base.Intermediate {
		t.Fatal("MS1 must shrink intermediates")
	}
	if ms1.Intermediate != int64(float64(base.Intermediate)*0.6) {
		t.Fatalf("MS1 keep ratio not applied: %d", ms1.Intermediate)
	}
}

func TestMS2ScalesCellStorage(t *testing.T) {
	cfg := ptbCfg()
	base := Footprint(cfg, Baseline, Params{})
	ms2 := Footprint(cfg, MS2, Params{SkipFrac: 0.5})
	if ms2.Parameter != base.Parameter {
		t.Fatal("MS2 must not change parameters")
	}
	if ms2.Intermediate != base.Intermediate/2 {
		t.Fatalf("MS2 intermediates: %d want %d", ms2.Intermediate, base.Intermediate/2)
	}
	if ms2.Activations >= base.Activations {
		t.Fatal("MS2 must shrink activations (skipped cells store no h)")
	}
	// But not below the fixed input/output share.
	if ms2.Activations <= 0 {
		t.Fatal("activations cannot vanish")
	}
}

func TestCombinedComposes(t *testing.T) {
	cfg := ptbCfg()
	p := Params{P1KeepRatio: 0.6, SkipFrac: 0.5}
	comb := Footprint(cfg, Combined, p)
	ms1 := Footprint(cfg, MS1, p)
	ms2 := Footprint(cfg, MS2, p)
	if comb.Total() >= ms1.Total() || comb.Total() >= ms2.Total() {
		t.Fatal("Combined must beat both single optimizations")
	}
	base := Footprint(cfg, Baseline, p)
	if comb.Intermediate != int64(float64(base.Intermediate)*0.6*0.5) {
		t.Fatalf("Combined intermediate composition: %d", comb.Intermediate)
	}
}

// TestCombinedReductionPaperRegime: with the paper's operating points
// (65 % P1 sparsity, ~50-70 % skip on long benchmarks) the combined
// footprint reduction on the long-sequence benchmarks — the ones
// Fig. 18 actually plots (IMDB, WAYMO, BABI) — lands in the 35-85 %
// band around the paper's avg 57.52 % / max 75.75 %.
func TestCombinedReductionPaperRegime(t *testing.T) {
	for _, b := range workload.Suite() {
		skipFrac := 0.4
		if b.Cfg.SeqLen >= 100 {
			skipFrac = 0.65
		}
		r := reduction(b.Cfg, Combined, Params{P1KeepRatio: FromSparsity(0.65), SkipFrac: skipFrac})
		if b.Cfg.SeqLen >= 100 {
			if r < 0.35 || r > 0.85 {
				t.Errorf("%s: combined reduction %.3f outside the Fig. 18 band", b.Name, r)
			}
		} else if r <= 0 || r > 0.85 {
			t.Errorf("%s: combined reduction %.3f implausible", b.Name, r)
		}
	}
}

// TestBABIIntermediateFracMatchesPaperMax: at the BABI geometry
// (LL=303) the intermediate share must sit near the paper's reported
// maximum of 74.01 %.
func TestBABIIntermediateFracMatchesPaperMax(t *testing.T) {
	b, err := workload.ByName("BABI")
	if err != nil {
		t.Fatal(err)
	}
	f := Footprint(b.Cfg, Baseline, Params{}).IntermediateFrac()
	if f < 0.68 || f > 0.82 {
		t.Fatalf("BABI intermediate frac %.3f, paper reports ~0.74", f)
	}
}

// TestFitsIn exercises the Fig. 3b memory-wall mechanism: footprint
// grows with layer number until the largest configurations no longer
// fit the device. Our analytic footprint is the conceptual minimum
// (5 planes/cell, no allocator overhead) — the paper's PyTorch stack
// hits the wall at 16 GB; the analytic model hits it at the same layer
// counts when the budget is scaled by the framework-overhead factor
// the Fig. 3 harness documents.
func TestFitsIn(t *testing.T) {
	const gib = int64(1) << 30
	gibF := float64(gib)
	budget := int64(2.9 * gibF) // 16 GiB / PyTorchOverheadFactor (5.5)
	for _, sc := range workload.Fig3LayerSweep() {
		total := Footprint(sc.Cfg, Baseline, Params{}).Total()
		fits := total <= budget
		wantFits := sc.Cfg.Layers <= 6
		if fits != wantFits {
			t.Errorf("%s: fits=%v want %v (total %.2f GiB)", sc.Label, fits, wantFits,
				float64(total)/float64(gib))
		}
	}
}

// TestFootprintMonotonicInEveryDimension: growing any of the three
// model-size axes must grow the total footprint.
func TestFootprintMonotonicInEveryDimension(t *testing.T) {
	for _, sweep := range [][]workload.SweepConfig{
		workload.Fig3HiddenSweep(), workload.Fig3LayerSweep(), workload.Fig3LengthSweep(),
	} {
		var prev int64
		for _, sc := range sweep {
			total := Footprint(sc.Cfg, Baseline, Params{}).Total()
			if total <= prev {
				t.Fatalf("%s: footprint %d not monotone (prev %d)", sc.Label, total, prev)
			}
			prev = total
		}
	}
}

func TestMS1NeverCostsFootprint(t *testing.T) {
	// At low sparsity value+index pairs would exceed the dense raw
	// intermediates; the dense/sparse fallback must cap the cost.
	cfg := ptbCfg()
	base := Footprint(cfg, Baseline, Params{})
	low := Footprint(cfg, MS1, Params{P1KeepRatio: FromSparsity(0.1)})
	if low.Intermediate > base.Intermediate {
		t.Fatalf("MS1 at low sparsity must fall back to dense storage: %d vs %d",
			low.Intermediate, base.Intermediate)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Baseline: "Baseline", MS1: "MS1", MS2: "MS2", Combined: "Combine-MS"} {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
}

// reduction returns 1 − footprint(mode)/footprint(baseline): the
// Fig. 18 metric.
func reduction(cfg model.Config, mode Mode, p Params) float64 {
	return 1 - float64(Footprint(cfg, mode, p).Total())/float64(Footprint(cfg, Baseline, p).Total())
}
