package skip

import (
	"math"
	"testing"
	"testing/quick"

	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func TestPredictorBetaByLossKind(t *testing.T) {
	if NewPredictor(model.SingleLoss, 3, 35).Beta != 1 {
		t.Fatal("single loss must use β=1")
	}
	if NewPredictor(model.PerTimestampLoss, 3, 35).Beta != -1 {
		t.Fatal("per-timestamp loss must use β=-1")
	}
	if NewPredictor(model.RegressionLoss, 3, 35).Beta != -1 {
		t.Fatal("regression loss must use β=-1")
	}
}

// TestMagnitudeTrendSingleLoss reproduces the Fig. 8a shape: within a
// layer, magnitude decreases from the last timestamp toward the first.
func TestMagnitudeTrendSingleLoss(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 3, 20)
	for l := 0; l < 3; l++ {
		for ts := 1; ts < 20; ts++ {
			prev := p.Magnitude(1.0, l, ts-1)
			cur := p.Magnitude(1.0, l, ts)
			if cur <= prev {
				t.Fatalf("single loss: magnitude must increase with t (layer %d, t %d): %v vs %v",
					l, ts, prev, cur)
			}
		}
	}
}

// TestMagnitudeTrendPerTimestamp reproduces the Fig. 8b shape: within a
// layer, magnitude grows from the last timestamp toward the first.
func TestMagnitudeTrendPerTimestamp(t *testing.T) {
	p := NewPredictor(model.PerTimestampLoss, 3, 20)
	for l := 0; l < 3; l++ {
		for ts := 1; ts < 20; ts++ {
			prev := p.Magnitude(1.0, l, ts-1)
			cur := p.Magnitude(1.0, l, ts)
			if cur >= prev {
				t.Fatalf("per-ts loss: magnitude must decrease with t (layer %d, t %d): %v vs %v",
					l, ts, prev, cur)
			}
		}
	}
}

// TestMagnitudeTrendAcrossLayers: at a fixed timestamp the magnitude
// increases from the last layer to the first (paper's correlation (1)).
func TestMagnitudeTrendAcrossLayers(t *testing.T) {
	for _, kind := range []model.LossKind{model.SingleLoss, model.PerTimestampLoss} {
		p := NewPredictor(kind, 4, 10)
		for ts := 0; ts < 10; ts++ {
			for l := 1; l < 4; l++ {
				if p.Magnitude(1.0, l, ts) >= p.Magnitude(1.0, l-1, ts) {
					t.Fatalf("%v: magnitude must decrease with layer (t=%d, l=%d)", kind, ts, l)
				}
			}
		}
	}
}

func TestSumLoss(t *testing.T) {
	ps := NewPredictor(model.SingleLoss, 2, 10)
	if ps.SumLoss(5, 0) != 5 || ps.SumLoss(5, 9) != 5 {
		t.Fatal("single loss SumLoss must be the whole loss")
	}
	pt := NewPredictor(model.PerTimestampLoss, 2, 10)
	if pt.SumLoss(10, 0) != 10 {
		t.Fatal("per-ts SumLoss at t=0 must be total")
	}
	if math.Abs(pt.SumLoss(10, 9)-1) > 1e-9 {
		t.Fatalf("per-ts SumLoss at last step: %v", pt.SumLoss(10, 9))
	}
}

func TestCalibrate(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 2, 4)
	// Fabricate observations that are exactly 3× the α=1 prediction.
	obs := make([][]float64, 2)
	for l := range obs {
		obs[l] = make([]float64, 4)
		for ts := range obs[l] {
			obs[l][ts] = 3 * p.Magnitude(2.0, l, ts)
		}
	}
	p.Calibrate(2.0, obs)
	if math.Abs(p.Alpha-3) > 1e-9 {
		t.Fatalf("Calibrate: α=%v want 3", p.Alpha)
	}
}

func TestCalibrateEmptyKeepsAlpha(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 1, 2)
	p.Alpha = 7
	p.Calibrate(1, [][]float64{{0, 0}})
	if p.Alpha != 7 {
		t.Fatal("empty calibration must not change α")
	}
}

func TestLossPredictEq5(t *testing.T) {
	// Geometric decay 8,4,2 → Eq. 5 predicts 2 − (4−2)²/(8−4) = 1.
	var h LossHistory
	h.Record(8)
	h.Record(4)
	h.Record(2)
	pred, ok := h.Predict()
	if !ok {
		t.Fatal("3 epochs must predict")
	}
	if math.Abs(pred-1) > 1e-9 {
		t.Fatalf("Eq.5: got %v want 1", pred)
	}
}

func TestLossPredictNeedsThreeEpochs(t *testing.T) {
	var h LossHistory
	h.Record(5)
	h.Record(4)
	if _, ok := h.Predict(); ok {
		t.Fatal("must not predict with <3 epochs")
	}
}

func TestLossPredictPlateau(t *testing.T) {
	var h LossHistory
	h.Record(2)
	h.Record(2)
	h.Record(2)
	pred, ok := h.Predict()
	if !ok || pred != 2 {
		t.Fatalf("plateau must predict the plateau value: %v %v", pred, ok)
	}
}

func TestLossPredictClampsNegative(t *testing.T) {
	var h LossHistory
	h.Record(10)
	h.Record(2)
	h.Record(1.9) // Δ² extrapolation goes below zero
	pred, ok := h.Predict()
	if !ok || pred < 0 {
		t.Fatalf("prediction must clamp at 0: %v", pred)
	}
}

func TestLossHistoryLast(t *testing.T) {
	var h LossHistory
	if h.Last() != 0 {
		t.Fatal("empty Last")
	}
	h.Record(3)
	if h.Last() != 3 || len(h.losses) != 1 {
		t.Fatal("Last/Len")
	}
}

func TestBuildSkipsInsignificantCells(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 2, 50)
	plan := Build(p, 1.0, Config{Threshold: 0.1, Base: model.StoreRaw})
	if plan.SkippedFrac() == 0 {
		t.Fatal("a 50-step single-loss layer must have insignificant early cells")
	}
	// The most significant cell (last timestamp) must never be skipped.
	for l := range plan.Skip {
		if plan.Skip[l][49] {
			t.Fatalf("layer %d last cell skipped", l)
		}
	}
	// Skips concentrate at early timestamps for single loss.
	if !plan.Skip[0][0] {
		t.Fatal("earliest cell of a long single-loss layer should be skipped")
	}
}

func TestBuildPerTimestampSkipsLateCells(t *testing.T) {
	p := NewPredictor(model.PerTimestampLoss, 2, 50)
	plan := Build(p, 1.0, Config{Threshold: 0.1, Base: model.StoreRaw})
	if plan.SkippedFrac() == 0 {
		t.Fatal("expected skips")
	}
	for l := range plan.Skip {
		if plan.Skip[l][0] {
			t.Fatalf("layer %d first cell skipped (it has max magnitude)", l)
		}
	}
	if !plan.Skip[0][49] {
		t.Fatal("latest cell of a long per-ts layer should be skipped")
	}
}

func TestScaleFactorCompensates(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 1, 30)
	plan := Build(p, 1.0, Config{Threshold: 0.2, Base: model.StoreRaw})
	if plan.SkippedFrac() == 0 {
		t.Skip("no skips at this threshold")
	}
	if plan.Scale[0] <= 1 {
		t.Fatalf("scaling factor must exceed 1 when cells are skipped: %v", plan.Scale[0])
	}
	// Factor must equal sum(all)/sum(kept) of predicted magnitudes.
	var all, kept float64
	for ts := 0; ts < 30; ts++ {
		m := p.Magnitude(1.0, 0, ts)
		all += m
		if !plan.Skip[0][ts] {
			kept += m
		}
	}
	if math.Abs(plan.Scale[0]-all/kept) > 1e-9 {
		t.Fatalf("scale %v want %v", plan.Scale[0], all/kept)
	}
}

func TestMaxFracCapsSkipping(t *testing.T) {
	// A 300-step single-loss layer would skip almost everything at a
	// generous threshold; the cap must hold it to DefaultMaxFrac.
	p := NewPredictor(model.SingleLoss, 1, 300)
	plan := Build(p, 1.0, Config{Threshold: 0.2, Base: model.StoreRaw})
	if plan.SkippedFrac() > DefaultMaxFrac+1e-9 {
		t.Fatalf("skip frac %.3f exceeds cap", plan.SkippedFrac())
	}
	// Uncapped, the same threshold skips far more.
	wild := Build(p, 1.0, Config{Threshold: 0.2, MaxFrac: -1, Base: model.StoreRaw})
	if wild.SkippedFrac() <= DefaultMaxFrac {
		t.Fatalf("uncapped plan should skip more: %.3f", wild.SkippedFrac())
	}
	// The cap keeps the highest-magnitude (latest) cells.
	row := plan.Skip[0]
	if row[len(row)-1] {
		t.Fatal("cap must preserve the most significant cells")
	}
}

func TestMaxFracCustom(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 1, 100)
	plan := Build(p, 1.0, Config{Threshold: 0.5, MaxFrac: 0.25, Base: model.StoreRaw})
	if plan.SkippedFrac() > 0.25+1e-9 {
		t.Fatalf("custom cap violated: %.3f", plan.SkippedFrac())
	}
}

func TestNoSkipPlan(t *testing.T) {
	plan := NoSkip(3, 7, model.StoreP1)
	if plan.SkippedFrac() != 0 {
		t.Fatal("NoSkip must skip nothing")
	}
	pol := plan.Policy()
	if pol.Store(1, 3) != model.StoreP1 {
		t.Fatal("NoSkip policy must pass through the base store")
	}
	for _, s := range plan.Scale {
		if s != 1 {
			t.Fatal("NoSkip scale must be 1")
		}
	}
}

func TestPolicyMapsSkips(t *testing.T) {
	p := NewPredictor(model.SingleLoss, 2, 40)
	plan := Build(p, 1.0, Config{Threshold: 0.15, Base: model.StoreP1})
	pol := plan.Policy()
	for l := range plan.Skip {
		for ts, s := range plan.Skip[l] {
			got := pol.Store(l, ts)
			if s && got != model.StoreNone {
				t.Fatalf("cell (%d,%d) should be StoreNone", l, ts)
			}
			if !s && got != model.StoreP1 {
				t.Fatalf("cell (%d,%d) should be StoreP1", l, ts)
			}
		}
	}
}

func TestApplyScaling(t *testing.T) {
	cfg := model.Config{InputSize: 3, Hidden: 3, Layers: 2, SeqLen: 4, Batch: 2, OutSize: 2, Loss: model.SingleLoss}
	r := rng.New(1)
	net, _ := model.NewNetwork(cfg, r)
	g := net.NewGradients()
	for _, l := range g.Layer {
		for i := range l.W[0].Data {
			l.W[0].Data[i] = 1
		}
	}
	plan := NoSkip(2, 4, model.StoreRaw)
	plan.Scale[1] = 2
	if err := plan.ApplyScaling(g); err != nil {
		t.Fatal(err)
	}
	if g.Layer[0].W[0].Data[0] != 1 || g.Layer[1].W[0].Data[0] != 2 {
		t.Fatal("scaling must apply per layer")
	}
	bad := NoSkip(3, 4, model.StoreRaw)
	if err := bad.ApplyScaling(g); err == nil {
		t.Fatal("layer-count mismatch must error")
	}
}

// TestSkipTrainingStillConverges: end-to-end MS2 — training with a skip
// plan and scaling still reduces loss on a small task.
func TestSkipTrainingStillConverges(t *testing.T) {
	cfg := model.Config{InputSize: 4, Hidden: 8, Layers: 2, SeqLen: 12, Batch: 8, OutSize: 2, Loss: model.SingleLoss}
	r := rng.New(2)
	net, _ := model.NewNetwork(cfg, r)

	// Synthetic task: class = sign of the last step's first feature.
	xs := make([]*tensor.Matrix, cfg.SeqLen)
	for i := range xs {
		xs[i] = tensor.New(cfg.Batch, cfg.InputSize)
		xs[i].RandInit(r, 1)
	}
	tg := &model.Targets{Classes: make([][]int, cfg.SeqLen)}
	for i := range tg.Classes {
		tg.Classes[i] = make([]int, cfg.Batch)
		for b := range tg.Classes[i] {
			if xs[cfg.SeqLen-1].Row(b)[0] > 0 {
				tg.Classes[i][b] = 1
			}
		}
	}

	pred := NewPredictor(cfg.Loss, cfg.Layers, cfg.SeqLen)
	plan := Build(pred, 1.0, Config{Threshold: 0.15, Base: model.StoreRaw})
	if plan.SkippedFrac() == 0 {
		t.Fatal("test needs a plan that actually skips")
	}
	policy := plan.Policy()

	var first, last float64
	for step := 0; step < 40; step++ {
		res, err := net.Forward(xs, tg, policy)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = res.Loss
		}
		last = res.Loss
		g := net.NewGradients()
		if err := net.Backward(res, policy, g, model.BackwardOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := plan.ApplyScaling(g); err != nil {
			t.Fatal(err)
		}
		// Plain SGD step.
		for l := range net.Layer {
			for gi := 0; gi < 4; gi++ {
				for i := range net.Layer[l].W[gi].Data {
					net.Layer[l].W[gi].Data[i] -= 0.3 * g.Layer[l].W[gi].Data[i]
				}
				for i := range net.Layer[l].U[gi].Data {
					net.Layer[l].U[gi].Data[i] -= 0.3 * g.Layer[l].U[gi].Data[i]
				}
				for i := range net.Layer[l].B[gi] {
					net.Layer[l].B[gi][i] -= 0.3 * g.Layer[l].B[gi][i]
				}
			}
		}
		for i := range net.Proj.Data {
			net.Proj.Data[i] -= 0.3 * g.Proj.Data[i]
		}
		for i := range net.ProjB {
			net.ProjB[i] -= 0.3 * g.ProjB[i]
		}
	}
	if last >= first*0.7 {
		t.Fatalf("MS2 training failed to descend: %v -> %v", first, last)
	}
}

// Property: Eq. 5 on an exactly geometric loss decay limit + a·qⁿ
// predicts the next term limit + a·q³ exactly — the formula's
// raison d'être for smoothly converging training curves.
func TestPropertyEq5GeometricExact(t *testing.T) {
	f := func(seedRaw uint64) bool {
		r := rng.New(seedRaw)
		a := 1 + 9*r.Float64()     // initial gap
		q := 0.1 + 0.8*r.Float64() // ratio
		limit := 10 * r.Float64()  // asymptote
		var h LossHistory          // losses: limit + a·qⁿ
		for n := 0; n < 3; n++ {
			h.Record(limit + a*math.Pow(q, float64(n)))
		}
		pred, ok := h.Predict()
		if !ok {
			return false
		}
		want := limit + a*math.Pow(q, 3)
		return math.Abs(pred-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
