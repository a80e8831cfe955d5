package model

import (
	"math"
	"testing"

	"etalstm/internal/lstm"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func testConfig(loss LossKind) Config {
	return Config{
		InputSize: 5, Hidden: 4, Layers: 2, SeqLen: 3,
		Batch: 2, OutSize: 6, Loss: loss,
	}
}

func makeInputs(cfg Config, r *rng.RNG) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, cfg.SeqLen)
	for t := range xs {
		xs[t] = tensor.New(cfg.Batch, cfg.InputSize)
		xs[t].RandInit(r, 1)
	}
	return xs
}

func makeClassTargets(cfg Config, r *rng.RNG) *Targets {
	tg := &Targets{Classes: make([][]int, cfg.SeqLen)}
	for t := range tg.Classes {
		tg.Classes[t] = make([]int, cfg.Batch)
		for b := range tg.Classes[t] {
			tg.Classes[t][b] = r.Intn(cfg.OutSize)
		}
	}
	return tg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(SingleLoss)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Hidden = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero hidden")
	}
	bad = good
	bad.SeqLen = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative seqlen")
	}
}

// TestParamCount: the count sizes the parameter vector exactly, summing
// each layer's lstm.LayerLen and the projection, and reports a geometry
// whose weights overflow an int, which Alloc and NewGradientsFor then
// reject instead of allocating a wrapped-around length.
func TestParamCount(t *testing.T) {
	for _, cfg := range []Config{
		{InputSize: 1, Hidden: 1, Layers: 1, SeqLen: 1, Batch: 1, OutSize: 1},
		testConfig(SingleLoss),
		{InputSize: 9, Hidden: 3, Layers: 4, SeqLen: 2, Batch: 1, OutSize: 2},
	} {
		n, ok := cfg.ParamCount()
		want := cfg.Hidden*cfg.OutSize + cfg.OutSize
		for l := 0; l < cfg.Layers; l++ {
			want += lstm.LayerLen(cfg.layerInput(l), cfg.Hidden)
		}
		if !ok || n != want {
			t.Fatalf("%+v: ParamCount %d (ok %v), want %d", cfg, n, ok, want)
		}
		net, err := Alloc(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(net.Params()) != n {
			t.Fatalf("%+v: %d params allocated, ParamCount %d", cfg, len(net.Params()), n)
		}
	}
	for _, cfg := range []Config{
		{InputSize: 1, Hidden: 1 << 31, Layers: 1, SeqLen: 1, Batch: 1, OutSize: 1},
		{InputSize: 1, Hidden: 1 << 40, Layers: 1, SeqLen: 1, Batch: 1, OutSize: 1},
		{InputSize: math.MaxInt, Hidden: 1, Layers: 1, SeqLen: 1, Batch: 1, OutSize: 1},
		{InputSize: 1, Hidden: 1, Layers: math.MaxInt, SeqLen: 1, Batch: 1, OutSize: 1},
		{InputSize: 1, Hidden: 1, Layers: 1, SeqLen: 1, Batch: 1, OutSize: math.MaxInt},
	} {
		if n, ok := cfg.ParamCount(); ok {
			t.Fatalf("%+v: ParamCount %d reports no overflow", cfg, n)
		}
		if _, err := Alloc(cfg); err == nil {
			t.Fatalf("%+v: Alloc accepted an overflowing geometry", cfg)
		}
		if _, err := NewGradientsFor(cfg); err == nil {
			t.Fatalf("%+v: NewGradientsFor accepted an overflowing geometry", cfg)
		}
	}
}

// TestAllocThenInitIsNewNetwork: Alloc is NewNetwork's storage step —
// zero weights in the right shapes — and an invalid config fails there.
func TestAllocThenInitIsNewNetwork(t *testing.T) {
	cfg := testConfig(SingleLoss)
	n, err := Alloc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewNetwork(cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for l, p := range n.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			w, rw := p.W[g], ref.Layer[l].W[g]
			if w.Rows != rw.Rows || w.Cols != rw.Cols || len(p.B[g]) != len(ref.Layer[l].B[g]) {
				t.Fatalf("layer %d gate %v: shape differs from NewNetwork", l, g)
			}
			for _, v := range w.Data {
				if v != 0 {
					t.Fatalf("layer %d gate %v: Alloc left a nonzero weight", l, g)
				}
			}
		}
	}
	if n.Proj.Rows != cfg.Hidden || n.Proj.Cols != cfg.OutSize || len(n.ProjB) != cfg.OutSize {
		t.Fatalf("projection %dx%d + %d, want %dx%d + %d",
			n.Proj.Rows, n.Proj.Cols, len(n.ProjB), cfg.Hidden, cfg.OutSize, cfg.OutSize)
	}
	cfg.Hidden = 0
	if _, err := Alloc(cfg); err == nil {
		t.Fatal("Alloc accepted Hidden 0")
	}
}

func TestForwardShapesAndLoss(t *testing.T) {
	for _, kind := range []LossKind{SingleLoss, PerTimestampLoss, RegressionLoss} {
		cfg := testConfig(kind)
		r := rng.New(1)
		n, err := NewNetwork(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		xs := makeInputs(cfg, r)
		var tg *Targets
		if kind == RegressionLoss {
			tg = &Targets{Regress: make([]*tensor.Matrix, cfg.SeqLen)}
			for i := range tg.Regress {
				tg.Regress[i] = tensor.New(cfg.Batch, cfg.OutSize)
				tg.Regress[i].RandInit(r, 1)
			}
		} else {
			tg = makeClassTargets(cfg, r)
		}
		res, err := n.Forward(xs, tg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss <= 0 {
			t.Fatalf("%v: loss must be positive at init, got %v", kind, res.Loss)
		}
		if len(res.H) != cfg.Layers || len(res.H[0]) != cfg.SeqLen {
			t.Fatalf("%v: bad H dims", kind)
		}
	}
}

func TestSingleLossOnlyLastStep(t *testing.T) {
	cfg := testConfig(SingleLoss)
	r := rng.New(2)
	n, _ := NewNetwork(cfg, r)
	res, err := n.Forward(makeInputs(cfg, r), makeClassTargets(cfg, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < cfg.SeqLen-1; t0++ {
		if res.PerStepLoss[t0] != 0 {
			t.Fatalf("single loss must concentrate at the last step, step %d = %v", t0, res.PerStepLoss[t0])
		}
	}
	if res.PerStepLoss[cfg.SeqLen-1] != res.Loss {
		t.Fatal("last-step loss must equal total")
	}
}

func TestPerTimestampLossAllSteps(t *testing.T) {
	cfg := testConfig(PerTimestampLoss)
	r := rng.New(3)
	n, _ := NewNetwork(cfg, r)
	res, err := n.Forward(makeInputs(cfg, r), makeClassTargets(cfg, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < cfg.SeqLen; t0++ {
		if res.PerStepLoss[t0] <= 0 {
			t.Fatalf("per-timestamp loss missing at step %d", t0)
		}
	}
}

func TestForwardInputValidation(t *testing.T) {
	cfg := testConfig(SingleLoss)
	r := rng.New(4)
	n, _ := NewNetwork(cfg, r)
	if _, err := n.Forward(makeInputs(cfg, r)[:1], nil, nil); err == nil {
		t.Fatal("expected error for wrong step count")
	}
	bad := makeInputs(cfg, r)
	bad[0] = tensor.New(cfg.Batch, cfg.InputSize+1)
	if _, err := n.Forward(bad, nil, nil); err == nil {
		t.Fatal("expected error for wrong input width")
	}
}

// TestNetworkGradCheck verifies end-to-end BPTT gradients through the
// stacked network, projection and softmax against central differences.
func TestNetworkGradCheck(t *testing.T) {
	cfg := Config{InputSize: 3, Hidden: 3, Layers: 2, SeqLen: 3, Batch: 2, OutSize: 4, Loss: PerTimestampLoss}
	r := rng.New(5)
	n, _ := NewNetwork(cfg, r)
	xs := makeInputs(cfg, r)
	tg := makeClassTargets(cfg, r)

	lossAt := func() float64 {
		res, err := n.Forward(xs, tg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Loss
	}

	res, _ := n.Forward(xs, tg, nil)
	grads := n.NewGradients()
	if err := n.Backward(res, nil, grads, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}

	const eps = 1e-3
	check := func(name string, theta []float32, idx int, analytic float32) {
		t.Helper()
		orig := theta[idx]
		theta[idx] = orig + eps
		lp := lossAt()
		theta[idx] = orig - eps
		lm := lossAt()
		theta[idx] = orig
		num := (lp - lm) / (2 * eps)
		diff := math.Abs(float64(analytic) - num)
		denom := math.Max(1e-4, math.Abs(num)+math.Abs(float64(analytic)))
		if diff/denom > 3e-2 {
			t.Errorf("%s[%d]: analytic %v numeric %v", name, idx, analytic, num)
		}
	}

	for l := 0; l < cfg.Layers; l++ {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			check("W", n.Layer[l].W[g].Data, 0, grads.Layer[l].W[g].Data[0])
			check("U", n.Layer[l].U[g].Data, 4, grads.Layer[l].U[g].Data[4])
			check("B", n.Layer[l].B[g], 1, grads.Layer[l].B[g][1])
		}
	}
	check("Proj", n.Proj.Data, 0, grads.Proj.Data[0])
	check("Proj", n.Proj.Data, cfg.Hidden*cfg.OutSize-1, grads.Proj.Data[cfg.Hidden*cfg.OutSize-1])
	check("ProjB", n.ProjB, 0, grads.ProjB[0])
}

// TestP1PolicyGradEquivalence: training with the MS1 policy must give
// identical gradients to the baseline policy.
func TestP1PolicyGradEquivalence(t *testing.T) {
	cfg := testConfig(PerTimestampLoss)
	r := rng.New(6)
	n, _ := NewNetwork(cfg, r)
	xs := makeInputs(cfg, r)
	tg := makeClassTargets(cfg, r)

	resBase, _ := n.Forward(xs, tg, BaselinePolicy())
	gBase := n.NewGradients()
	if err := n.Backward(resBase, BaselinePolicy(), gBase, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}

	resP1, _ := n.Forward(xs, tg, P1Policy())
	gP1 := n.NewGradients()
	if err := n.Backward(resP1, P1Policy(), gP1, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}

	const tol = 1e-4
	for l := range gBase.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			if !gBase.Layer[l].W[g].Equal(gP1.Layer[l].W[g], tol) {
				t.Errorf("layer %d W[%v] differs between baseline and P1 policies", l, g)
			}
			if !gBase.Layer[l].U[g].Equal(gP1.Layer[l].U[g], tol) {
				t.Errorf("layer %d U[%v] differs", l, g)
			}
		}
	}
	if !gBase.Proj.Equal(gP1.Proj, tol) {
		t.Error("projection gradient differs")
	}
}

func TestSkipPolicyBreaksChain(t *testing.T) {
	// Skipping all cells of timestamps < SeqLen-1 must equal truncated
	// BPTT: the last cell still produces gradients, earlier cells none.
	cfg := testConfig(SingleLoss)
	r := rng.New(7)
	n, _ := NewNetwork(cfg, r)
	xs := makeInputs(cfg, r)
	tg := makeClassTargets(cfg, r)

	last := cfg.SeqLen - 1
	policy := PolicyFunc(func(l, t int) CellStore {
		if t == last {
			return StoreRaw
		}
		return StoreNone
	})
	res, err := n.Forward(xs, tg, policy)
	if err != nil {
		t.Fatal(err)
	}
	grads := n.NewGradients()
	if err := n.Backward(res, policy, grads, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}
	if grads.SkippedCells != cfg.Layers*(cfg.SeqLen-1) {
		t.Fatalf("SkippedCells = %d", grads.SkippedCells)
	}
	if grads.ExecutedCells != cfg.Layers {
		t.Fatalf("ExecutedCells = %d", grads.ExecutedCells)
	}
	for l := range grads.Layer {
		if grads.Layer[l].AbsSum() == 0 {
			t.Fatalf("layer %d should still get gradients from the last cell", l)
		}
	}
}

func TestSkipAllProducesNoGradients(t *testing.T) {
	cfg := testConfig(SingleLoss)
	r := rng.New(8)
	n, _ := NewNetwork(cfg, r)
	xs := makeInputs(cfg, r)
	tg := makeClassTargets(cfg, r)
	policy := PolicyFunc(func(l, t int) CellStore { return StoreNone })
	res, _ := n.Forward(xs, tg, policy)
	grads := n.NewGradients()
	if err := n.Backward(res, policy, grads, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}
	for l := range grads.Layer {
		if grads.Layer[l].AbsSum() != 0 {
			t.Fatal("fully skipped network must produce zero LSTM gradients")
		}
	}
	// The projection still learns (its inputs are stored outputs).
	if grads.Proj.AbsSum() == 0 {
		t.Fatal("projection gradient should be nonzero")
	}
}

func TestOnCellHookSumsToTotal(t *testing.T) {
	cfg := testConfig(PerTimestampLoss)
	r := rng.New(9)
	n, _ := NewNetwork(cfg, r)
	xs := makeInputs(cfg, r)
	tg := makeClassTargets(cfg, r)

	res, _ := n.Forward(xs, tg, nil)
	gPlain := n.NewGradients()
	if err := n.Backward(res, nil, gPlain, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}

	res2, _ := n.Forward(xs, tg, nil)
	gHooked := n.NewGradients()
	cells := 0
	err := n.Backward(res2, nil, gHooked, BackwardOpts{
		OnCell: func(l, t int, cg *lstm.Grads) { cells++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells != cfg.Cells() {
		t.Fatalf("hook saw %d cells, want %d", cells, cfg.Cells())
	}
	for l := range gPlain.Layer {
		if math.Abs(gPlain.Layer[l].AbsSum()-gHooked.Layer[l].AbsSum()) > 1e-3 {
			t.Fatalf("hooked BP changed layer %d gradients", l)
		}
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	r := rng.New(10)
	logits := tensor.New(3, 5)
	logits.RandInit(r, 2)
	targets := []int{1, 4, 0}
	_, d := SoftmaxCrossEntropy(logits, targets)
	// Gradient rows must sum to ~0 (softmax minus one-hot).
	for b := 0; b < 3; b++ {
		var s float64
		for _, v := range d.Row(b) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("row %d gradient sum %v", b, s)
		}
	}
	// Numerical check on one element.
	const eps = 1e-3
	idx := 7
	orig := logits.Data[idx]
	logits.Data[idx] = orig + eps
	lp, _ := SoftmaxCrossEntropy(logits, targets)
	logits.Data[idx] = orig - eps
	lm, _ := SoftmaxCrossEntropy(logits, targets)
	logits.Data[idx] = orig
	num := (lp - lm) / (2 * eps)
	if math.Abs(num-float64(d.Data[idx])) > 1e-3 {
		t.Fatalf("CE grad: numeric %v analytic %v", num, d.Data[idx])
	}
}

func TestSoftmaxCrossEntropyMasking(t *testing.T) {
	r := rng.New(11)
	logits := tensor.New(2, 3)
	logits.RandInit(r, 1)
	loss, d := SoftmaxCrossEntropy(logits, []int{-1, 2})
	if loss <= 0 {
		t.Fatal("masked loss should still be positive from active rows")
	}
	for _, v := range d.Row(0) {
		if v != 0 {
			t.Fatal("masked row must have zero gradient")
		}
	}
}

func TestSquaredErrorGradient(t *testing.T) {
	pred := tensor.NewFromData(1, 2, []float32{1, 2})
	tgt := tensor.NewFromData(1, 2, []float32{0, 0})
	loss, d := SquaredError(pred, tgt)
	if math.Abs(loss-2.5) > 1e-6 {
		t.Fatalf("MSE loss: %v", loss)
	}
	if math.Abs(float64(d.Data[0])-1) > 1e-6 || math.Abs(float64(d.Data[1])-2) > 1e-6 {
		t.Fatalf("MSE grad: %v", d.Data)
	}
}

func TestMAEAndPerplexity(t *testing.T) {
	pred := tensor.NewFromData(1, 2, []float32{1, -1})
	tgt := tensor.NewFromData(1, 2, []float32{0, 0})
	if got := MeanAbsoluteError(pred, tgt); math.Abs(got-1) > 1e-9 {
		t.Fatalf("MAE: %v", got)
	}
	if got := Perplexity(0); got != 1 {
		t.Fatalf("Perplexity(0): %v", got)
	}
	if got := Perplexity(math.Log(100)); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Perplexity(ln 100): %v", got)
	}
}

func TestArgmax(t *testing.T) {
	m := tensor.NewFromData(2, 3, []float32{1, 5, 2, 9, 0, 3})
	got := Argmax(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := testConfig(SingleLoss)
	n, err := NewNetwork(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	if c.Cfg != n.Cfg {
		t.Fatal("clone geometry differs")
	}
	if c.Layer[0].W[0].Data[0] != n.Layer[0].W[0].Data[0] {
		t.Fatal("clone weights differ")
	}
	// Mutating the clone must not reach the original (and vice versa).
	c.Layer[0].W[0].Data[0] += 1
	c.Proj.Data[0] += 1
	c.ProjB[0] += 1
	if c.Layer[0].W[0].Data[0] == n.Layer[0].W[0].Data[0] ||
		c.Proj.Data[0] == n.Proj.Data[0] || c.ProjB[0] == n.ProjB[0] {
		t.Fatal("clone shares parameter storage with the original")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	cfg := testConfig(SingleLoss)
	src, _ := NewNetwork(cfg, rng.New(4))
	dst, _ := NewNetwork(cfg, rng.New(5))
	if err := dst.CopyWeightsFrom(src); err != nil {
		t.Fatal(err)
	}
	for l := range src.Layer {
		for g := 0; g < 4; g++ {
			for i, v := range src.Layer[l].W[g].Data {
				if dst.Layer[l].W[g].Data[i] != v {
					t.Fatalf("layer %d W[%d][%d] not copied", l, g, i)
				}
			}
		}
	}
	for i, v := range src.Proj.Data {
		if dst.Proj.Data[i] != v {
			t.Fatalf("Proj[%d] not copied", i)
		}
	}
	other := testConfig(SingleLoss)
	other.Hidden = 8
	big, _ := NewNetwork(other, rng.New(6))
	if err := dst.CopyWeightsFrom(big); err == nil {
		t.Fatal("geometry mismatch must error")
	}
}

func TestGradientsAddScale(t *testing.T) {
	cfg := testConfig(SingleLoss)
	n, _ := NewNetwork(cfg, rng.New(7))
	a, b := n.NewGradients(), n.NewGradients()
	a.Layer[0].W[0].Data[0] = 2
	a.Proj.Data[0] = 3
	a.ProjB[0] = 4
	a.SkippedCells, a.ExecutedCells = 1, 2
	b.Layer[0].W[0].Data[0] = 10
	b.Proj.Data[0] = 20
	b.ProjB[0] = 30
	b.SkippedCells, b.ExecutedCells = 3, 4
	a.Add(b)
	if a.Layer[0].W[0].Data[0] != 12 || a.Proj.Data[0] != 23 || a.ProjB[0] != 34 {
		t.Fatalf("Add: got %v %v %v", a.Layer[0].W[0].Data[0], a.Proj.Data[0], a.ProjB[0])
	}
	if a.SkippedCells != 4 || a.ExecutedCells != 6 {
		t.Fatalf("Add must sum cell counters: %d/%d", a.SkippedCells, a.ExecutedCells)
	}
	a.Scale(0.5)
	if a.Layer[0].W[0].Data[0] != 6 || a.Proj.Data[0] != 11.5 || a.ProjB[0] != 17 {
		t.Fatalf("Scale: got %v %v %v", a.Layer[0].W[0].Data[0], a.Proj.Data[0], a.ProjB[0])
	}
	if a.SkippedCells != 4 || a.ExecutedCells != 6 {
		t.Fatal("Scale must leave cell counters untouched")
	}
}

// TestParamVectorLayout: every W, U, B, Proj and ProjB view of a
// network, and of a gradient set, lies in its one vector in checkpoint
// payload order, back to back, covering it exactly; a Clone of either
// shares no storage with the original.
func TestParamVectorLayout(t *testing.T) {
	cfg := testConfig(SingleLoss)
	n, err := NewNetwork(cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	g := n.NewGradients()
	layer := func(w, u [lstm.NumGates]*tensor.Matrix, b [lstm.NumGates][]float32) (vs [][]float32) {
		for i := range w {
			vs = append(vs, w[i].Data, u[i].Data, b[i])
		}
		return vs
	}
	var nv, gv [][]float32
	for l := range n.Layer {
		nv = append(nv, layer(n.Layer[l].W, n.Layer[l].U, n.Layer[l].B)...)
		gv = append(gv, layer(g.Layer[l].W, g.Layer[l].U, g.Layer[l].B)...)
	}
	for _, c := range []struct {
		name  string
		vec   []float32
		views [][]float32
	}{
		{"network", n.Params(), append(nv, n.Proj.Data, n.ProjB)},
		{"gradients", g.Vec(), append(gv, g.Proj.Data, g.ProjB)},
	} {
		off := 0
		for i, v := range c.views {
			if len(v) == 0 || &v[0] != &c.vec[off] || cap(v) != len(v) {
				t.Fatalf("%s: view %d is not vec[%d:%d]", c.name, i, off, off+len(v))
			}
			off += len(v)
		}
		if off != len(c.vec) {
			t.Fatalf("%s: views cover %d of %d values", c.name, off, len(c.vec))
		}
	}
	if want, _ := cfg.ParamCount(); len(n.Params()) != want {
		t.Fatalf("vector holds %d values, ParamCount %d", len(n.Params()), want)
	}

	// A write through a view reaches the vector: layer 1 starts after
	// layer 0; its gate 2's U follows two gates' W, U, B and its own W.
	h := cfg.Hidden
	n.Layer[1].U[2].Data[3] = 42
	if off := lstm.LayerLen(cfg.InputSize, h) + 2*(2*h*h+h) + h*h + 3; n.Params()[off] != 42 {
		t.Fatal("a write through Layer[1].U[2] did not reach Params()")
	}

	// A clone shares no storage: every value of the original moves,
	// none of the clone's.
	c, gc := n.Clone(), g.Clone()
	for _, p := range []struct{ orig, clone []float32 }{{n.Params(), c.Params()}, {g.Vec(), gc.Vec()}} {
		want := append([]float32(nil), p.clone...)
		for i := range p.orig {
			p.orig[i] += 1
		}
		for i := range p.clone {
			if p.clone[i] != want[i] {
				t.Fatalf("clone value %d moved with the original", i)
			}
		}
	}
}

// BenchmarkNewNetwork times building and initialising a network at
// train_dense's geometry (IMDB at H=64, D=16, L=3).
func BenchmarkNewNetwork(b *testing.B) {
	cfg := Config{InputSize: 16, Hidden: 64, Layers: 3, SeqLen: 100, Batch: 16, OutSize: 2, Loss: SingleLoss}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewNetwork(cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
