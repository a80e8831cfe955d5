package model

import (
	"strings"
	"testing"

	"etalstm/internal/lstm"
	"etalstm/internal/obs"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func ckptConfig(loss LossKind) Config {
	return Config{
		InputSize: 5, Hidden: 4, Layers: 2, SeqLen: 8,
		Batch: 2, OutSize: 6, Loss: loss,
	}
}

func ckptTargets(cfg Config, r *rng.RNG) *Targets {
	if cfg.Loss == RegressionLoss {
		tg := &Targets{Regress: make([]*tensor.Matrix, cfg.SeqLen)}
		for i := range tg.Regress {
			tg.Regress[i] = tensor.New(cfg.Batch, cfg.OutSize)
			tg.Regress[i].RandInit(r, 1)
		}
		return tg
	}
	return makeClassTargets(cfg, r)
}

// matEq asserts bitwise equality of two matrices.
func matEq(t *testing.T, name string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for k := range a.Data {
		if a.Data[k] != b.Data[k] {
			t.Fatalf("%s: element %d differs: %g vs %g", name, k, a.Data[k], b.Data[k])
		}
	}
}

func gradsEq(t *testing.T, a, b *Gradients) {
	t.Helper()
	matEq(t, "Proj", a.Proj, b.Proj)
	for i := range a.ProjB {
		if a.ProjB[i] != b.ProjB[i] {
			t.Fatalf("ProjB[%d]: %g vs %g", i, a.ProjB[i], b.ProjB[i])
		}
	}
	for l := range a.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			matEq(t, "W", a.Layer[l].W[g], b.Layer[l].W[g])
			matEq(t, "U", a.Layer[l].U[g], b.Layer[l].U[g])
			for i := range a.Layer[l].B[g] {
				if a.Layer[l].B[g][i] != b.Layer[l].B[g][i] {
					t.Fatalf("B[%d][%v][%d] differs", l, g, i)
				}
			}
		}
	}
	if a.SkippedCells != b.SkippedCells || a.ExecutedCells != b.ExecutedCells {
		t.Fatalf("cell counters differ: %d/%d vs %d/%d",
			a.SkippedCells, a.ExecutedCells, b.SkippedCells, b.ExecutedCells)
	}
}

// runFull runs the full-storage (one-segment) FW+BP pair on a fresh clone.
func runFull(t *testing.T, n *Network, xs []*tensor.Matrix, tg *Targets, policy StoragePolicy, state *State) (*Gradients, *ForwardResult) {
	t.Helper()
	res, _, err := n.ForwardCheckpointed(xs, tg, policy, state, nil)
	if err != nil {
		t.Fatal(err)
	}
	grads := n.NewGradients()
	// Snapshot the loss fields before Backward consumes res.
	snap := &ForwardResult{Loss: res.Loss, PerStepLoss: append([]float64(nil), res.PerStepLoss...)}
	if err := n.Backward(res, policy, grads, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}
	return grads, snap
}

func runCkpt(t *testing.T, n *Network, xs []*tensor.Matrix, tg *Targets, policy StoragePolicy, state *State, boundaries []int) (*Gradients, *ForwardResult) {
	t.Helper()
	res, _, err := n.ForwardCheckpointed(xs, tg, policy, state, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	grads := n.NewGradients()
	if err := n.BackwardCheckpointed(res, policy, grads, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}
	return grads, res
}

func boundarySets(seqLen int) map[string][]int {
	everyStep := make([]int, seqLen)
	for t := range everyStep {
		everyStep[t] = t
	}
	return map[string][]int{
		"full":    {0},
		"mid":     {0, seqLen / 2},
		"thirds":  {0, seqLen / 3, 2 * seqLen / 3},
		"densest": everyStep,
	}
}

func TestCheckpointedBitwiseMatchesFull(t *testing.T) {
	policies := map[string]StoragePolicy{
		"raw": BaselinePolicy(),
		"p1":  P1Policy(),
		"mixed": PolicyFunc(func(l, ts int) CellStore {
			if (l+ts)%3 == 0 {
				return StoreNone
			}
			return StoreP1
		}),
	}
	for _, kind := range []LossKind{SingleLoss, PerTimestampLoss, RegressionLoss} {
		cfg := ckptConfig(kind)
		r := rng.New(7)
		base, err := NewNetwork(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		xs := makeInputs(cfg, r)
		tg := ckptTargets(cfg, r)
		for pname, policy := range policies {
			wantG, wantRes := runFull(t, base.Clone(), xs, tg, policy, nil)
			for bname, bnd := range boundarySets(cfg.SeqLen) {
				gotG, gotRes := runCkpt(t, base.Clone(), xs, tg, policy, nil, bnd)
				if gotRes.Loss != wantRes.Loss {
					t.Fatalf("%v/%s/%s: loss %v != full %v", kind, pname, bname, gotRes.Loss, wantRes.Loss)
				}
				for ts := range wantRes.PerStepLoss {
					if gotRes.PerStepLoss[ts] != wantRes.PerStepLoss[ts] {
						t.Fatalf("%v/%s/%s: per-step loss %d differs", kind, pname, bname, ts)
					}
				}
				gradsEq(t, gotG, wantG)
			}
		}
	}
}

func TestCheckpointedStateCarry(t *testing.T) {
	cfg := ckptConfig(PerTimestampLoss)
	r := rng.New(11)
	base, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	warm := makeInputs(cfg, r)
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)

	// Produce a carried-in state with a warmup chunk.
	_, state, err := base.Clone().ForwardCheckpointed(warm, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantG, wantRes := runFull(t, base.Clone(), xs, tg, P1Policy(), state)
	gotG, gotRes := runCkpt(t, base.Clone(), xs, tg, P1Policy(), state, []int{0, 3, 6})
	if gotRes.Loss != wantRes.Loss {
		t.Fatalf("carried-state loss %v != %v", gotRes.Loss, wantRes.Loss)
	}
	gradsEq(t, gotG, wantG)
}

func TestCheckpointedOutStateMatchesFull(t *testing.T) {
	cfg := ckptConfig(SingleLoss)
	r := rng.New(3)
	base, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	_, wantOut, err := base.Clone().ForwardCheckpointed(xs, tg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, gotOut, err := base.Clone().ForwardCheckpointed(xs, tg, nil, nil, []int{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	for l := range wantOut.H {
		matEq(t, "out.H", gotOut.H[l], wantOut.H[l])
		matEq(t, "out.S", gotOut.S[l], wantOut.S[l])
	}
}

func TestCheckpointedNoArenaBitwise(t *testing.T) {
	cfg := ckptConfig(PerTimestampLoss)
	r := rng.New(5)
	base, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	arena := base.Clone()
	bare := base.Clone()
	bare.DisableWorkspace()
	gotA, resA := runCkpt(t, arena, xs, tg, nil, nil, []int{0, 4})
	gotB, resB := runCkpt(t, bare, xs, tg, nil, nil, []int{0, 4})
	if resA.Loss != resB.Loss {
		t.Fatalf("arena loss %v != no-arena %v", resA.Loss, resB.Loss)
	}
	gradsEq(t, gotA, gotB)
}

func TestCheckpointedBoundaryValidation(t *testing.T) {
	cfg := ckptConfig(SingleLoss)
	r := rng.New(9)
	n, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	for _, bad := range [][]int{{1}, {0, 0}, {0, 5, 3}, {0, cfg.SeqLen}} {
		if _, _, err := n.ForwardCheckpointed(xs, tg, nil, nil, bad); err == nil {
			t.Errorf("boundaries %v should be rejected", bad)
		}
	}
}

func TestCheckpointedConsumedResultErrors(t *testing.T) {
	cfg := ckptConfig(SingleLoss)
	r := rng.New(13)
	n, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	res, _, err := n.ForwardCheckpointed(xs, tg, nil, nil, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BackwardCheckpointed(res, nil, n.NewGradients(), BackwardOpts{}); err != nil {
		t.Fatal(err)
	}
	err = n.BackwardCheckpointed(res, nil, n.NewGradients(), BackwardOpts{})
	if err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("reusing a consumed result should error, got %v", err)
	}

	// Targets are required: without them there are no dLogits to recompute.
	res2, _, err := n.ForwardCheckpointed(xs, nil, nil, nil, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BackwardCheckpointed(res2, nil, n.NewGradients(), BackwardOpts{}); err == nil {
		t.Fatal("backward without targets should error")
	}
}

func TestCheckpointedTrackerBalances(t *testing.T) {
	cfg := ckptConfig(PerTimestampLoss)
	r := rng.New(17)
	n, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	// Full storage (the one-segment plan) recomputes nothing; four
	// segments replay the first three (6 steps).
	for _, c := range []struct {
		boundaries []int
		recomputed int
	}{{nil, 0}, {[]int{0, 2, 4, 6}, cfg.Layers * 6}} {
		res, _, err := n.ForwardCheckpointed(xs, tg, nil, nil, c.boundaries)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakStoredBytes() <= 0 {
			t.Fatal("peak stored bytes should be positive after FW")
		}
		if err := n.BackwardCheckpointed(res, nil, n.NewGradients(), BackwardOpts{}); err != nil {
			t.Fatal(err)
		}
		if res.tracker.cur != 0 {
			t.Fatalf("%v: tracker should balance to zero after BP, got %d", c.boundaries, res.tracker.cur)
		}
		if res.RecomputedCells() != c.recomputed {
			t.Fatalf("%v: recomputed cells: got %d, want %d", c.boundaries, res.RecomputedCells(), c.recomputed)
		}
	}
}

func TestCheckpointedRecomputeSpanRecorded(t *testing.T) {
	cfg := ckptConfig(SingleLoss)
	r := rng.New(19)
	n, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	n.Workspace().SetRecorder(rec)
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	res, _, err := n.ForwardCheckpointed(xs, tg, nil, nil, []int{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BackwardCheckpointed(res, nil, n.NewGradients(), BackwardOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().N[obs.PhaseRecomputeFW]; got != 2 {
		t.Fatalf("recompute-FW spans: got %d, want one per replayed segment (2)", got)
	}
	if rec.Snapshot().N[obs.PhaseBPMatMul] == 0 || rec.Snapshot().N[obs.PhaseFW] == 0 {
		t.Fatal("FW/BP phases should still record")
	}
}

func TestCheckpointedHooks(t *testing.T) {
	cfg := ckptConfig(PerTimestampLoss)
	r := rng.New(23)
	n, err := NewNetwork(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	xs := makeInputs(cfg, r)
	tg := ckptTargets(cfg, r)
	res, _, err := n.ForwardCheckpointed(xs, tg, P1Policy(), nil, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	var p1Cells, onCells int
	seen := make(map[[2]int]bool)
	opts := BackwardOpts{
		OnP1: func(l, ts int, p1 *lstm.P1) {
			p1Cells++
			key := [2]int{l, ts}
			if seen[key] {
				t.Fatalf("cell (%d,%d) saw OnP1 twice — prune would double-apply", l, ts)
			}
			seen[key] = true
		},
		OnCell: func(l, ts int, cell *lstm.Grads) { onCells++ },
	}
	grads := n.NewGradients()
	if err := n.BackwardCheckpointed(res, P1Policy(), grads, opts); err != nil {
		t.Fatal(err)
	}
	want := cfg.Layers * cfg.SeqLen
	if p1Cells != want {
		t.Fatalf("OnP1 invocations: got %d, want every P1 cell (%d)", p1Cells, want)
	}
	if onCells != grads.ExecutedCells || onCells != want {
		t.Fatalf("OnCell invocations: got %d, want %d", onCells, want)
	}
}
