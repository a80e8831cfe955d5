package model

import (
	"testing"

	"etalstm/internal/lstm"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

// TestStateContinuity: running 2T steps in one pass must equal running
// two T-step chunks with carried state — the truncated-BPTT forward
// contract.
func TestStateContinuity(t *testing.T) {
	const T = 3
	longCfg := Config{InputSize: 4, Hidden: 5, Layers: 2, SeqLen: 2 * T,
		Batch: 2, OutSize: 3, Loss: PerTimestampLoss}
	chunkCfg := longCfg
	chunkCfg.SeqLen = T

	r := rng.New(1)
	long, _ := NewNetwork(longCfg, rng.New(7))
	chunked, _ := NewNetwork(chunkCfg, rng.New(7)) // identical weights

	xs := make([]*tensor.Matrix, 2*T)
	for i := range xs {
		xs[i] = tensor.New(2, 4)
		xs[i].RandInit(r, 1)
	}

	resLong, err := long.Forward(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	res1, st, err := chunked.ForwardCheckpointed(xs[:T], nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := chunked.ForwardCheckpointed(xs[T:], nil, nil, st, nil)
	if err != nil {
		t.Fatal(err)
	}

	top := longCfg.Layers - 1
	for i := 0; i < T; i++ {
		if !resLong.H[top][i].Equal(res1.H[top][i], 1e-6) {
			t.Fatalf("chunk 1 step %d diverges", i)
		}
		if !resLong.H[top][T+i].Equal(res2.H[top][i], 1e-6) {
			t.Fatalf("chunk 2 step %d diverges", i)
		}
	}
}

func TestStateValidation(t *testing.T) {
	cfg := Config{InputSize: 3, Hidden: 4, Layers: 2, SeqLen: 2,
		Batch: 2, OutSize: 2, Loss: SingleLoss}
	n, _ := NewNetwork(cfg, rng.New(1))
	xs := []*tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3)}
	bad := &State{H: []*tensor.Matrix{tensor.New(2, 4)}, S: []*tensor.Matrix{tensor.New(2, 4)}}
	if _, _, err := n.ForwardCheckpointed(xs, nil, nil, bad, nil); err == nil {
		t.Fatal("expected error for wrong state layer count")
	}
}

func TestZeroStateShapes(t *testing.T) {
	cfg := Config{InputSize: 3, Hidden: 4, Layers: 3, SeqLen: 2,
		Batch: 5, OutSize: 2, Loss: SingleLoss}
	n, _ := NewNetwork(cfg, rng.New(2))
	st := n.ZeroState()
	if len(st.H) != 3 || len(st.S) != 3 {
		t.Fatal("state layer count")
	}
	if st.H[0].Rows != 5 || st.H[0].Cols != 4 {
		t.Fatal("state shape")
	}
}

func TestCallerStateImmutable(t *testing.T) {
	cfg := Config{InputSize: 3, Hidden: 4, Layers: 1, SeqLen: 2,
		Batch: 2, OutSize: 2, Loss: SingleLoss}
	n, _ := NewNetwork(cfg, rng.New(3))
	r := rng.New(4)
	st := n.ZeroState()
	st.H[0].RandInit(r, 1)
	before := st.H[0].Clone()
	xs := []*tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3)}
	xs[0].RandInit(r, 1)
	xs[1].RandInit(r, 1)
	if _, _, err := n.ForwardCheckpointed(xs, nil, nil, st, nil); err != nil {
		t.Fatal(err)
	}
	if !st.H[0].Equal(before, 0) {
		t.Fatal("the forward pass must not mutate the caller's state")
	}
}

// TestStatefulBackwardGradCheck: gradients with a nonzero carried-in
// state must still be exact (the t=0 cell's h_{t-1} is the state, not
// zeros) — covering the P1 path's initState handling.
func TestStatefulBackwardGradCheck(t *testing.T) {
	cfg := Config{InputSize: 3, Hidden: 3, Layers: 2, SeqLen: 2,
		Batch: 2, OutSize: 3, Loss: PerTimestampLoss}
	n, _ := NewNetwork(cfg, rng.New(5))
	r := rng.New(6)
	st := n.ZeroState()
	for l := range st.H {
		st.H[l].RandInit(r, 0.5)
		st.S[l].RandInit(r, 0.5)
	}
	xs := make([]*tensor.Matrix, cfg.SeqLen)
	for i := range xs {
		xs[i] = tensor.New(cfg.Batch, cfg.InputSize)
		xs[i].RandInit(r, 1)
	}
	tg := &Targets{Classes: make([][]int, cfg.SeqLen)}
	for i := range tg.Classes {
		tg.Classes[i] = make([]int, cfg.Batch)
		for b := range tg.Classes[i] {
			tg.Classes[i][b] = r.Intn(cfg.OutSize)
		}
	}

	// Gradients must be identical between the raw-cache policy and the
	// P1 policy under a carried state (they compute the same math).
	resRaw, _, err := n.ForwardCheckpointed(xs, tg, BaselinePolicy(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	gRaw := n.NewGradients()
	if err := n.Backward(resRaw, BaselinePolicy(), gRaw, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}

	resP1, _, err := n.ForwardCheckpointed(xs, tg, P1Policy(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	gP1 := n.NewGradients()
	if err := n.Backward(resP1, P1Policy(), gP1, BackwardOpts{}); err != nil {
		t.Fatal(err)
	}

	for l := range gRaw.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			if !gRaw.Layer[l].U[g].Equal(gP1.Layer[l].U[g], 1e-5) {
				t.Fatalf("layer %d U[%v]: P1 path mishandles the carried state", l, g)
			}
			if !gRaw.Layer[l].W[g].Equal(gP1.Layer[l].W[g], 1e-5) {
				t.Fatalf("layer %d W[%v] diverges under carried state", l, g)
			}
		}
	}
}
