package model

import (
	"fmt"
	"testing"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func inferTestNet(t *testing.T) *Network {
	t.Helper()
	cfg := Config{InputSize: 5, Hidden: 9, Layers: 3, SeqLen: 6, Batch: 4, OutSize: 7, Loss: SingleLoss}
	net, err := NewNetwork(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randomSeq(r *rng.RNG, steps, width int) [][]float32 {
	xs := make([][]float32, steps)
	for t := range xs {
		xs[t] = make([]float32, width)
		for j := range xs[t] {
			xs[t][j] = r.Uniform(-1, 1)
		}
	}
	return xs
}

// referenceInfer runs one request through the training-path forward
// (ForwardCheckpointed on a Batch=1 clone) and projects the final hidden row —
// the oracle the packed batched sweep must match bitwise.
func referenceInfer(t *testing.T, net *Network, seq InferSeq) (output []float32, st *State) {
	t.Helper()
	ref := net.Clone()
	ref.Cfg.Batch = 1
	ref.Cfg.SeqLen = len(seq.Inputs)
	xs := make([]*tensor.Matrix, len(seq.Inputs))
	for i, x := range seq.Inputs {
		xs[i] = tensor.NewFromData(1, len(x), append([]float32(nil), x...))
	}
	var in *State
	if seq.State != nil {
		in = &State{}
		for l := 0; l < ref.Cfg.Layers; l++ {
			in.H = append(in.H, tensor.NewFromData(1, ref.Cfg.Hidden, append([]float32(nil), seq.State.H[l]...)))
			in.S = append(in.S, tensor.NewFromData(1, ref.Cfg.Hidden, append([]float32(nil), seq.State.S[l]...)))
		}
	}
	res, out, err := ref.ForwardCheckpointed(xs, nil, nil, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := res.H[ref.Cfg.Layers-1][len(seq.Inputs)-1]
	logits := tensor.MatMul(nil, top, ref.Proj)
	tensor.AddRowVector(logits, logits, ref.ProjB)
	return logits.Row(0), out
}

// TestInferBatchMatchesForward packs requests of different lengths,
// with and without carried-in state, and checks every output and
// carried-out state row bitwise against the Batch=1 training forward.
func TestInferBatchMatchesForward(t *testing.T) {
	net := inferTestNet(t)
	r := rng.New(99)
	lens := []int{4, 1, 6, 4, 2}
	reqs := make([]InferSeq, len(lens))
	for i, L := range lens {
		reqs[i] = InferSeq{Inputs: randomSeq(r, L, net.Cfg.InputSize)}
	}
	// Give one request a non-zero carried-in state.
	st := &VecState{}
	for l := 0; l < net.Cfg.Layers; l++ {
		h := make([]float32, net.Cfg.Hidden)
		s := make([]float32, net.Cfg.Hidden)
		for j := range h {
			h[j], s[j] = r.Uniform(-1, 1), r.Uniform(-1, 1)
		}
		st.H = append(st.H, h)
		st.S = append(st.S, s)
	}
	reqs[3].State = st

	for _, ws := range []*tensor.Workspace{nil, tensor.NewWorkspace()} {
		outs, err := net.InferBatch(ws, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(reqs) {
			t.Fatalf("got %d outputs, want %d", len(outs), len(reqs))
		}
		for i := range reqs {
			wantOut, wantState := referenceInfer(t, net, reqs[i])
			for j := range wantOut {
				if outs[i].Output[j] != wantOut[j] {
					t.Fatalf("req %d output[%d] = %v, want %v (bitwise)", i, j, outs[i].Output[j], wantOut[j])
				}
			}
			for l := 0; l < net.Cfg.Layers; l++ {
				for j := 0; j < net.Cfg.Hidden; j++ {
					if outs[i].State.H[l][j] != wantState.H[l].Row(0)[j] {
						t.Fatalf("req %d state H[%d][%d] mismatch", i, l, j)
					}
					if outs[i].State.S[l][j] != wantState.S[l].Row(0)[j] {
						t.Fatalf("req %d state S[%d][%d] mismatch", i, l, j)
					}
				}
			}
		}
	}
}

// TestInferBatchStateCarry splits one sequence across two calls via the
// carried state and checks the result is bitwise identical to the
// single-shot run — the streaming-session contract.
func TestInferBatchStateCarry(t *testing.T) {
	net := inferTestNet(t)
	r := rng.New(3)
	full := randomSeq(r, 6, net.Cfg.InputSize)

	whole, err := net.InferBatch(nil, []InferSeq{{Inputs: full}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.InferBatch(nil, []InferSeq{{Inputs: full[:4]}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := net.InferBatch(nil, []InferSeq{{Inputs: full[4:], State: first[0].State}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range whole[0].Output {
		if whole[0].Output[j] != second[0].Output[j] {
			t.Fatalf("output[%d]: chunked %v != single-shot %v", j, second[0].Output[j], whole[0].Output[j])
		}
	}
	for l := 0; l < net.Cfg.Layers; l++ {
		for j := 0; j < net.Cfg.Hidden; j++ {
			if whole[0].State.H[l][j] != second[0].State.H[l][j] ||
				whole[0].State.S[l][j] != second[0].State.S[l][j] {
				t.Fatalf("state layer %d col %d diverged across the chunk boundary", l, j)
			}
		}
	}
}

// TestInferBatchWorkspaceBalance checks the packed sweep returns every
// scratch buffer it takes: after a call, the arena holds as many
// buffers as Gets minus what the results own (results copy out, so
// everything goes back).
func TestInferBatchWorkspaceBalance(t *testing.T) {
	net := inferTestNet(t)
	r := rng.New(5)
	ws := tensor.NewWorkspace()
	reqs := []InferSeq{
		{Inputs: randomSeq(r, 3, net.Cfg.InputSize)},
		{Inputs: randomSeq(r, 5, net.Cfg.InputSize)},
	}
	if _, err := net.InferBatch(ws, reqs); err != nil {
		t.Fatal(err)
	}
	st := ws.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("workspace leak: %d Gets vs %d Puts", st.Gets, st.Puts)
	}
	// A second identical call must be served entirely from the arena.
	before := ws.Stats().Misses
	if _, err := net.InferBatch(ws, reqs); err != nil {
		t.Fatal(err)
	}
	if after := ws.Stats().Misses; after != before {
		t.Errorf("second call allocated %d fresh buffers, want 0", after-before)
	}
}

func TestInferBatchValidation(t *testing.T) {
	net := inferTestNet(t)
	r := rng.New(11)
	good := randomSeq(r, 3, net.Cfg.InputSize)
	cases := []struct {
		name string
		seq  InferSeq
	}{
		{"empty", InferSeq{}},
		{"bad width", InferSeq{Inputs: randomSeq(r, 2, net.Cfg.InputSize+1)}},
		{"bad state layers", InferSeq{Inputs: good, State: &VecState{H: make([][]float32, 1), S: make([][]float32, 1)}}},
		{"bad state width", InferSeq{Inputs: good, State: &VecState{
			H: [][]float32{make([]float32, 2), make([]float32, 2), make([]float32, 2)},
			S: [][]float32{make([]float32, 2), make([]float32, 2), make([]float32, 2)},
		}}},
	}
	for _, c := range cases {
		if err := net.CheckInferSeq(c.seq); err == nil {
			t.Errorf("%s: CheckInferSeq accepted an invalid request", c.name)
		}
		if _, err := net.InferBatch(nil, []InferSeq{c.seq}); err == nil {
			t.Errorf("%s: InferBatch accepted an invalid request", c.name)
		}
	}
	if err := net.CheckInferSeq(InferSeq{Inputs: good}); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestInferBatchEmpty(t *testing.T) {
	net := inferTestNet(t)
	outs, err := net.InferBatch(nil, nil)
	if err != nil || outs != nil {
		t.Fatalf("empty batch: got %v, %v; want nil, nil", outs, err)
	}
}

// BenchmarkInferBatchPacked measures the packed sweep at a serving-like
// batch, the kernel the micro-batcher amortizes requests into.
func BenchmarkInferBatchPacked(b *testing.B) {
	cfg := Config{InputSize: 32, Hidden: 128, Layers: 2, SeqLen: 8, Batch: 1, OutSize: 16, Loss: SingleLoss}
	net, err := NewNetwork(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for _, n := range []int{1, 32} {
		reqs := make([]InferSeq, n)
		for i := range reqs {
			reqs[i] = InferSeq{Inputs: randomSeq(r, 8, cfg.InputSize)}
		}
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			ws := tensor.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := net.InferBatch(ws, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInferBatchWarm is the serve_mixed benchmark workload's warm
// request: one 32-step sequence through the IMDB geometry it serves
// (input 16, H=64, 3 layers), on a warm workspace.
func BenchmarkInferBatchWarm(b *testing.B) {
	cfg := Config{InputSize: 16, Hidden: 64, Layers: 3, SeqLen: 32, Batch: 1, OutSize: 2, Loss: SingleLoss}
	net, err := NewNetwork(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	reqs := []InferSeq{{Inputs: randomSeq(rng.New(2), 32, cfg.InputSize)}}
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.InferBatch(ws, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
