package model

import (
	"fmt"
	"math"
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

// wavefrontNet builds a network whose sweeps cross the kernels' fan-out
// threshold from five row-steps on (13 312 MACs per row-step at two
// layers), so at Workers > 1 they run as a layer wavefront.
func wavefrontNet(t testing.TB, layers int) *Network {
	t.Helper()
	cfg := Config{InputSize: 8, Hidden: 32, Layers: layers, SeqLen: 9, Batch: 1, OutSize: 3, Loss: SingleLoss}
	net, err := NewNetwork(cfg, rng.New(uint64(40+layers)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// wavefrontReqs builds batch requests of mixed lengths in 1..9: the
// first is 9 steps long, the second (when there is one) a single step,
// and every third carries a random state in.
func wavefrontReqs(net *Network, batch int, r *rng.RNG) []InferSeq {
	cfg := net.Cfg
	reqs := make([]InferSeq, batch)
	for i := range reqs {
		steps := 1 + r.Intn(9)
		switch i {
		case 0:
			steps = 9
		case 1:
			steps = 1
		}
		reqs[i].Inputs = randomSeq(r, steps, cfg.InputSize)
		if i%3 == 2 {
			st := &VecState{}
			for l := 0; l < cfg.Layers; l++ {
				st.H = append(st.H, randomSeq(r, 1, cfg.Hidden)[0])
				st.S = append(st.S, randomSeq(r, 1, cfg.Hidden)[0])
			}
			reqs[i].State = st
		}
	}
	return reqs
}

// sameInferOuts reports the first bitwise difference between two
// results, "" when there is none.
func sameInferOuts(got, want []InferOut) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	same := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	for i := range want {
		if !same(got[i].Output, want[i].Output) {
			return fmt.Sprintf("request %d output", i)
		}
		for l := range want[i].State.H {
			if !same(got[i].State.H[l], want[i].State.H[l]) || !same(got[i].State.S[l], want[i].State.S[l]) {
				return fmt.Sprintf("request %d layer %d state", i, l)
			}
		}
	}
	return ""
}

// TestInferBatchWavefrontBitwise is the wavefront's bitwise matrix:
// every kernel worker count, depth, batch size and arena choice gives
// the outputs and carried-out states of the one-worker schedule, which
// in turn match the training forward (ForwardCheckpointed) request by
// request. With more than one worker and more than one layer the sweep
// must actually have run on the stage arenas.
func TestInferBatchWavefrontBitwise(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	r := rng.New(17)
	for _, layers := range []int{1, 2, 3, 5} {
		net := wavefrontNet(t, layers)
		for _, batch := range []int{1, 2, 7, 33} {
			reqs := wavefrontReqs(net, batch, r)
			tensor.SetWorkers(1)
			want, err := net.InferBatch(nil, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				out, st := referenceInfer(t, net, reqs[i])
				ref := InferOut{Output: out, State: &VecState{}}
				for l := 0; l < layers; l++ {
					ref.State.H = append(ref.State.H, st.H[l].Row(0))
					ref.State.S = append(ref.State.S, st.S[l].Row(0))
				}
				if d := sameInferOuts(want[i:i+1], []InferOut{ref}); d != "" {
					t.Fatalf("layers=%d batch=%d: one-worker sweep differs from ForwardCheckpointed at request %d: %s",
						layers, batch, i, d)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				tensor.SetWorkers(workers)
				for _, ws := range []*tensor.Workspace{nil, tensor.NewWorkspace()} {
					// The second pass runs on a warm arena.
					for pass := 0; pass < 2; pass++ {
						got, err := net.InferBatch(ws, reqs)
						if err != nil {
							t.Fatal(err)
						}
						if d := sameInferOuts(got, want); d != "" {
							t.Fatalf("layers=%d batch=%d workers=%d arena=%v pass %d: %s differs from the one-worker schedule",
								layers, batch, workers, ws != nil, pass, d)
						}
					}
					if ws == nil {
						continue
					}
					staged := ws.Stage(0).Stats().Gets > 0
					if wantStaged := workers > 1 && layers > 1; staged != wantStaged {
						t.Fatalf("layers=%d batch=%d workers=%d: ran on stage arenas = %v, want %v",
							layers, batch, workers, staged, wantStaged)
					}
					if st := ws.Stats(); st.Gets != st.Puts {
						t.Fatalf("layers=%d batch=%d workers=%d: %d Gets vs %d Puts",
							layers, batch, workers, st.Gets, st.Puts)
					}
				}
			}
		}
	}
}

// TestInferBatchWarmAllocs pins a warm sweep's allocations at the
// served geometry (BenchmarkInferBatchWarm's): 13 for the serial loop
// and 18 for the layer wavefront, which adds a wake channel per layer
// and a goroutine per helper layer. None of them scales with the
// sequence: a 64-step sweep allocates as much as a 32-step one.
func TestInferBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own around goroutines")
	}
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	cfg := Config{InputSize: 16, Hidden: 64, Layers: 3, SeqLen: 32, Batch: 1, OutSize: 2, Loss: SingleLoss}
	net, err := NewNetwork(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workers int
		bound   float64
	}{{1, 13}, {2, 18}} {
		tensor.SetWorkers(c.workers)
		var per [2]float64
		for i, steps := range []int{32, 64} {
			reqs := []InferSeq{{Inputs: randomSeq(rng.New(2), steps, cfg.InputSize)}}
			ws := tensor.NewWorkspace()
			for warm := 0; warm < 3; warm++ {
				if _, err := net.InferBatch(ws, reqs); err != nil {
					t.Fatal(err)
				}
			}
			per[i] = testing.AllocsPerRun(20, func() {
				if _, err := net.InferBatch(ws, reqs); err != nil {
					t.Fatal(err)
				}
			})
		}
		if per[0] > c.bound || per[1] != per[0] {
			t.Errorf("workers=%d: warm sweep allocates %v (32 steps) and %v (64 steps), want at most %v for both",
				c.workers, per[0], per[1], c.bound)
		}
	}
}
