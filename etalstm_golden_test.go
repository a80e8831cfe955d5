package etalstm

import (
	"context"
	"fmt"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/rng"
)

// golden is one pinned run: per-epoch mean losses as exact hex floats
// plus the final parameter checksum.
type golden struct {
	losses   []string
	checksum uint64
}

func hexFloats(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%x", x)
	}
	return out
}

func (g golden) check(t *testing.T, name string, want golden) {
	t.Helper()
	if fmt.Sprint(g.losses) != fmt.Sprint(want.losses) {
		t.Errorf("%s losses:\n got  %q\n want %q", name, g.losses, want.losses)
	}
	if g.checksum != want.checksum {
		t.Errorf("%s parameter checksum: got %#x, want %#x", name, g.checksum, want.checksum)
	}
}

// TestLossKindBitwiseGolden extends TestSerialBitwiseGolden's single-loss
// IMDB pin to the per-timestamp (WMT) and regression (WAYMO) losses, in
// Baseline and MS1, serial and data-parallel. The values were recorded
// before full-storage BPTT was folded into the checkpoint driver, so any
// float-level reordering of the loss seeds, the projection gradient or
// the reverse sweep trips this test.
func TestLossKindBitwiseGolden(t *testing.T) {
	want := map[string]golden{
		"WMT/Baseline/1": {
			losses:   []string{"0x1.0a0f2af4206c8p+02", "0x1.07da931155e4ep+02", "0x1.059a12adf2957p+02"},
			checksum: 0x1110f3416a72,
		},
		"WMT/Baseline/4": {
			losses:   []string{"0x1.0a2693acafc6dp+02", "0x1.0936f0c3c06eap+02", "0x1.0840bc6037d59p+02"},
			checksum: 0x1128436d3718,
		},
		"WMT/MS1/1": {
			losses:   []string{"0x1.0a0fb5ca57e7p+02", "0x1.0810af05bba17p+02", "0x1.05f7978f75434p+02"},
			checksum: 0x111e9fbfab56,
		},
		"WMT/MS1/4": {
			losses:   []string{"0x1.0a258d7202f18p+02", "0x1.09471ce4ed76dp+02", "0x1.087193a62a2f3p+02"},
			checksum: 0x1128e924e354,
		},
		"WAYMO/Baseline/1": {
			losses:   []string{"0x1.bc2171964a41dp-02", "0x1.13e36907dd60dp-02", "0x1.a7254393bc799p-03"},
			checksum: 0xad02a4b3d47,
		},
		"WAYMO/Baseline/4": {
			losses:   []string{"0x1.219949c730cfcp-01", "0x1.a1ef949172b6ap-02", "0x1.4af1f4ad5e687p-02"},
			checksum: 0xacf79f429db,
		},
		"WAYMO/MS1/1": {
			losses:   []string{"0x1.beeb785a408c4p-02", "0x1.168c16eaf892cp-02", "0x1.b3d57fc2ababp-03"},
			checksum: 0xadcd4dc486c,
		},
		"WAYMO/MS1/4": {
			losses:   []string{"0x1.220a81d18f584p-01", "0x1.a754bc2e1d2bcp-02", "0x1.51d271ebaf961p-02"},
			checksum: 0xacf818e6bd7,
		},
	}
	for _, name := range []string{"WMT", "WAYMO"} {
		bench, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		small := bench.Scaled(64, 12, 8)
		for _, mode := range []Mode{Baseline, MS1} {
			for _, workers := range []int{1, 4} {
				net, err := NewNetwork(small.Cfg, 42)
				if err != nil {
					t.Fatal(err)
				}
				tr := NewTrainer(net, mode, TrainerOptions{Workers: workers})
				if _, err := tr.Run(context.Background(), small.Provider(8, 1), 3); err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%v/%d", name, mode, workers)
				golden{hexFloats(tr.Losses()), paramChecksum(net)}.check(t, key, want[key])
			}
		}
	}
}

// TestTruncatedBPTTGolden pins a manual truncated-BPTT loop — the
// examples/languagemodel shape: recurrent state carried across chunks,
// one optimizer step per chunk — under raw and P1 storage. The carried-in
// state is the h_{t-1} of each chunk's first P1 cell, so this is the
// run that exercises the initial-state paths of the FW and BP sweeps.
func TestTruncatedBPTTGolden(t *testing.T) {
	want := map[string]golden{
		"raw": {
			losses:   []string{"0x1.f06c6d4426c4bp+00", "0x1.e87f27b6b85b6p+00", "0x1.e29dbc00b9e26p+00"},
			checksum: 0x30e3f139352,
		},
		"P1": {
			losses:   []string{"0x1.f06c6d3c19526p+00", "0x1.e87f27b81fbd6p+00", "0x1.e29dbbe2ab421p+00"},
			checksum: 0x30e3f139596,
		},
	}
	cfg := Config{InputSize: 6, Hidden: 10, Layers: 2, SeqLen: 5, Batch: 3, OutSize: 7, Loss: PerTimestampLoss}
	const chunks, epochs = 4, 3
	r := rng.New(5)
	stream := make([][]int, cfg.Batch)
	for b := range stream {
		for i := 0; i <= chunks*cfg.SeqLen; i++ {
			stream[b] = append(stream[b], r.Intn(cfg.OutSize))
		}
	}
	table := NewMatrix(cfg.OutSize, cfg.InputSize)
	table.RandInit(r, 1)
	chunk := func(c int) ([]*Matrix, *Targets) {
		xs := make([]*Matrix, cfg.SeqLen)
		tg := &Targets{Classes: make([][]int, cfg.SeqLen)}
		for ts := range xs {
			xs[ts] = NewMatrix(cfg.Batch, cfg.InputSize)
			tg.Classes[ts] = make([]int, cfg.Batch)
			for b := 0; b < cfg.Batch; b++ {
				i := c*cfg.SeqLen + ts
				copy(xs[ts].Row(b), table.Row(stream[b][i]))
				tg.Classes[ts][b] = stream[b][i+1]
			}
		}
		return xs, tg
	}
	for name, policy := range map[string]StoragePolicy{"raw": nil, "P1": model.P1Policy()} {
		net, err := NewNetwork(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		opt := &Adam{LR: 0.01}
		var losses []float64
		for e := 0; e < epochs; e++ {
			state := net.ZeroState()
			var total float64
			for c := 0; c < chunks; c++ {
				xs, tg := chunk(c)
				res, next, err := net.ForwardCheckpointed(xs, tg, policy, state, nil)
				if err != nil {
					t.Fatal(err)
				}
				grads := net.NewGradients()
				if err := net.BackwardCheckpointed(res, policy, grads, BackwardOpts{}); err != nil {
					t.Fatal(err)
				}
				opt.Step(net, grads)
				state = next
				total += res.Loss
			}
			losses = append(losses, total/chunks)
		}
		golden{hexFloats(losses), paramChecksum(net)}.check(t, name, want[name])
	}
}

// TestEvaluateGolden pins the forward-only evaluators on briefly trained
// networks: Evaluate's loss and accuracy for the single-loss,
// per-timestamp and regression kinds, and EvaluateMAE.
func TestEvaluateGolden(t *testing.T) {
	want := map[string][]string{
		"IMDB":  {"0x1.490a1ea6c696dp+00", "0x1.8p-02"},
		"WMT":   {"0x1.0a99a3f66d4bcp+02", "0x1.c71c71c71c71cp-09"},
		"WAYMO": {"0x1.f1b7bdfaba0f5p-03", "0x0p+00", "0x1.750b91708ap-02"},
	}
	for name := range want {
		bench, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		small := bench.Scaled(64, 12, 8)
		net, err := NewNetwork(small.Cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainer(net, Baseline, TrainerOptions{Workers: 1})
		if _, err := tr.Run(context.Background(), small.Provider(4, 1), 2); err != nil {
			t.Fatal(err)
		}
		eval := small.Provider(3, 99)
		loss, acc, err := Evaluate(net, eval)
		if err != nil {
			t.Fatal(err)
		}
		got := []float64{loss, acc}
		if small.Cfg.Loss == RegressionLoss {
			mae, err := EvaluateMAE(net, eval)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, mae)
		}
		if g := hexFloats(got); fmt.Sprint(g) != fmt.Sprint(want[name]) {
			t.Errorf("%s evaluation:\n got  %q\n want %q", name, g, want[name])
		}
	}
}
