package etalstm

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// paramChecksum folds every parameter's float32 bit pattern into one
// sum, so two networks compare bitwise-equal iff the checksums match.
func paramChecksum(net *Network) uint64 {
	var sum uint64
	for _, p := range net.Layer {
		for g := 0; g < 4; g++ {
			for _, v := range p.W[g].Data {
				sum += uint64(math.Float32bits(v))
			}
			for _, v := range p.U[g].Data {
				sum += uint64(math.Float32bits(v))
			}
			for _, v := range p.B[g] {
				sum += uint64(math.Float32bits(v))
			}
		}
	}
	for _, v := range net.Proj.Data {
		sum += uint64(math.Float32bits(v))
	}
	for _, v := range net.ProjB {
		sum += uint64(math.Float32bits(v))
	}
	return sum
}

// TestSerialBitwiseGolden pins Workers == 1 training to golden values
// captured from the pre-parallel serial trainer: per-epoch losses as
// exact hex floats plus a parameter checksum, for every mode. Any
// float-level reordering in the refactored trainer trips this test.
func TestSerialBitwiseGolden(t *testing.T) {
	golden := map[Mode]struct {
		losses   []string
		checksum uint64
	}{
		Baseline: {
			losses: []string{
				"0x1.5973bcd7f35fp-01", "0x1.d35ef15b85fd3p-02", "0x1.02be8f7151dcep-02",
				"0x1.925516970de81p-04", "0x1.d4bd47e0da709p-05", "0x1.ab8985c39a874p-06",
			},
			checksum: 0x2a48cc5e5b41,
		},
		MS1: {
			losses: []string{
				"0x1.537696b1812b1p-01", "0x1.f2c117313a164p-02", "0x1.39431801a085p-02",
				"0x1.21bcb68cbec36p-03", "0x1.26575a32db14ap-04", "0x1.632c71c2d4c2dp-06",
			},
			checksum: 0x2a3ad7d9e1b1,
		},
		MS2: {
			losses: []string{
				"0x1.5973bcf1497a6p-01", "0x1.d35ef266de5a4p-02", "0x1.02be907c60388p-02",
				"0x1.8116e6f2557d5p-04", "0x1.ff77ceccc523cp-05", "0x1.051fae0c4623p-04",
			},
			checksum: 0x2a4c9a0e7039,
		},
		Combined: {
			losses: []string{
				"0x1.537696c4332f7p-01", "0x1.f2c116a8a3151p-02", "0x1.394317f632ab4p-02",
				"0x1.0247ffd6a1f04p-03", "0x1.2f409f8b65be8p-04", "0x1.5cf181ba26c7cp-04",
			},
			checksum: 0x2a3b9233ee23,
		},
	}

	bench, err := BenchmarkByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 12, 8)
	for mode, want := range golden {
		net, err := NewNetwork(small.Cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainer(net, mode, TrainerOptions{Workers: 1})
		stats, err := tr.Run(context.Background(), small.Provider(4, 1), 6)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for e, st := range stats {
			if got := fmt.Sprintf("%x", st.MeanLoss); got != want.losses[e] {
				t.Errorf("%v epoch %d loss: got %s, want %s", mode, e, got, want.losses[e])
			}
		}
		if got := paramChecksum(net); got != want.checksum {
			t.Errorf("%v parameter checksum: got %#x, want %#x", mode, got, want.checksum)
		}
	}
}

// TestParallelReproducible trains twice at Workers == 4 under every mode
// and demands bit-for-bit identical trajectories — the deterministic
// tree all-reduce must make parallel runs reproducible run-to-run.
func TestParallelReproducible(t *testing.T) {
	bench, err := BenchmarkByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 12, 8)
	for _, mode := range []Mode{Baseline, MS1, MS2, Combined} {
		run := func() ([]EpochStats, uint64) {
			net, err := NewNetwork(small.Cfg, 42)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrainer(net, mode, TrainerOptions{Workers: 4})
			if got := tr.Workers(); got != 4 {
				t.Fatalf("Workers() = %d, want 4", got)
			}
			stats, err := tr.Run(context.Background(), small.Provider(8, 1), 5)
			if err != nil {
				t.Fatal(err)
			}
			return stats, paramChecksum(net)
		}
		s1, c1 := run()
		s2, c2 := run()
		if c1 != c2 {
			t.Errorf("%v: parallel run not reproducible: checksums %#x vs %#x", mode, c1, c2)
		}
		for e := range s1 {
			if s1[e].MeanLoss != s2[e].MeanLoss {
				t.Errorf("%v epoch %d: losses differ: %x vs %x", mode, e, s1[e].MeanLoss, s2[e].MeanLoss)
			}
			if s1[e].SkippedCells != s2[e].SkippedCells {
				t.Errorf("%v epoch %d: skip counts differ", mode, e)
			}
		}
	}
}

// cancellingProvider cancels its context the first time batch `at` is
// requested, simulating a caller interrupting training mid-epoch.
type cancellingProvider struct {
	Provider
	at     int
	cancel context.CancelFunc
}

func (p *cancellingProvider) Batch(i int) Batch {
	if i == p.at {
		p.cancel()
	}
	return p.Provider.Batch(i)
}

// TestRunCancellation verifies that cancellation surfaces promptly as
// ctx.Err() from both the serial and the data-parallel path, without
// running the epoch to completion.
func TestRunCancellation(t *testing.T) {
	bench, err := BenchmarkByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 10, 8)
	for _, workers := range []int{1, 2} {
		net, err := NewNetwork(small.Cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainer(net, Combined, TrainerOptions{Workers: workers})

		// Already-cancelled context: no batch may run.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		st, err := tr.RunEpoch(ctx, small.Provider(4, 1), 0)
		if err != context.Canceled {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if st.TotalCells != 0 && st.MeanLoss != 0 {
			t.Fatalf("workers=%d: epoch ran despite cancelled context", workers)
		}

		// Mid-epoch cancellation: the provider cancels while batches are
		// still pending; the epoch must stop early with ctx.Err().
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		prov := &cancellingProvider{Provider: small.Provider(6, 1), at: 2 * workers, cancel: cancel}
		if _, err := tr.RunEpoch(ctx, prov, 0); err != context.Canceled {
			t.Fatalf("workers=%d: mid-epoch cancel: want context.Canceled, got %v", workers, err)
		}
		if _, err := tr.Run(context.Background(), small.Provider(2, 1), 1); err != nil {
			t.Fatalf("workers=%d: trainer must stay usable after a cancelled epoch: %v", workers, err)
		}
	}
}

// TestClipOptions pins the Clip sentinel semantics: 0 keeps the historic
// default of 5 (so existing zero-value callers are unchanged), while any
// negative value — NoClip being the readable spelling — disables
// clipping entirely instead of silently re-enabling the default.
func TestClipOptions(t *testing.T) {
	bench, err := BenchmarkByName("IMDB")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Scaled(64, 10, 8)
	train := func(clip float64) uint64 {
		net, err := NewNetwork(small.Cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainer(net, Baseline, TrainerOptions{
			Optimizer: &SGD{LR: 2}, Clip: clip, Workers: 1,
		})
		if _, err := tr.Run(context.Background(), small.Provider(3, 1), 2); err != nil {
			t.Fatal(err)
		}
		return paramChecksum(net)
	}
	zero, five := train(0), train(5)
	noClip, minusTwo := train(NoClip), train(-2)
	tiny := train(0.001) // gradient norms certainly exceed 0.001
	if zero != five {
		t.Error("Clip: 0 must mean the default clip of 5")
	}
	if noClip != minusTwo {
		t.Error("every negative Clip must mean no clipping")
	}
	if noClip == tiny {
		t.Error("NoClip produced the same weights as a heavily clipped run — clipping was not disabled")
	}
}

// TestKernelWorkers exercises the package-level kernel parallelism knob.
func TestKernelWorkers(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	if prev := SetWorkers(3); prev != orig {
		t.Fatalf("SetWorkers returned %d, want previous value %d", prev, orig)
	}
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0) // clamped
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d, want >= 1 after clamping", got)
	}
}

// TestWorkersResolution checks the Workers option's 0-derives-a-default
// contract.
func TestWorkersResolution(t *testing.T) {
	bench, _ := BenchmarkByName("PTB")
	small := bench.Scaled(64, 8, 4)
	net, _ := NewNetwork(small.Cfg, 1)
	if got := NewTrainer(net, Baseline, TrainerOptions{}).Workers(); got < 1 || got > 8 {
		t.Fatalf("derived Workers = %d, want within [1, 8]", got)
	}
	if got := NewTrainer(net, Baseline, TrainerOptions{Workers: 3}).Workers(); got != 3 {
		t.Fatalf("explicit Workers = %d, want 3", got)
	}
}
