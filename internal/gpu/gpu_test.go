package gpu

import (
	"testing"

	"etalstm/internal/traffic"
	"etalstm/internal/workload"
)

// TestFig3aThroughputSaturates: throughput rises with hidden size and
// saturates (each doubling adds less).
func TestFig3aThroughputSaturates(t *testing.T) {
	dev := V100()
	var prev, prevGain float64
	for i, sc := range workload.Fig3HiddenSweep() {
		r := Step(dev, sc.Cfg)
		if r.OOM {
			t.Fatalf("%s: unexpected OOM", sc.Label)
		}
		if r.Throughput <= prev {
			t.Fatalf("%s: throughput %v must rise with hidden size (prev %v)",
				sc.Label, r.Throughput, prev)
		}
		gain := r.Throughput - prev
		if i >= 3 && gain >= prevGain {
			t.Fatalf("%s: gains must diminish toward saturation: %v vs %v", sc.Label, gain, prevGain)
		}
		prev, prevGain = r.Throughput, gain
	}
}

// TestFig3aEnergyEffPeaksThenDeclines: GFLOPS/W peaks before the
// largest hidden size and declines after.
func TestFig3aEnergyEffPeaksThenDeclines(t *testing.T) {
	dev := V100()
	var effs []float64
	for _, sc := range workload.Fig3HiddenSweep() {
		effs = append(effs, Step(dev, sc.Cfg).GFLOPSperW)
	}
	last := effs[len(effs)-1]
	peak := 0.0
	peakIdx := 0
	for i, e := range effs {
		if e > peak {
			peak, peakIdx = e, i
		}
	}
	if peakIdx == len(effs)-1 {
		t.Fatalf("energy efficiency must peak before H3072: %v", effs)
	}
	if last >= peak {
		t.Fatalf("energy efficiency must decline past saturation: %v", effs)
	}
}

// TestFig3bThroughputFlatEnergyDeclines: layer number barely moves
// throughput but erodes energy efficiency.
func TestFig3bThroughputFlatEnergyDeclines(t *testing.T) {
	dev := V100()
	var thr, eff []float64
	for _, sc := range workload.Fig3LayerSweep() {
		r := Step(dev, sc.Cfg)
		if r.OOM {
			continue // V100 32GB trains all of them per the paper
		}
		thr = append(thr, r.Throughput)
		eff = append(eff, r.GFLOPSperW)
	}
	if len(thr) != 7 {
		t.Fatalf("V100 must train all 7 layer configs, got %d", len(thr))
	}
	spread := (maxF(thr) - minF(thr)) / maxF(thr)
	if spread > 0.15 {
		t.Fatalf("throughput must vary little with layer number: spread %.3f", spread)
	}
	if eff[len(eff)-1] >= eff[0] {
		t.Fatalf("energy efficiency must decline with layer number: %v", eff)
	}
}

// TestFig3bRTX5000MemoryWall: the 16 GB RTX 5000 cannot train the 7-
// and 8-layer models (paper Sec. III-A).
func TestFig3bRTX5000MemoryWall(t *testing.T) {
	dev := RTX5000()
	for _, sc := range workload.Fig3LayerSweep() {
		r := Step(dev, sc.Cfg)
		wantOOM := sc.Cfg.Layers >= 7
		if r.OOM != wantOOM {
			t.Errorf("%s on RTX5000: OOM=%v want %v (footprint %.1f GB)",
				sc.Label, r.OOM, wantOOM, footprintGB(sc.Cfg))
		}
	}
	// The V100's 32 GB trains all of them.
	for _, sc := range workload.Fig3LayerSweep() {
		if Step(V100(), sc.Cfg).OOM {
			t.Errorf("%s must fit the V100", sc.Label)
		}
	}
}

// TestFig3cThroughputDeclinesWithLength: longer layer lengths stretch
// the FW→BP reuse distance and drag throughput and energy efficiency
// down.
func TestFig3cThroughputDeclinesWithLength(t *testing.T) {
	dev := V100()
	var prevThr, prevEff float64
	for i, sc := range workload.Fig3LengthSweep() {
		r := Step(dev, sc.Cfg)
		if i > 0 {
			if r.Throughput >= prevThr {
				t.Fatalf("%s: throughput %v must decline with length (prev %v)",
					sc.Label, r.Throughput, prevThr)
			}
			if r.GFLOPSperW >= prevEff {
				t.Fatalf("%s: energy efficiency must decline with length", sc.Label)
			}
		}
		prevThr, prevEff = r.Throughput, r.GFLOPSperW
	}
	// The overall decline should be substantial (paper: roughly halves).
	first := Step(dev, workload.Fig3LengthSweep()[0].Cfg).Throughput
	if prevThr > first*0.75 {
		t.Fatalf("LL303 throughput %.2e should be well below LL18's %.2e", prevThr, first)
	}
}

// TestRTXSlowerThanV100: the weaker device must be slower and the
// throughput ordering must hold across the sweep.
func TestRTXSlowerThanV100(t *testing.T) {
	for _, sc := range workload.Fig3HiddenSweep() {
		v := Step(V100(), sc.Cfg)
		r := Step(RTX5000(), sc.Cfg)
		if r.Throughput >= v.Throughput {
			t.Fatalf("%s: RTX5000 %.2e must trail V100 %.2e", sc.Label, r.Throughput, v.Throughput)
		}
	}
}

func TestStepFLOPsScalesWithModel(t *testing.T) {
	base := workload.Fig3HiddenSweep()[0].Cfg
	big := base
	big.SeqLen *= 2
	if StepFLOPs(big) <= StepFLOPs(base)*1.9 {
		t.Fatal("FLOPs must scale ~linearly with sequence length")
	}
	bigger := base
	bigger.Layers++
	if StepFLOPs(bigger) <= StepFLOPs(base) {
		t.Fatal("FLOPs must grow with layers")
	}
}

// TestOptimizedStepFaster: feeding the model MS1-reduced traffic and
// FLOPs must produce a faster, lower-energy step — the software-only
// rows of Fig. 15.
func TestOptimizedStepFaster(t *testing.T) {
	cfg := workload.Fig3LengthSweep()[3].Cfg // LL151
	dev := V100()
	base := Step(dev, cfg)
	optTraffic := traffic.WithMS1(cfg, 0.65)
	optFlops := StepFLOPs(cfg) * 0.8
	opt := StepOptimized(dev, cfg, optFlops, optTraffic, 0.5)
	if opt.StepSeconds >= base.StepSeconds {
		t.Fatalf("optimized step %v must beat baseline %v", opt.StepSeconds, base.StepSeconds)
	}
	if opt.EnergyJ >= base.EnergyJ {
		t.Fatal("optimized step must use less energy")
	}
}

func TestPowerWithinDeviceEnvelope(t *testing.T) {
	for _, sc := range workload.AllFig3Sweeps() {
		r := Step(V100(), sc.Cfg)
		if r.OOM {
			continue
		}
		if r.PowerW < V100().IdleW || r.PowerW > V100().TDP*1.5 {
			t.Errorf("%s: power %.1f W outside envelope", sc.Label, r.PowerW)
		}
	}
}

func TestThroughputPlausible(t *testing.T) {
	// Paper Fig. 3: V100 sustains roughly 4-11 TFLOPS on these models.
	for _, sc := range workload.AllFig3Sweeps() {
		r := Step(V100(), sc.Cfg)
		if r.OOM {
			continue
		}
		tf := r.Throughput / 1e12
		if tf < 1 || tf > 14 {
			t.Errorf("%s: %.2f TFLOPS implausible", sc.Label, tf)
		}
	}
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
