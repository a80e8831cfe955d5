package etalstm

// This file is the benchmark harness of deliverable (d): one testing.B
// target per table and figure of the paper's evaluation, each invoking
// the same harness the etabench CLI uses, plus microbenchmarks of the
// core kernels and ablation benches for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig/Table benches report the experiment's headline number as a
// custom metric so `-bench` output doubles as a results table.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"etalstm/internal/arch"
	"etalstm/internal/gpu"
	"etalstm/internal/hw/accum"
	"etalstm/internal/hw/sched"
	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/skip"
	"etalstm/internal/tensor"
	"etalstm/internal/workload"
)

// runExperimentBench runs one registered experiment per iteration.
func runExperimentBench(b *testing.B, id string) *Report {
	b.Helper()
	b.ReportAllocs()
	var rep *Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = RunExperiment(id, ExperimentOptions{Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// reportMetric extracts a named column of a labeled row as a float.
func reportMetric(b *testing.B, rep *Report, rowLabel, col string) float64 {
	b.Helper()
	ci := -1
	for i, h := range rep.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		b.Fatalf("no column %q", col)
	}
	for _, row := range rep.Rows {
		if row[0] == rowLabel {
			s := strings.TrimSuffix(strings.TrimSuffix(row[ci], "x"), "%")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				b.Fatalf("parse %q: %v", row[ci], err)
			}
			return v
		}
	}
	b.Fatalf("no row %q", rowLabel)
	return 0
}

// --- Fig. 3: GPU characterization sweeps ---

func BenchmarkFig3HiddenSize(b *testing.B) {
	rep := runExperimentBench(b, "fig3a")
	b.ReportMetric(reportMetric(b, rep, "H3072", "V100 TFLOPS"), "V100-TFLOPS@H3072")
}

func BenchmarkFig3LayerNumber(b *testing.B) {
	rep := runExperimentBench(b, "fig3b")
	b.ReportMetric(reportMetric(b, rep, "LN6", "V100 GFLOPS/W"), "V100-GFLOPSperW@LN6")
}

func BenchmarkFig3LayerLength(b *testing.B) {
	rep := runExperimentBench(b, "fig3c")
	b.ReportMetric(reportMetric(b, rep, "LL303", "V100 TFLOPS"), "V100-TFLOPS@LL303")
}

// --- Fig. 4 / Fig. 5: data movement and footprint characterization ---

func BenchmarkFig4DataMovement(b *testing.B) {
	rep := runExperimentBench(b, "fig4")
	b.ReportMetric(reportMetric(b, rep, "Ave", "interm/act"), "interm-vs-act-ratio")
}

func BenchmarkFig5Footprint(b *testing.B) {
	rep := runExperimentBench(b, "fig5")
	b.ReportMetric(reportMetric(b, rep, "LL303", "intermediate"), "interm-frac@LL303")
}

// --- Fig. 6 / Fig. 8: training-backed value and gradient statistics ---

func BenchmarkFig6ValueCDF(b *testing.B) {
	rep := runExperimentBench(b, "fig6")
	// Headline: P1's below-0.1 mass at the first sampled epoch.
	for _, row := range rep.Rows {
		if row[1] == "BP-EW-P1" {
			v, _ := strconv.ParseFloat(row[3], 64)
			b.ReportMetric(v, "P1-frac-below-0.1")
			break
		}
	}
}

func BenchmarkFig8GradientMagnitude(b *testing.B) {
	runExperimentBench(b, "fig8")
}

// --- Fig. 11 / Table III: accumulator ---

func BenchmarkFig11Accumulator(b *testing.B) {
	rep := runExperimentBench(b, "fig11")
	b.ReportMetric(reportMetric(b, rep, "8 (Fig.11 chart)", "total cycles"), "fig11-cycles")
}

func BenchmarkTable3Accumulator(b *testing.B) {
	rep := runExperimentBench(b, "table3")
	b.ReportMetric(reportMetric(b, rep, "Our Design", "LUT"), "our-LUT")
}

// --- Fig. 15 / 16 / 17 / 18: the evaluation headliners ---

func BenchmarkFig15Speedup(b *testing.B) {
	rep := runExperimentBench(b, "fig15a")
	b.ReportMetric(reportMetric(b, rep, "Ave", "EtaLSTM"), "etaLSTM-avg-speedup")
}

func BenchmarkFig15Energy(b *testing.B) {
	rep := runExperimentBench(b, "fig15b")
	b.ReportMetric(reportMetric(b, rep, "Ave", "EtaLSTM"), "etaLSTM-avg-energy")
}

func BenchmarkFig16EnergyEfficiency(b *testing.B) {
	rep := runExperimentBench(b, "fig16")
	b.ReportMetric(reportMetric(b, rep, "BABI", "Dyn-Arch"), "dynArch-energyEff@BABI")
}

func BenchmarkFig17DataMovement(b *testing.B) {
	runExperimentBench(b, "fig17")
}

func BenchmarkFig18Footprint(b *testing.B) {
	runExperimentBench(b, "fig18")
}

// --- Table II: accuracy impact ---

func BenchmarkTable2Accuracy(b *testing.B) {
	runExperimentBench(b, "table2")
}

// --- Core-kernel microbenchmarks ---

func benchCell(b *testing.B, hidden, batch int) (*lstm.Params, *tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
	b.Helper()
	r := rng.New(1)
	p := lstm.NewParamsOn(make([]float32, lstm.LayerLen(hidden, hidden)), hidden, hidden)
	p.Init(r)
	x := tensor.New(batch, hidden)
	h := tensor.New(batch, hidden)
	s := tensor.New(batch, hidden)
	x.RandInit(r, 1)
	return p, x, h, s
}

func BenchmarkForwardCell(b *testing.B) {
	p, x, h, s := benchCell(b, 128, 16)
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hOut, _, cache := lstm.Forward(ws, p, x, h, s)
		ws.Put(hOut)
		cache.Release(ws)
	}
}

func BenchmarkForwardCellWithP1(b *testing.B) {
	p, x, h, s := benchCell(b, 128, 16)
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hOut, sOut, p1 := lstm.ForwardWithP1(ws, p, x, h, s)
		ws.PutAll(hOut, sOut)
		p1.Release(ws)
	}
}

func BenchmarkBackwardCellBaseline(b *testing.B) {
	p, x, h, s := benchCell(b, 128, 16)
	ws := tensor.NewWorkspace()
	_, _, cache := lstm.Forward(ws, p, x, h, s)
	r := rng.New(2)
	dy := tensor.New(16, 128)
	dy.RandInit(r, 1)
	grads := lstm.NewGrads(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := lstm.Backward(ws, p, grads, cache, lstm.BPInput{DY: dy})
		ws.PutAll(out.DX, out.DHPrev, out.DSPrev)
	}
}

func BenchmarkBackwardCellFromP1(b *testing.B) {
	p, x, h, s := benchCell(b, 128, 16)
	ws := tensor.NewWorkspace()
	hOut, sOut, p1 := lstm.ForwardWithP1(ws, p, x, h, s)
	ws.PutAll(hOut, sOut)
	r := rng.New(2)
	dy := tensor.New(16, 128)
	dy.RandInit(r, 1)
	grads := lstm.NewGrads(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := lstm.BackwardFromP1(ws, p, grads, x, h, p1, lstm.BPInput{DY: dy})
		ws.PutAll(out.DX, out.DHPrev, out.DSPrev)
	}
}

func BenchmarkStreamingAccumulator(b *testing.B) {
	vals := make([]float32, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accum.Accumulate(vals, 8)
	}
}

// --- Data-parallel epoch benchmarks ---

// benchEpoch measures whole training epochs at the given replica count.
// Kernel-level parallelism is pinned to 1 for the duration so the two
// levels don't compound and the serial/parallel comparison isolates the
// replica engine (see SetWorkers).
func benchEpoch(b *testing.B, workers int) {
	b.Helper()
	prev := SetWorkers(1)
	defer SetWorkers(prev)

	bench, err := BenchmarkByName("IMDB")
	if err != nil {
		b.Fatal(err)
	}
	// Large enough that per-batch FW+BP dominates the per-group weight
	// broadcast; 8 batches = two full groups at Workers == 4.
	small := bench.Scaled(16, 32, 16)
	net, err := NewNetwork(small.Cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewTrainer(net, Baseline, TrainerOptions{Workers: workers})
	prov := small.Provider(8, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RunEpoch(ctx, prov, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochSerial is the single-replica reference epoch.
func BenchmarkEpochSerial(b *testing.B) { benchEpoch(b, 1) }

// BenchmarkEpochParallel shards the same epoch across 4 replica
// workers; on a >= 4-core machine it should run >= 1.5x faster than
// BenchmarkEpochSerial.
func BenchmarkEpochParallel(b *testing.B) { benchEpoch(b, 4) }

// --- Ablation benches (DESIGN.md design choices) ---

// BenchmarkAblationSparsityThreshold sweeps MS1's pruning threshold and
// reports the footprint/latency trade at the IMDB geometry — the design
// choice behind the paper's "around 0.1" operating point.
func BenchmarkAblationSparsityThreshold(b *testing.B) {
	bench, _ := workload.ByName("IMDB")
	for _, th := range []float64{0.05, 0.1, 0.2} {
		th := th
		b.Run("threshold="+strconv.FormatFloat(th, 'g', -1, 64), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				// Sparsity scales with threshold on the P1 distribution;
				// derive from a forward pass at reduced scale.
				small := bench.Scaled(64, 12, 8)
				net, err := model.NewNetwork(small.Cfg, rng.New(9))
				if err != nil {
					b.Fatal(err)
				}
				batch := small.Provider(1, 5).Batch(0)
				res, err := net.Forward(batch.Inputs, batch.Targets, model.P1Policy())
				if err != nil {
					b.Fatal(err)
				}
				var below, total float64
				for l := range res.P1 {
					for t := range res.P1[l] {
						if res.P1[l][t] == nil {
							continue
						}
						for _, m := range res.P1[l][t].Matrices() {
							for _, v := range m.Data {
								if v < float32(th) && -v < float32(th) {
									below++
								}
							}
							total += float64(m.Size())
						}
					}
				}
				sp = below / total
			}
			b.ReportMetric(sp, "P1-sparsity")
		})
	}
}

// BenchmarkAblationSwingOverhead sweeps the R2A swing tax to show how
// sensitive Dyn-Arch's win is to the reassignment cost.
func BenchmarkAblationSwingOverhead(b *testing.B) {
	bench, _ := workload.ByName("WMT")
	fw := sched.FromOpCount(lstm.ForwardOps(512, 1024, 128)).Add(
		sched.FromOpCount(lstm.P1Ops(1024, 128)))
	bp := sched.FromOpCount(lstm.BackwardFromP1Ops(512, 1024, 128, 0.65))
	_ = bench
	for i := 0; i < b.N; i++ {
		alloc := sched.StaticSplit(1280, fw.Add(bp))
		st := sched.RunPhases([]sched.Workload{fw, bp}, sched.PolicyStatic, alloc, 1280)
		dy := sched.RunPhases([]sched.Workload{fw, bp}, sched.PolicyDynamic, sched.Alloc{}, 1280)
		if i == 0 {
			b.ReportMetric(float64(st.Cycles)/float64(dy.Cycles), "static-vs-dynamic-cycles")
		}
	}
}

// BenchmarkAblationChannelScaling checks the Sec. V-D linear-scaling
// claim: step time versus channel count.
func BenchmarkAblationChannelScaling(b *testing.B) {
	bench, _ := workload.ByName("PTB")
	for _, channels := range []int{20, 40, 80} {
		channels := channels
		b.Run("channels="+strconv.Itoa(channels), func(b *testing.B) {
			hw := arch.Paper()
			hw.ChannelsPerBoard = channels
			var e arch.Eval
			for i := 0; i < b.N; i++ {
				e = arch.Evaluate(arch.DynArch, bench.Cfg, hw, gpu.V100(), arch.DefaultOptParams(bench.Cfg))
			}
			b.ReportMetric(e.StepSeconds*1000, "step-ms")
		})
	}
}

// BenchmarkAblationSkipCap sweeps MS2's convergence cap and reports the
// resulting skip fraction at the BABI geometry.
func BenchmarkAblationSkipCap(b *testing.B) {
	bench, _ := workload.ByName("BABI")
	for _, capFrac := range []float64{0.3, 0.5, 0.7} {
		capFrac := capFrac
		b.Run("cap="+strconv.FormatFloat(capFrac, 'g', -1, 64), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				frac = skipFracWithCap(bench.Cfg, capFrac)
			}
			b.ReportMetric(frac, "skip-frac")
		})
	}
}

// BenchmarkAblationRecompute quantifies the paper's dismissed
// alternative (Sec. III-C): full FW recomputation during BP versus
// MS1's reordering, as BP-side wall-clock on the real substrate.
func BenchmarkAblationRecompute(b *testing.B) {
	p, x, h, s := benchCell(b, 128, 16)
	r := rng.New(4)
	dy := tensor.New(16, 128)
	dy.RandInit(r, 1)

	b.Run("recompute-then-backward", func(b *testing.B) {
		b.ReportAllocs()
		grads := lstm.NewGrads(p)
		for i := 0; i < b.N; i++ {
			_, _, cache := lstm.Forward(nil, p, x, h, s)
			lstm.Backward(nil, p, grads, cache, lstm.BPInput{DY: dy})
		}
	})
	b.Run("backward-from-p1", func(b *testing.B) {
		b.ReportAllocs()
		_, _, p1 := lstm.ForwardWithP1(nil, p, x, h, s)
		grads := lstm.NewGrads(p)
		for i := 0; i < b.N; i++ {
			lstm.BackwardFromP1(nil, p, grads, x, h, p1, lstm.BPInput{DY: dy})
		}
	})
}

// skipFracWithCap builds an Eq. 4 skip plan for cfg at the given
// convergence cap and returns the skipped fraction.
func skipFracWithCap(cfg model.Config, capFrac float64) float64 {
	pred := skip.NewPredictor(cfg.Loss, cfg.Layers, cfg.SeqLen)
	plan := skip.Build(pred, 1.0, skip.Config{
		Threshold: arch.SkipFracThreshold,
		MaxFrac:   capFrac,
		Base:      model.StoreRaw,
	})
	return plan.SkippedFrac()
}
