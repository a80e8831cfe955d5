package experiments

import (
	"fmt"

	"etalstm/internal/gpu"
	"etalstm/internal/memplan"
	"etalstm/internal/stats"
	"etalstm/internal/traffic"
	"etalstm/internal/workload"
)

// fig3 renders one Fig. 3 panel: throughput (TFLOPS) and energy
// efficiency (GFLOPS/W) on both devices across a model-size sweep.
func fig3(id, title string, sweep []workload.SweepConfig) *Report {
	rep := &Report{
		ID: id, Title: title,
		Header: []string{"config", "RTX TFLOPS", "V100 TFLOPS", "RTX GFLOPS/W", "V100 GFLOPS/W"},
	}
	rtx, v100 := gpu.RTX5000(), gpu.V100()
	for _, sc := range sweep {
		r := gpu.Step(rtx, sc.Cfg)
		v := gpu.Step(v100, sc.Cfg)
		rtxThr, rtxEff := "OOM", "OOM"
		if !r.OOM {
			rtxThr = fmt.Sprintf("%.2f", r.Throughput/1e12)
			rtxEff = fmt.Sprintf("%.1f", r.GFLOPSperW)
		}
		rep.Add(sc.Label, rtxThr, fmt.Sprintf("%.2f", v.Throughput/1e12),
			rtxEff, fmt.Sprintf("%.1f", v.GFLOPSperW))
	}
	return rep
}

// Fig3a regenerates Fig. 3a: efficiency vs hidden size.
func Fig3a(Options) (*Report, error) {
	rep := fig3("fig3a", "LSTM training efficiency vs hidden size (LN=3, LL=35)", workload.Fig3HiddenSweep())
	rep.Note("paper: throughput rises then plateaus with hidden size; energy efficiency declines past the saturation point")
	return rep, nil
}

// Fig3b regenerates Fig. 3b: efficiency vs layer number.
func Fig3b(Options) (*Report, error) {
	rep := fig3("fig3b", "LSTM training efficiency vs layer number (H=2048, LL=35)", workload.Fig3LayerSweep())
	rep.Note("paper: throughput varies little with layer number but energy efficiency decreases; LN7/LN8 OOM on the 16 GB RTX 5000")
	return rep, nil
}

// Fig3c regenerates Fig. 3c: efficiency vs layer length.
func Fig3c(Options) (*Report, error) {
	rep := fig3("fig3c", "LSTM training efficiency vs layer length (H=1024, LN=3)", workload.Fig3LengthSweep())
	rep.Note("paper: longer layer lengths decrease both throughput and energy efficiency")
	return rep, nil
}

// Fig4 regenerates Fig. 4: DRAM data movement by category over the 17
// Fig. 3 configurations.
func Fig4(Options) (*Report, error) {
	rep := &Report{
		ID: "fig4", Title: "Data movement by parameter / activations / intermediate variables (GB per step)",
		Header: []string{"config", "parameter", "activations", "intermediate", "interm/act"},
	}
	var ratios []float64
	var pSum, aSum, iSum float64
	sweeps := workload.AllFig3Sweeps()
	for _, sc := range sweeps {
		m := traffic.Baseline(sc.Cfg)
		ratio := float64(m.Intermediates) / float64(m.Activations)
		ratios = append(ratios, ratio)
		pSum += gb(m.Weights)
		aSum += gb(m.Activations)
		iSum += gb(m.Intermediates)
		rep.Add(sc.Label, gb(m.Weights), gb(m.Activations), gb(m.Intermediates), ratio)
	}
	n := float64(len(sweeps))
	rep.Add("Ave", pSum/n, aSum/n, iSum/n, stats.Mean(ratios))
	rep.Note("paper: intermediate-variable movement averages 4.34x the activation movement (up to 4.81x); measured average %.2fx", stats.Mean(ratios))
	return rep, nil
}

// Fig5 regenerates Fig. 5: memory footprint breakdown and total.
func Fig5(Options) (*Report, error) {
	rep := &Report{
		ID: "fig5", Title: "GPU memory footprint breakdown (fractions) and total size (GB)",
		Header: []string{"config", "parameter", "activations", "intermediate", "total GB"},
	}
	var fracs []float64
	for _, sc := range workload.AllFig3Sweeps() {
		b := memplan.Footprint(sc.Cfg, memplan.Baseline, memplan.Params{})
		total := float64(b.Total())
		fr := b.IntermediateFrac()
		fracs = append(fracs, fr)
		rep.Add(sc.Label,
			float64(b.Parameter)/total, float64(b.Activations)/total, fr, gb(b.Total()))
	}
	rep.Add("Ave", "", "", stats.Mean(fracs), "")
	rep.Note("paper: intermediate variables average 47.18%% of the footprint (up to 74.01%%); measured average %.1f%%, max %.1f%%",
		100*stats.Mean(fracs), 100*maxOf(fracs))
	return rep, nil
}

func gb(b int64) float64 { return float64(b) / 1e9 }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
