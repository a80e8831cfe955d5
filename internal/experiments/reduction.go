package experiments

import (
	"etalstm/internal/arch"
	"etalstm/internal/memplan"
	"etalstm/internal/stats"
	"etalstm/internal/traffic"
	"etalstm/internal/workload"
)

// Fig17 regenerates Fig. 17: data-movement reduction for weight
// matrices, activation data and intermediate variables under MS1, MS2
// and the full η-LSTM on each benchmark.
func Fig17(Options) (*Report, error) {
	rep := &Report{
		ID: "fig17", Title: "Data-movement reduction vs baseline (fraction removed)",
		Header: []string{"benchmark", "mode", "weights", "activations", "intermediates"},
	}
	agg := map[string][]float64{}
	for _, b := range workload.Suite() {
		p := arch.DefaultOptParams(b.Cfg)
		base := traffic.Baseline(b.Cfg)
		cases := []struct {
			name string
			mov  traffic.Movement
		}{
			{"MS1", traffic.WithMS1(b.Cfg, p.P1Sparsity)},
			{"MS2", traffic.WithMS2(b.Cfg, p.SkipFrac)},
			{"eta-LSTM", traffic.Combined(b.Cfg, p.P1Sparsity, p.SkipFrac)},
		}
		for _, c := range cases {
			r := traffic.ReductionVs(base, c.mov)
			rep.Add(b.Name, c.name, r.Weights, r.Activations, r.Intermediates)
			agg[c.name+"/w"] = append(agg[c.name+"/w"], r.Weights)
			agg[c.name+"/a"] = append(agg[c.name+"/a"], r.Activations)
			agg[c.name+"/i"] = append(agg[c.name+"/i"], r.Intermediates)
		}
	}
	rep.Note("paper MS1 averages: weights -31.79%%, intermediates -60.27%%, activations unchanged; measured: w %.1f%%, i %.1f%%",
		100*stats.Mean(agg["MS1/w"]), 100*stats.Mean(agg["MS1/i"]))
	rep.Note("paper MS2 averages: weights -24.67%%, activations -32.89%%, intermediates -49.34%%; measured: w %.1f%%, a %.1f%%, i %.1f%%",
		100*stats.Mean(agg["MS2/w"]), 100*stats.Mean(agg["MS2/a"]), 100*stats.Mean(agg["MS2/i"]))
	rep.Note("paper eta-LSTM averages: weights -40.85%%, activations -32.89%%, intermediates -80.04%%; measured: w %.1f%%, a %.1f%%, i %.1f%%",
		100*stats.Mean(agg["eta-LSTM/w"]), 100*stats.Mean(agg["eta-LSTM/a"]), 100*stats.Mean(agg["eta-LSTM/i"]))
	return rep, nil
}

// Fig18 regenerates Fig. 18: memory-footprint reduction under MS1 and
// MS2 (the paper plots IMDB, WAYMO and BABI; we add the full suite and
// the combined mode).
func Fig18(Options) (*Report, error) {
	rep := &Report{
		ID: "fig18", Title: "Normalized memory footprint (baseline = 1.0)",
		Header: []string{"benchmark", "Baseline", "MS1", "MS2", "Combine-MS"},
	}
	var ms1R, ms2R, combR []float64
	for _, b := range workload.Suite() {
		p := memplan.Params{
			P1KeepRatio: memplan.FromSparsity(0.65),
			SkipFrac:    arch.SkipFracFor(b.Cfg),
		}
		base := float64(memplan.Footprint(b.Cfg, memplan.Baseline, p).Total())
		ms1 := float64(memplan.Footprint(b.Cfg, memplan.MS1, p).Total()) / base
		ms2 := float64(memplan.Footprint(b.Cfg, memplan.MS2, p).Total()) / base
		comb := float64(memplan.Footprint(b.Cfg, memplan.Combined, p).Total()) / base
		ms1R = append(ms1R, 1-ms1)
		ms2R = append(ms2R, 1-ms2)
		combR = append(combR, 1-comb)
		rep.Add(b.Name, 1.0, ms1, ms2, comb)
	}
	rep.Note("paper averages: MS1 -32.37%% (up to 39.09%%), MS2 -41.65%% (up to 61.68%%), combined -57.52%% (up to 75.75%%)")
	rep.Note("measured averages: MS1 -%.1f%%, MS2 -%.1f%%, combined -%.1f%% (max -%.1f%%)",
		100*stats.Mean(ms1R), 100*stats.Mean(ms2R), 100*stats.Mean(combR), 100*maxOf(combR))
	return rep, nil
}
