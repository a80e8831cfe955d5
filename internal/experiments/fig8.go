package experiments

import (
	"context"
	"fmt"

	"etalstm/internal/core"
	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/stats"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// Fig8 regenerates Fig. 8: per-timestamp weight-gradient magnitudes for
// a single-loss model (IMDB — magnitudes decay from the last cell
// backwards) and a per-timestamp-loss model (WMT — magnitudes grow from
// the last cell to the first). These trends are the empirical basis of
// MS2's Eq. 4 predictor.
func Fig8(opts Options) (*Report, error) {
	rep := &Report{
		ID: "fig8", Title: "Weight-gradient magnitude per BP-cell timestamp",
		Header: []string{"benchmark", "layer", "first-t mag", "mid-t mag", "last-t mag", "trend"},
	}
	for _, name := range []string{"IMDB", "WMT"} {
		series, err := fig8Series(name, opts)
		if err != nil {
			return nil, err
		}
		for l, mags := range series {
			trend := "flat"
			switch stats.Monotone(mags) {
			case 1:
				trend = "increasing with t"
			case -1:
				trend = "decreasing with t"
			}
			n := len(mags)
			rep.Add(name, fmt.Sprintf("%d", l), mags[0], mags[n/2], mags[n-1], trend)
		}
	}
	rep.Note("paper: single-loss models (IMDB) show magnitudes decaying from the last timestamp backwards; per-timestamp-loss models (WMT) show the opposite")
	rep.Note("reproduction: the pattern is sharpest at the loss-adjacent layers (IMDB's top layer, WMT's bottom layers); on synthetic tasks layers far from the loss pick up task-information gradients that soften the trend")
	return rep, nil
}

// fig8Series trains a scaled benchmark briefly, then measures per-cell
// gradient magnitudes with the BP hook.
func fig8Series(name string, opts Options) ([][]float64, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	bench := b.Scaled(64, 16, 8)
	epochs := 4
	if !opts.Quick {
		bench = b.Scaled(16, 40, 16)
		epochs = 8
	}
	prov := bench.Provider(3, opts.Seed)
	net, err := model.NewNetwork(bench.Cfg, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	tr := core.New(net, &train.Adam{LR: 0.01}, 5, core.Config{})
	if _, err := tr.Run(context.Background(), prov, epochs); err != nil {
		return nil, err
	}

	series := make([][]float64, bench.Cfg.Layers)
	for l := range series {
		series[l] = make([]float64, bench.Cfg.SeqLen)
	}
	for bi := 0; bi < prov.NumBatches(); bi++ {
		batch := prov.Batch(bi)
		res, err := net.Forward(batch.Inputs, batch.Targets, nil)
		if err != nil {
			return nil, err
		}
		grads := net.NewGradients()
		err = net.Backward(res, nil, grads, model.BackwardOpts{
			OnCell: func(l, t int, cell *lstm.Grads) {
				series[l][t] += cell.AbsSum()
			},
		})
		if err != nil {
			return nil, err
		}
	}
	return series, nil
}
