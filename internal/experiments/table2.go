package experiments

import (
	"context"
	"fmt"
	"math"

	"etalstm/internal/core"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/train"
	"etalstm/internal/workload"
)

// Table2 regenerates Table II: the task metric of every benchmark under
// baseline training versus Combined-MS training (same data, same seeds,
// same epochs). The paper reports < 1 % metric difference; our
// reproduction trains the synthetic tasks at reduced scale and reports
// the same relative comparison.
func Table2(opts Options) (*Report, error) {
	rep := &Report{
		ID: "table2", Title: "Accuracy impact of the memory-saving optimizations",
		Header: []string{"benchmark", "metric", "Baseline", "Combined-MS", "delta"},
	}
	for _, b := range workload.Suite() {
		bench, epochs, batches := table2Scale(b, opts)
		evalProv := bench.Provider(6, opts.Seed+1000)

		baseVal, err := table2Run(bench, core.Config{}, epochs, batches, opts.Seed, evalProv)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", b.Name, err)
		}
		optVal, err := table2Run(bench, core.Config{EnableMS1: true, EnableMS2: true},
			epochs, batches, opts.Seed, evalProv)
		if err != nil {
			return nil, fmt.Errorf("%s combined: %w", b.Name, err)
		}
		metric := table2Metric(bench)
		rep.Add(b.Name, metric,
			table2Format(bench, baseVal), table2Format(bench, optVal),
			fmt.Sprintf("%+.3f", optVal-baseVal))
	}
	rep.Note("paper: <1%% accuracy difference on every benchmark, no convergence-speed impact")
	rep.Note("metrics at reproduction scale (synthetic tasks, scaled models); compare Baseline vs Combined-MS relatively, not against the paper's absolute corpus numbers")
	return rep, nil
}

func table2Scale(b workload.Benchmark, opts Options) (workload.Benchmark, int, int) {
	if opts.Quick {
		return b.Scaled(64, 12, 8), 12, 4
	}
	return b.Scaled(16, 30, 16), 20, 6
}

// table2Run trains bench under cfg and evaluates the task metric.
func table2Run(bench workload.Benchmark, cfg core.Config, epochs, batches int, seed uint64, eval train.Provider) (float64, error) {
	prov := bench.Provider(batches, seed)
	net, err := model.NewNetwork(bench.Cfg, rng.New(seed))
	if err != nil {
		return 0, err
	}
	tr := core.New(net, &train.Adam{LR: 0.01}, 5, cfg)
	if _, err := tr.Run(context.Background(), prov, epochs); err != nil {
		return 0, err
	}
	return table2Evaluate(bench, net, eval)
}

// table2Evaluate computes the benchmark's Table II metric.
func table2Evaluate(bench workload.Benchmark, net *model.Network, eval train.Provider) (float64, error) {
	switch bench.Task {
	case workload.QuestionClassification, workload.SentimentAnalysis, workload.QuestionAnswering:
		_, acc, err := train.Evaluate(net, eval)
		return 100 * acc, err
	case workload.LanguageModeling:
		loss, _, err := train.Evaluate(net, eval)
		if err != nil {
			return 0, err
		}
		return model.Perplexity(loss), nil
	case workload.AutonomousDriving:
		return train.EvaluateMAE(net, eval)
	case workload.MachineTranslation:
		return table2BLEU(net, eval)
	}
	return 0, fmt.Errorf("table2: unhandled task %v", bench.Task)
}

// table2BLEU decodes greedy per-timestep translations and scores them
// against the reference targets.
func table2BLEU(net *model.Network, eval train.Provider) (float64, error) {
	var cands, refs [][]int
	for b := 0; b < eval.NumBatches(); b++ {
		batch := eval.Batch(b)
		res, err := net.Forward(batch.Inputs, nil, model.InferencePolicy())
		if err != nil {
			return 0, err
		}
		seqLen := len(batch.Inputs)
		pred := make([][]int, seqLen)
		for t := range pred {
			pred[t] = model.Argmax(net.Logits(nil, res.H[net.Cfg.Layers-1][t]))
		}
		batchSize := batch.Inputs[0].Rows
		for i := 0; i < batchSize; i++ {
			cand := make([]int, 0, seqLen)
			ref := make([]int, 0, seqLen)
			for t := 0; t < seqLen; t++ {
				cand = append(cand, pred[t][i])
				ref = append(ref, batch.Targets.Classes[t][i])
			}
			cands = append(cands, cand)
			refs = append(refs, ref)
		}
	}
	return train.CorpusBLEU(cands, refs), nil
}

func table2Metric(bench workload.Benchmark) string {
	switch bench.Task {
	case workload.LanguageModeling:
		return "PPL (lower better)"
	case workload.AutonomousDriving:
		return "MAE (lower better)"
	case workload.MachineTranslation:
		return "BLEU (higher better)"
	}
	return "accuracy %"
}

func table2Format(bench workload.Benchmark, v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}
