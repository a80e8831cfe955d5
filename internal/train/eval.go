package train

import (
	"fmt"

	"etalstm/internal/model"
	"etalstm/internal/tensor"
)

// Batch is one minibatch of inputs and supervision.
type Batch struct {
	Inputs  []*tensor.Matrix // SeqLen entries, each Batch×InputSize
	Targets *model.Targets
}

// Provider supplies the minibatches of one epoch. Implementations live
// in internal/workload.
type Provider interface {
	// NumBatches returns how many batches one epoch visits.
	NumBatches() int
	// Batch returns batch i (0 ≤ i < NumBatches). Implementations may
	// reuse buffers between calls; the trainer consumes each batch
	// fully before requesting the next.
	Batch(i int) Batch
}

// Evaluate runs forward-only over p and returns the mean loss plus
// classification accuracy where applicable (loss kinds with class
// targets; NaN-free: accuracy is 0 for regression).
func Evaluate(net *model.Network, p Provider) (meanLoss, accuracy float64, err error) {
	cfg := net.Cfg
	var totalLoss float64
	correct, seen := 0, 0
	for b := 0; b < p.NumBatches(); b++ {
		batch := p.Batch(b)
		res, ferr := net.Forward(batch.Inputs, batch.Targets, model.InferencePolicy())
		if ferr != nil {
			return 0, 0, ferr
		}
		totalLoss += res.Loss
		if cfg.Loss == model.RegressionLoss {
			continue
		}
		// Accuracy over the evaluated timesteps.
		for t := 0; t < cfg.SeqLen; t++ {
			var tgt []int
			switch {
			case cfg.Loss != model.SingleLoss:
				tgt = batch.Targets.Classes[t]
			case t == cfg.SeqLen-1:
				tgt = batch.Targets.Classes[len(batch.Targets.Classes)-1]
			default:
				continue
			}
			pred := model.Argmax(net.Logits(nil, res.H[cfg.Layers-1][t]))
			for i, want := range tgt {
				if want < 0 {
					continue
				}
				seen++
				if pred[i] == want {
					correct++
				}
			}
		}
	}
	n := p.NumBatches()
	if n > 0 {
		meanLoss = totalLoss / float64(n)
	}
	if seen > 0 {
		accuracy = float64(correct) / float64(seen)
	}
	return meanLoss, accuracy, nil
}

// EvaluateMAE runs forward-only and returns the mean absolute error for
// regression models (the WAYMO metric of Table II).
func EvaluateMAE(net *model.Network, p Provider) (float64, error) {
	cfg := net.Cfg
	if cfg.Loss != model.RegressionLoss {
		return 0, fmt.Errorf("train: EvaluateMAE requires a regression model")
	}
	var total float64
	var steps int
	for b := 0; b < p.NumBatches(); b++ {
		batch := p.Batch(b)
		res, err := net.Forward(batch.Inputs, nil, model.InferencePolicy())
		if err != nil {
			return 0, err
		}
		for t := 0; t < cfg.SeqLen; t++ {
			out := net.Logits(nil, res.H[cfg.Layers-1][t])
			total += model.MeanAbsoluteError(out, batch.Targets.Regress[t])
			steps++
		}
	}
	if steps == 0 {
		return 0, nil
	}
	return total / float64(steps), nil
}
