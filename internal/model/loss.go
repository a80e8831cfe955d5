package model

import (
	"math"

	"etalstm/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of logits
// (batch×classes) against integer targets and the gradient d loss /
// d logits (already divided by batch). A target of -1 masks the sample
// out of the loss (padding).
func SoftmaxCrossEntropy(logits *tensor.Matrix, targets []int) (loss float64, dLogits *tensor.Matrix) {
	if len(targets) != logits.Rows {
		panic("model: targets length != batch")
	}
	dLogits = tensor.New(logits.Rows, logits.Cols)
	active := 0
	for b := 0; b < logits.Rows; b++ {
		if targets[b] >= 0 {
			active++
		}
	}
	if active == 0 {
		return 0, dLogits
	}
	inv := 1 / float64(active)
	for b := 0; b < logits.Rows; b++ {
		tgt := targets[b]
		if tgt < 0 {
			continue
		}
		row := logits.Row(b)
		drow := dLogits.Row(b)
		// log-sum-exp with max subtraction for stability
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		logZ := math.Log(sum) + float64(mx)
		loss += float64((logZ - float64(row[tgt])) * inv)
		for j, v := range row {
			p := math.Exp(float64(v-mx)) / sum
			drow[j] = float32(p * inv)
		}
		drow[tgt] -= float32(inv)
	}
	return loss, dLogits
}

// Argmax returns the per-row argmax of logits — predicted classes.
func Argmax(logits *tensor.Matrix) []int {
	out := make([]int, logits.Rows)
	for b := 0; b < logits.Rows; b++ {
		row := logits.Row(b)
		best, bv := 0, row[0]
		for j, v := range row {
			if v > bv {
				best, bv = j, v
			}
		}
		out[b] = best
	}
	return out
}

// SquaredError computes the mean squared error between pred and target
// (both batch×dims) and the gradient d loss / d pred.
func SquaredError(pred, target *tensor.Matrix) (loss float64, dPred *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("model: SquaredError shape mismatch")
	}
	dPred = tensor.New(pred.Rows, pred.Cols)
	n := float64(pred.Size())
	if n == 0 {
		return 0, dPred
	}
	for k := range pred.Data {
		d := float64(pred.Data[k]) - float64(target.Data[k])
		loss += d * d / n
		dPred.Data[k] = float32(2 * d / n)
	}
	return loss, dPred
}

// MeanAbsoluteError computes mean |pred-target| — the WAYMO metric of
// Table II. It is reported, not differentiated (training uses MSE).
func MeanAbsoluteError(pred, target *tensor.Matrix) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("model: MAE shape mismatch")
	}
	var s float64
	for k := range pred.Data {
		s += math.Abs(float64(pred.Data[k]) - float64(target.Data[k]))
	}
	if pred.Size() == 0 {
		return 0
	}
	return s / float64(pred.Size())
}

// Perplexity converts a mean cross-entropy (nats) into perplexity — the
// PTB metric of Table II.
func Perplexity(meanCE float64) float64 { return math.Exp(meanCE) }
