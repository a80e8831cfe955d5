// Package skip implements MS2, η-LSTM's BP layer-length reduction
// (paper Sec. IV-B): predicting which BP cells produce insignificant
// weight gradients, skipping their execution (and the storage of their
// FW intermediates), and compensating the lost gradient mass with a
// convergence-aware scaling factor.
//
// The two closed-form models come straight from the paper:
//
//	Eq. 4:  δW_Mag = α · Σloss · (LN − layerID) / (LL − timeStamp)^β
//	Eq. 5:  pred_loss_n = loss_{n-1} − (loss_{n-2}−loss_{n-1})² / (loss_{n-3}−loss_{n-2})
//
// with β = +1 for single-loss models (gradients vanish toward early
// timestamps) and β = −1 for per-timestamp-loss models (gradients
// accumulate toward early timestamps).
package skip

import (
	"fmt"
	"math"

	"etalstm/internal/model"
)

// DefaultThreshold is the relative significance threshold: a BP cell is
// skipped when its predicted magnitude falls below Threshold × the
// layer's maximum predicted magnitude.
const DefaultThreshold = 0.08

// Predictor evaluates the paper's Eq. 4 for a fixed model geometry.
type Predictor struct {
	Alpha float64 // model/dataset factor, calibrated from epoch 0
	Beta  float64 // +1 single loss, −1 per-timestamp loss
	LN    int     // layer number
	LL    int     // layer length
	Loss  model.LossKind
}

// NewPredictor builds a predictor for the given loss topology. Alpha
// starts at 1 and should be calibrated with Calibrate after the first
// epoch (the paper computes α "using the results of the first training
// epoch").
func NewPredictor(loss model.LossKind, layers, seqLen int) *Predictor {
	beta := 1.0
	if loss != model.SingleLoss {
		// Per-timestamp and regression losses supervise every timestamp,
		// giving the "gradients grow toward early timestamps" pattern of
		// paper Fig. 8b.
		beta = -1
	}
	return &Predictor{Alpha: 1, Beta: beta, LN: layers, LL: seqLen, Loss: loss}
}

// SumLoss returns the Σloss term of Eq. 4 for a cell at timestamp t:
// the loss accumulated from the last timestamp down to t. For single-
// loss models that is the whole loss regardless of t; for per-timestamp
// models the per-step losses from t to LL−1 sum (we use the uniform
// split of the predicted epoch loss, matching how the predictor runs
// before FW produces actual per-step values).
func (p *Predictor) SumLoss(totalLoss float64, t int) float64 {
	if p.Loss == model.SingleLoss {
		return totalLoss
	}
	if p.LL == 0 {
		return totalLoss
	}
	return totalLoss * float64(p.LL-t) / float64(p.LL)
}

// Magnitude evaluates Eq. 4 for the BP cell at (layer, t), 0-indexed.
func (p *Predictor) Magnitude(totalLoss float64, layer, t int) float64 {
	sum := p.SumLoss(totalLoss, t)
	layerTerm := float64(p.LN - layer) // first layer largest, last layer == 1
	dist := float64(p.LL - t)          // distance from the end, ≥ 1
	if dist < 1 {
		dist = 1
	}
	return p.Alpha * sum * layerTerm / math.Pow(dist, p.Beta)
}

// Calibrate fits Alpha from observed per-cell gradient magnitudes of
// the first epoch: α := mean(observed / predicted-with-α-1). observed
// is indexed [layer][t]; zero entries are ignored.
func (p *Predictor) Calibrate(totalLoss float64, observed [][]float64) {
	saved := p.Alpha
	p.Alpha = 1
	var ratio float64
	n := 0
	for l := range observed {
		for t, obs := range observed[l] {
			if obs <= 0 {
				continue
			}
			pred := p.Magnitude(totalLoss, l, t)
			if pred <= 0 {
				continue
			}
			ratio += obs / pred
			n++
		}
	}
	if n == 0 {
		p.Alpha = saved
		return
	}
	p.Alpha = ratio / float64(n)
}

// LossHistory records per-epoch losses and extrapolates the next one
// with the paper's Eq. 5 (an Aitken Δ² step).
type LossHistory struct {
	losses []float64
}

// Record appends a completed epoch's loss.
func (h *LossHistory) Record(loss float64) { h.losses = append(h.losses, loss) }

// Last returns the most recent recorded loss (0 if none).
func (h *LossHistory) Last() float64 {
	if len(h.losses) == 0 {
		return 0
	}
	return h.losses[len(h.losses)-1]
}

// Predict extrapolates the next epoch's loss. The first three epochs
// cannot predict (the paper runs them unmodified); ok is false then,
// and also when the denominator degenerates (plateaued loss), in which
// case callers should fall back to the last observed loss.
func (h *LossHistory) Predict() (pred float64, ok bool) {
	n := len(h.losses)
	if n < 3 {
		return 0, false
	}
	l1 := h.losses[n-1] // loss_{n-1}
	l2 := h.losses[n-2]
	l3 := h.losses[n-3]
	den := l3 - l2
	if math.Abs(den) < 1e-12 {
		return l1, true
	}
	d := l2 - l1
	pred = l1 - d*d/den
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		return l1, true
	}
	// A loss prediction below zero is an extrapolation artifact; clamp.
	if pred < 0 {
		pred = 0
	}
	return pred, true
}

// DefaultMaxFrac caps the per-layer skipped fraction. Eq. 4's power-law
// decay marks the vast majority of a very long layer insignificant; the
// convergence-aware design refuses to drop more than this share so the
// surviving gradients (even rescaled) keep enough signal.
const DefaultMaxFrac = 0.5

// Config tunes the skip planner.
type Config struct {
	// Threshold is the relative significance cutoff (0 means
	// DefaultThreshold).
	Threshold float64
	// AbsoluteThreshold, when positive, switches the planner to an
	// absolute cutoff: a cell is skipped when its predicted magnitude
	// falls below this value. This is how the paper's Eq. 5 loss
	// prediction feeds back — as the predicted loss shrinks across
	// epochs, more cells drop below the fixed bar. Calibrate the bar
	// against epoch-0 magnitudes (Predictor.Calibrate).
	AbsoluteThreshold float64
	// MaxFrac caps the skipped fraction per layer (0 means
	// DefaultMaxFrac; set negative for no cap).
	MaxFrac float64
	// Base is the storage mode for executed cells: model.StoreRaw for
	// pure MS2, model.StoreP1 when combined with MS1.
	Base model.CellStore
}

func (c Config) maxFrac() float64 {
	if c.MaxFrac == 0 {
		return DefaultMaxFrac
	}
	if c.MaxFrac < 0 {
		return 1
	}
	return c.MaxFrac
}

func (c Config) threshold() float64 {
	if c.Threshold == 0 {
		return DefaultThreshold
	}
	return c.Threshold
}

// Plan is a per-cell skip decision grid plus the per-layer scaling
// factors that offset the skipped gradient mass (paper Fig. 9).
type Plan struct {
	Skip  [][]bool  // [layer][t]; true = skip the BP cell
	Scale []float64 // per-layer amplification for surviving gradients
	base  model.CellStore
}

// Build constructs a skip plan from predicted loss. Every layer keeps
// at least its maximum-magnitude cell, so training never stalls.
func Build(p *Predictor, predictedLoss float64, cfg Config) *Plan {
	th := cfg.threshold()
	plan := &Plan{base: cfg.Base}
	for l := 0; l < p.LN; l++ {
		mags := make([]float64, p.LL)
		mx := 0.0
		for t := 0; t < p.LL; t++ {
			mags[t] = p.Magnitude(predictedLoss, l, t)
			if mags[t] > mx {
				mx = mags[t]
			}
		}
		row := make([]bool, p.LL)
		for t := 0; t < p.LL; t++ {
			switch {
			case cfg.AbsoluteThreshold > 0:
				row[t] = mags[t] < cfg.AbsoluteThreshold
			case mx > 0 && mags[t] < th*mx:
				row[t] = true
			}
		}
		// Never skip the layer's most significant cell.
		if mx > 0 {
			for t := 0; t < p.LL; t++ {
				if mags[t] == mx {
					row[t] = false
					break
				}
			}
		}
		capSkips(row, mags, cfg.maxFrac())
		var sumAll, sumKept float64
		for t := 0; t < p.LL; t++ {
			sumAll += mags[t]
			if !row[t] {
				sumKept += mags[t]
			}
		}
		scale := 1.0
		if sumKept > 0 {
			scale = sumAll / sumKept
		}
		plan.Skip = append(plan.Skip, row)
		plan.Scale = append(plan.Scale, scale)
	}
	return plan
}

// capSkips un-skips the highest-magnitude skipped cells until the
// skipped share of the layer is at most maxFrac.
func capSkips(row []bool, mags []float64, maxFrac float64) {
	allowed := int(maxFrac * float64(len(row)))
	skipped := 0
	for _, s := range row {
		if s {
			skipped++
		}
	}
	for skipped > allowed {
		best, bestMag := -1, -1.0
		for t, s := range row {
			if s && mags[t] > bestMag {
				best, bestMag = t, mags[t]
			}
		}
		if best < 0 {
			return
		}
		row[best] = false
		skipped--
	}
}

// NoSkip returns a plan that executes everything (used for the first
// three epochs, before Eq. 5 has history).
func NoSkip(layers, seqLen int, base model.CellStore) *Plan {
	plan := &Plan{base: base}
	for l := 0; l < layers; l++ {
		plan.Skip = append(plan.Skip, make([]bool, seqLen))
		plan.Scale = append(plan.Scale, 1)
	}
	return plan
}

// Policy adapts the plan to the model.StoragePolicy interface.
func (p *Plan) Policy() model.StoragePolicy {
	return model.PolicyFunc(func(layer, t int) model.CellStore {
		if layer < len(p.Skip) && t < len(p.Skip[layer]) && p.Skip[layer][t] {
			return model.StoreNone
		}
		return p.base
	})
}

// SkippedFrac returns the fraction of cells the plan skips.
func (p *Plan) SkippedFrac() float64 {
	total, skipped := 0, 0
	for _, row := range p.Skip {
		for _, s := range row {
			total++
			if s {
				skipped++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(skipped) / float64(total)
}

// ApplyScaling amplifies each layer's accumulated gradients by the
// plan's per-layer factor — the convergence-aware offset of Sec. IV-B.
func (p *Plan) ApplyScaling(grads *model.Gradients) error {
	if len(grads.Layer) != len(p.Scale) {
		return fmt.Errorf("skip: plan has %d layers, gradients %d", len(p.Scale), len(grads.Layer))
	}
	for l, g := range grads.Layer {
		if p.Scale[l] != 1 {
			g.Scale(float32(p.Scale[l]))
		}
	}
	return nil
}
