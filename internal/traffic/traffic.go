// Package traffic models the DRAM data movement of one LSTM training
// step, split into the paper's three categories (weight matrices,
// activation data, intermediate variables) — the quantities behind
// Fig. 4 (baseline characterization) and Fig. 17 (reduction under
// MS1/MS2/η-LSTM).
//
// The model counts off-chip transfers a scratchpad-based accelerator
// (or a GPU whose L2 cannot hold the working set — the large-model
// regime the paper characterizes) must perform:
//
//	Weights:        read per cell in FW (W, U); read again in BP for
//	                δX/δH (Eq. 2) and the gradient write-back.
//	Activations:    h written once per cell in FW (stored for BP); x and
//	                h_{t-1} read per cell in BP; the FW-side x read is
//	                producer-consumer with the layer below and stays
//	                on-chip, except layer 0's external input stream.
//	Intermediates:  five planes written per cell in FW; six plane reads
//	                per cell in BP (f, i, c̃, o, s and s_{t-1}).
//
// MS1 changes the intermediate traffic to compressed P1 writes+reads
// and lets BP skip weight reads for pruned gate-gradient rows. MS2
// removes the whole BP-side traffic of skipped cells and the FW-side
// stores feeding them.
package traffic

import (
	"etalstm/internal/model"
)

// Movement is DRAM traffic in bytes by category.
type Movement struct {
	Weights       int64
	Activations   int64
	Intermediates int64
}

// Total returns the summed traffic.
func (m Movement) Total() int64 { return m.Weights + m.Activations + m.Intermediates }

// layerWeightBytes returns the W+U bytes of layer l.
func layerWeightBytes(cfg model.Config, l int) int64 {
	in := cfg.Hidden
	if l == 0 {
		in = cfg.InputSize
	}
	return int64(4*(in*cfg.Hidden+cfg.Hidden*cfg.Hidden)) * 4
}

// Baseline returns the per-step traffic of the unoptimized flow.
func Baseline(cfg model.Config) Movement {
	var m Movement
	planeBytes := int64(cfg.Batch*cfg.Hidden) * 4
	for l := 0; l < cfg.Layers; l++ {
		w := layerWeightBytes(cfg, l)
		inBytes := planeBytes
		if l == 0 {
			inBytes = int64(cfg.Batch*cfg.InputSize) * 4
		}
		for t := 0; t < cfg.SeqLen; t++ {
			// FW: read W,U; BP: read W,U for Eq. 2 and stream the
			// gradient accumulators once per cell.
			m.Weights += 3 * w
			// FW: layer 0 streams the external input from DRAM; upper
			// layers consume the layer below's h on-chip. The h output
			// is written once (stored for BP); BP reads x and h_{t-1}.
			if l == 0 {
				m.Activations += inBytes
			}
			m.Activations += inBytes + 2*planeBytes
			// FW: write f,i,c̃,o,s. BP: read f,i,c̃,o,s,s_{t-1}.
			m.Intermediates += 11 * planeBytes
		}
	}
	return m
}

// WithMS1 returns the traffic under cell-level variable reduction.
// sparsity is the P1 near-zero fraction.
func WithMS1(cfg model.Config, sparsity float64) Movement {
	base := Baseline(cfg)
	m := base

	// Intermediates: FW writes six compressed planes, BP reads them
	// back. Compressed plane traffic = dense × (1-sparsity) × 6/4
	// (value+index pair per survivor), over 12 plane-transfers versus
	// the baseline's 11.
	pairRatio := (1 - sparsity) * 6.0 / 4.0
	m.Intermediates = int64(float64(base.Intermediates) / 11.0 * 12.0 * pairRatio)

	// Weights: of the 3 weight transfers per cell, 2 belong to BP; the
	// pruned gate-gradient rows let the decoder skip the matching
	// weight rows of the BP-MatMul reads (paper Fig. 14: the index
	// queue drives sparse operand fetch).
	bpShare := 2.0 / 3.0
	m.Weights = int64(float64(base.Weights) * (1 - bpShare*sparsity))
	return m
}

// WithMS2 returns the traffic under BP-cell skipping. skipFrac is the
// fraction of cells skipped.
func WithMS2(cfg model.Config, skipFrac float64) Movement {
	base := Baseline(cfg)
	live := 1 - skipFrac
	var m Movement
	// Weights: FW still reads W,U for every cell (1/3 of baseline);
	// the BP 2/3 only for executed cells.
	m.Weights = int64(float64(base.Weights) * (1.0/3.0 + 2.0/3.0*live))
	// Activations: layer 0's FW input stream is unconditional; the
	// BP-feeding stores/reads (h write, x and h_{t-1} reads) only
	// happen for executed cells.
	fixed := int64(cfg.SeqLen*cfg.Batch*cfg.InputSize) * 4
	m.Activations = fixed + int64(float64(base.Activations-fixed)*live)
	// Intermediates: skipped cells neither store nor load.
	m.Intermediates = int64(float64(base.Intermediates) * live)
	return m
}

// Combined returns the traffic under MS1+MS2 (the η-LSTM software
// level): MS1's compression applies to the cells MS2 still executes.
func Combined(cfg model.Config, sparsity, skipFrac float64) Movement {
	ms1 := WithMS1(cfg, sparsity)
	live := 1 - skipFrac
	var m Movement
	fwWeightShare := 1.0 / 3.0
	bpWeightFactor := float64(ms1.Weights)/float64(Baseline(cfg).Weights) - fwWeightShare
	m.Weights = int64(float64(Baseline(cfg).Weights) * (fwWeightShare + bpWeightFactor*live))
	m.Activations = WithMS2(cfg, skipFrac).Activations
	m.Intermediates = int64(float64(ms1.Intermediates) * live)
	return m
}

// Reduction returns per-category 1 − optimized/baseline fractions (the
// Fig. 17 metric).
type Reduction struct {
	Weights       float64
	Activations   float64
	Intermediates float64
}

// ReductionVs computes the reduction of opt against base.
func ReductionVs(base, opt Movement) Reduction {
	frac := func(b, o int64) float64 {
		if b == 0 {
			return 0
		}
		return 1 - float64(o)/float64(b)
	}
	return Reduction{
		Weights:       frac(base.Weights, opt.Weights),
		Activations:   frac(base.Activations, opt.Activations),
		Intermediates: frac(base.Intermediates, opt.Intermediates),
	}
}
