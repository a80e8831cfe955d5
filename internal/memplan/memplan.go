// Package memplan models the training-time memory footprint of an LSTM
// configuration under the baseline flow and under η-LSTM's software
// optimizations — the quantities of paper Fig. 5 (breakdown and total)
// and Fig. 18 (reduction under MS1/MS2/Combined).
//
// Categories follow the paper's three bars:
//
//   - Parameter: the weight matrices plus the gradient buffers that
//     mirror them during BP;
//   - Activations: the per-timestep data every flow must keep for BP —
//     layer inputs, hidden outputs h, and the output/loss buffers;
//   - Intermediate_Variable: the per-cell FW-EW products (f, i, c̃, o, s)
//     whose long FW→BP reuse distance parks them in DRAM — the paper's
//     root cause of large-LSTM inefficiency.
//
// All quantities are bytes for one in-flight training step at the
// configured batch size, in float32.
package memplan

import (
	"etalstm/internal/model"
)

// Mode selects the training flow being modeled.
type Mode int

// The four flows compared in Fig. 18.
const (
	Baseline Mode = iota
	MS1           // cell-level variable reduction (compressed P1)
	MS2           // BP-cell skipping
	Combined      // MS1 + MS2 (η-LSTM software level)
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case MS1:
		return "MS1"
	case MS2:
		return "MS2"
	case Combined:
		return "Combine-MS"
	}
	return "Mode(?)"
}

// Params carries the measured inputs the optimized modes need.
type Params struct {
	// P1KeepRatio is the compressed size of a P1 set relative to the
	// dense raw intermediates it replaces: (6 planes × (1-sparsity) ×
	// 6 B/pair) / (5 planes × 4 B). Derive with FromSparsity.
	P1KeepRatio float64
	// SkipFrac is the fraction of cells whose BP execution (and hence
	// FW-side storage) MS2 eliminates.
	SkipFrac float64
}

// FromSparsity converts a measured P1 near-zero fraction into the
// P1KeepRatio MS1 achieves with 4 B values + 2 B indices: six P1 planes
// replace five raw planes.
func FromSparsity(sparsity float64) float64 {
	const planesP1, planesRaw = 6.0, 5.0
	const pairBytes, denseBytes = 6.0, 4.0
	return planesP1 * (1 - sparsity) * pairBytes / (planesRaw * denseBytes)
}

// Breakdown is a footprint split by the paper's categories.
type Breakdown struct {
	Parameter    int64
	Activations  int64
	Intermediate int64
}

// Total returns the summed footprint.
func (b Breakdown) Total() int64 { return b.Parameter + b.Activations + b.Intermediate }

// IntermediateFrac returns the intermediate share of the total (the
// 47.18 % average / 74.01 % max statistic of Sec. III-B).
func (b Breakdown) IntermediateFrac() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Intermediate) / float64(t)
}

// weightBytes returns the weight storage of cfg (all layers' W, U, b
// plus the output projection).
func weightBytes(cfg model.Config) int64 {
	var b int64
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.Hidden
		if l == 0 {
			in = cfg.InputSize
		}
		b += int64(4*(in*cfg.Hidden+cfg.Hidden*cfg.Hidden+cfg.Hidden)) * 4
	}
	b += int64(cfg.Hidden*cfg.OutSize+cfg.OutSize) * 4
	return b
}

// activationBytes returns the stored activations: external inputs,
// every cell's h output, and the output-side buffers (logits and their
// gradients at evaluated timesteps).
func activationBytes(cfg model.Config) int64 {
	b := int64(cfg.SeqLen*cfg.Batch*cfg.InputSize) * 4         // inputs
	b += int64(cfg.Layers*cfg.SeqLen*cfg.Batch*cfg.Hidden) * 4 // h per cell
	steps := cfg.SeqLen
	if cfg.Loss == model.SingleLoss {
		steps = 1
	}
	b += int64(2*steps*cfg.Batch*cfg.OutSize) * 4 // logits + dLogits
	// BP seed planes: the dY = dLogits·Projᵀ buffers materialized per
	// evaluated timestep at the start of BP. These live in the output/loss
	// share, NOT the per-cell share — MS2 creates them even for skipped
	// top-layer cells (the seed exists before the skip decision), so they
	// must not scale with liveFrac. Earlier revisions omitted them, which
	// under-counted the fixed share exactly where MS2's skip scaling made
	// the discrepancy visible.
	b += int64(steps*cfg.Batch*cfg.Hidden) * 4
	return b
}

// intermediateBytes returns the baseline per-step intermediate storage:
// five batch×hidden planes per cell.
func intermediateBytes(cfg model.Config) int64 {
	return int64(5*cfg.Layers*cfg.SeqLen*cfg.Batch*cfg.Hidden) * 4
}

// Footprint returns the modeled footprint of cfg under mode.
func Footprint(cfg model.Config, mode Mode, p Params) Breakdown {
	w := weightBytes(cfg)
	b := Breakdown{
		// weights + mirrored gradient buffers
		Parameter:    2 * w,
		Activations:  activationBytes(cfg),
		Intermediate: intermediateBytes(cfg),
	}
	keep := p.P1KeepRatio
	if keep == 0 {
		keep = FromSparsity(0.65) // the paper's Fig. 6 operating point
	}
	// When the measured sparsity is too low for value+index pairs to
	// pay off, the flow stores the raw intermediates exactly as the
	// baseline would (the DMA's dense/sparse discriminator, Fig. 14),
	// so MS1 can never cost footprint.
	if keep > 1 {
		keep = 1
	}
	liveFrac := 1 - p.SkipFrac
	switch mode {
	case Baseline:
	case MS1:
		b.Intermediate = int64(float64(b.Intermediate) * keep)
	case MS2:
		// Skipped cells store no intermediates and no BP-side
		// activations (their FW runs in inference mode). Inputs and the
		// output buffers remain.
		b.Intermediate = int64(float64(b.Intermediate) * liveFrac)
		b.Activations = scaleCellActivations(cfg, b.Activations, liveFrac)
	case Combined:
		b.Intermediate = int64(float64(b.Intermediate) * keep * liveFrac)
		b.Activations = scaleCellActivations(cfg, b.Activations, liveFrac)
	}
	return b
}

// scaleCellActivations scales only the per-cell h storage by liveFrac,
// leaving the external inputs and output buffers whole.
func scaleCellActivations(cfg model.Config, total int64, liveFrac float64) int64 {
	cellH := int64(cfg.Layers*cfg.SeqLen*cfg.Batch*cfg.Hidden) * 4
	fixed := total - cellH
	return fixed + int64(float64(cellH)*liveFrac)
}
