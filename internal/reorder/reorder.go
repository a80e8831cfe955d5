// Package reorder implements MS1, η-LSTM's cell-level intermediate
// variable reduction (paper Sec. IV-A). The execution reordering itself
// — computing BP-EW-P1 during the FW pass — lives in internal/lstm
// (ForwardWithP1/BackwardFromP1); this package adds what the paper
// layers on top:
//
//   - near-zero pruning of the P1 products at a threshold (~0.1), the
//     approximation that creates the compression opportunity;
//   - the count of entries pruned and kept, which the trainer reports
//     and the footprint and data-movement models consume as the
//     measured P1 sparsity.
//
// The compressed form the sparse BP cell consumes is lstm.SparseP1,
// which lstm.BackwardFromP1Sparse builds from the pruned planes.
package reorder

import (
	"etalstm/internal/compress"
	"etalstm/internal/lstm"
)

// Config tunes MS1.
type Config struct {
	// Threshold is the near-zero pruning threshold; values with
	// |v| < Threshold are dropped. Zero means compress.DefaultThreshold.
	Threshold float32
}

func (c Config) threshold() float32 {
	if c.Threshold == 0 {
		return compress.DefaultThreshold
	}
	return c.Threshold
}

// PruneStats reports what pruning one P1 set (or a whole pass) removed.
type PruneStats struct {
	Elements int64 // total P1 entries seen
	Pruned   int64 // entries zeroed
}

// Frac returns the pruned fraction.
func (s PruneStats) Frac() float64 {
	if s.Elements == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Elements)
}

// Add merges two stat sets.
func (s PruneStats) Add(o PruneStats) PruneStats {
	return PruneStats{Elements: s.Elements + o.Elements, Pruned: s.Pruned + o.Pruned}
}

// Kept returns the entries that survived pruning — the value+index
// pairs the compressed P1 store actually holds.
func (s PruneStats) Kept() int64 { return s.Elements - s.Pruned }

// PruneInPlace zeroes every |v| < threshold entry of the P1 set —
// the approximation that training under MS1 actually experiences.
// (Encoding and decoding through the sparse codec is lossless beyond
// this pruning, so applying it in place is behaviourally identical and
// lets the trainer avoid the codec on the hot path.)
func PruneInPlace(p1 *lstm.P1, cfg Config) PruneStats {
	th := cfg.threshold()
	var st PruneStats
	for _, m := range p1.Matrices() {
		st.Elements += int64(len(m.Data))
		for i, v := range m.Data {
			av := v
			if av < 0 {
				av = -av
			}
			if av < th {
				if v != 0 {
					m.Data[i] = 0
				}
				st.Pruned++
			}
		}
	}
	return st
}
