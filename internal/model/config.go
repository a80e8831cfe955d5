// Package model builds multi-layer LSTM networks on top of the cell in
// internal/lstm: stacked layers with a linear output projection, the
// three loss topologies the paper distinguishes (single loss,
// per-timestamp loss, regression), and a backpropagation-through-time
// driver whose per-cell storage behaviour is pluggable — the hook MS1
// (store P1 instead of raw gates) and MS2 (store nothing for skipped
// cells) attach to.
package model

import "fmt"

// LossKind selects the loss topology, which the paper shows determines
// the per-timestamp gradient-magnitude pattern (Fig. 8) and therefore
// which BP cells MS2 may skip.
type LossKind int

const (
	// SingleLoss computes one cross-entropy loss from the final
	// timestamp of the top layer (e.g. IMDB sentiment, TREC-10, BABI).
	SingleLoss LossKind = iota
	// PerTimestampLoss computes a cross-entropy loss at every timestamp
	// of the top layer (e.g. PTB language modeling, WMT translation).
	PerTimestampLoss
	// RegressionLoss computes a squared-error loss at every timestamp
	// against real-valued targets (e.g. WAYMO trajectory tracking).
	RegressionLoss
)

// String implements fmt.Stringer.
func (k LossKind) String() string {
	switch k {
	case SingleLoss:
		return "single-loss"
	case PerTimestampLoss:
		return "per-timestamp-loss"
	case RegressionLoss:
		return "regression-loss"
	}
	return fmt.Sprintf("LossKind(%d)", int(k))
}

// Config describes a stacked LSTM model with the geometry vocabulary of
// the paper: hidden size, layer number (LN) and layer length (LL).
type Config struct {
	InputSize int      // feature width of x_t
	Hidden    int      // hidden size (H)
	Layers    int      // layer number (LN)
	SeqLen    int      // layer length (LL) — timestamps per unrolled layer
	Batch     int      // minibatch size
	OutSize   int      // output width (vocab or regression dims)
	Loss      LossKind // loss topology
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.InputSize <= 0:
		return fmt.Errorf("model: InputSize %d must be positive", c.InputSize)
	case c.Hidden <= 0:
		return fmt.Errorf("model: Hidden %d must be positive", c.Hidden)
	case c.Layers <= 0:
		return fmt.Errorf("model: Layers %d must be positive", c.Layers)
	case c.SeqLen <= 0:
		return fmt.Errorf("model: SeqLen %d must be positive", c.SeqLen)
	case c.Batch <= 0:
		return fmt.Errorf("model: Batch %d must be positive", c.Batch)
	case c.OutSize <= 0:
		return fmt.Errorf("model: OutSize %d must be positive", c.OutSize)
	}
	return nil
}

// Cells returns the number of unrolled cells (Layers × SeqLen).
func (c Config) Cells() int { return c.Layers * c.SeqLen }

// CellStore tells the BPTT driver what a given FW cell retains for its
// BP counterpart.
type CellStore int

const (
	// StoreRaw keeps the five raw intermediates (baseline flow).
	StoreRaw CellStore = iota
	// StoreP1 keeps only the BP-EW-P1 products (MS1 reordered flow).
	StoreP1
	// StoreNone keeps nothing; the BP cell is skipped (MS2 flow —
	// "as if performing LSTM inference" for that cell).
	StoreNone
)

// StoragePolicy decides the storage mode per unrolled cell. Implemented
// by the baseline (always StoreRaw), MS1 (always StoreP1), MS2 (StoreRaw
// or StoreNone per skip plan) and the combined η-LSTM policy.
type StoragePolicy interface {
	Store(layer, t int) CellStore
}

// PolicyFunc adapts a function to the StoragePolicy interface.
type PolicyFunc func(layer, t int) CellStore

// Store implements StoragePolicy.
func (f PolicyFunc) Store(layer, t int) CellStore { return f(layer, t) }

// BaselinePolicy stores raw intermediates everywhere.
func BaselinePolicy() StoragePolicy {
	return PolicyFunc(func(int, int) CellStore { return StoreRaw })
}

// P1Policy stores P1 products everywhere (pure MS1).
func P1Policy() StoragePolicy {
	return PolicyFunc(func(int, int) CellStore { return StoreP1 })
}

// InferencePolicy stores nothing per cell: the forward pass keeps only
// the hidden outputs, for callers that never run BP (evaluation,
// generation).
func InferencePolicy() StoragePolicy {
	return PolicyFunc(func(int, int) CellStore { return StoreNone })
}
