// Package compress implements the near-zero pruning and sparse encoding
// the η-LSTM DMA module applies to BP-EW-P1 products (paper Sec. IV-A
// and Fig. 14): values whose magnitude falls below a threshold are
// dropped; survivors are stored as (value, index) pairs. The
// distributed trainer ships gradients in this encoding, picking the
// threshold per step with a top-k selector and carrying what it prunes
// forward as error feedback (feedback.go).
package compress

import (
	"fmt"

	"etalstm/internal/tensor"
)

// DefaultThreshold is the near-zero pruning threshold the paper found
// to combine large memory savings with negligible accuracy loss
// (Sec. IV-A: "around 0.1").
const DefaultThreshold = 0.1

// Sparse is a value+index encoding of a pruned matrix: Values[i] lives
// at flat offset Indices[i] of the original Rows×Cols matrix. Indices
// are strictly increasing. This mirrors the WT data / WT index queue
// pair of the customized DMA module.
type Sparse struct {
	Rows, Cols int
	Values     []float32
	Indices    []int32
}

// Validate checks the structural invariants a record must hold before
// it can be decoded: matching Values/Indices lengths and strictly
// increasing indices inside the declared Rows×Cols range. Records built
// by a Feedback encoder hold these by construction; records reassembled from
// external bytes (a wire payload, a fuzzer) may not.
func (s *Sparse) Validate() error {
	if s.Rows < 0 || s.Cols < 0 {
		return fmt.Errorf("compress: negative shape %dx%d", s.Rows, s.Cols)
	}
	if len(s.Values) != len(s.Indices) {
		return fmt.Errorf("compress: %d values vs %d indices", len(s.Values), len(s.Indices))
	}
	n := s.Rows * s.Cols
	prev := int32(-1)
	for _, idx := range s.Indices {
		if idx <= prev || int64(idx) >= int64(n) {
			return fmt.Errorf("compress: index %d out of order or range (%d elements)", idx, n)
		}
		prev = idx
	}
	return nil
}

// Decode reconstructs the dense matrix (pruned entries become zero).
// If dst is non-nil it is zeroed and filled in place; a shape mismatch
// between dst and the record is a programming error and panics, like
// the rest of the tensor package. A corrupt record — indices out of
// range or out of order, mismatched value/index counts — is rejected
// with an error rather than panicking, so hostile payloads cannot take
// the process down.
func (s *Sparse) Decode(dst *tensor.Matrix) (*tensor.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = tensor.New(s.Rows, s.Cols)
	} else {
		if dst.Rows != s.Rows || dst.Cols != s.Cols {
			panic(fmt.Sprintf("compress: Decode dst %dx%d want %dx%d",
				dst.Rows, dst.Cols, s.Rows, s.Cols))
		}
		dst.Zero()
	}
	for i, idx := range s.Indices {
		dst.Data[idx] = s.Values[i]
	}
	return dst, nil
}

// MustDecode is Decode for records that are valid by construction
// (built by a Feedback encoder in this process). It panics on a corrupt
// record.
func (s *Sparse) MustDecode(dst *tensor.Matrix) *tensor.Matrix {
	m, err := s.Decode(dst)
	if err != nil {
		panic(err)
	}
	return m
}

// NNZ returns the number of retained (nonzero) entries.
func (s *Sparse) NNZ() int { return len(s.Values) }
