package compress

import (
	"encoding/binary"
	"math"
	"testing"

	"etalstm/internal/tensor"
)

// Negative tests for the decode hardening: records reassembled from
// untrusted bytes must come back as errors, never panics.

func TestDecodeRejectsOutOfRangeIndex(t *testing.T) {
	s := &Sparse{Rows: 2, Cols: 2, Values: []float32{1}, Indices: []int32{4}}
	if _, err := s.Decode(nil); err == nil {
		t.Fatal("index beyond Rows*Cols must be rejected")
	}
	s.Indices[0] = -1
	if _, err := s.Decode(nil); err == nil {
		t.Fatal("negative index must be rejected")
	}
}

func TestDecodeRejectsUnsortedIndices(t *testing.T) {
	s := &Sparse{Rows: 1, Cols: 4, Values: []float32{1, 2}, Indices: []int32{2, 1}}
	if _, err := s.Decode(nil); err == nil {
		t.Fatal("out-of-order indices must be rejected")
	}
	s.Indices = []int32{2, 2}
	if _, err := s.Decode(nil); err == nil {
		t.Fatal("duplicate indices must be rejected")
	}
}

func TestDecodeRejectsCountMismatch(t *testing.T) {
	s := &Sparse{Rows: 1, Cols: 4, Values: []float32{1, 2}, Indices: []int32{0}}
	if _, err := s.Decode(nil); err == nil {
		t.Fatal("values/indices length mismatch must be rejected")
	}
}

func TestValidateAcceptsEncoded(t *testing.T) {
	m := tensor.NewFromData(2, 3, []float32{0.5, 0.01, -0.3, 0, 0.09, -0.8})
	if err := encode(m, 0.1).Validate(); err != nil {
		t.Fatalf("encoded record must validate: %v", err)
	}
}

// FuzzSparseDecode reassembles hostile Sparse records from raw bytes —
// the FrameDecode-style attack surface, since a wire peer controls
// every field — and checks that decode either succeeds with scatter
// semantics or rejects the record with an error. Any panic fails the
// fuzzer.
func FuzzSparseDecode(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 0, 0x80, 0x3f})          // valid single pair
	f.Add([]byte{2, 2, 9, 0, 0, 0x80, 0x3f})          // index out of range
	f.Add([]byte{1, 4, 0x82, 1, 2, 3, 4})             // negative index
	f.Add([]byte{1, 4, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0}) // out of order
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 || len(raw) > 2048 {
			return
		}
		rows, cols := int(raw[0])%9, int(raw[1])%9
		raw = raw[2:]
		s := &Sparse{Rows: rows, Cols: cols}
		for len(raw) >= 5 {
			s.Indices = append(s.Indices, int32(int8(raw[0])))
			s.Values = append(s.Values, math.Float32frombits(binary.LittleEndian.Uint32(raw[1:])))
			raw = raw[5:]
		}
		if len(raw) > 0 && raw[0]&1 == 1 && len(s.Values) > 0 {
			s.Values = s.Values[:len(s.Values)-1] // sometimes desync the counts
		}
		m, err := s.Decode(nil)
		if err != nil {
			if s.Validate() == nil {
				t.Fatal("Decode errored on a record Validate accepts")
			}
		} else {
			if m.Rows != rows || m.Cols != cols {
				t.Fatalf("decoded shape %dx%d", m.Rows, m.Cols)
			}
			for i, idx := range s.Indices {
				if m.Data[idx] != s.Values[i] && !math.IsNaN(float64(s.Values[i])) {
					t.Fatalf("scatter mismatch at %d", idx)
				}
			}
		}
	})
}
