package compress

import (
	"encoding/binary"
	"math"
	"testing"

	"etalstm/internal/tensor"
)

// FuzzEncodeDecode feeds arbitrary byte strings reinterpreted as
// float32 matrices through the codec and checks the roundtrip
// invariants (survivor exactness, pruned-to-zero, NNZ bookkeeping).
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0}, float32(0.1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, float32(0.5))
	f.Fuzz(func(t *testing.T, raw []byte, threshold float32) {
		if len(raw) < 4 || len(raw) > 4096 {
			return
		}
		if math.IsNaN(float64(threshold)) || threshold < 0 || threshold > 10 {
			return
		}
		n := len(raw) / 4
		data := make([]float32, n)
		for i := range data {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			data[i] = v
		}
		m := tensor.NewFromData(1, n, data)

		s := encode(m, threshold)
		d := s.MustDecode(nil)
		for i, v := range data {
			av := v
			if av < 0 {
				av = -av
			}
			if av >= threshold {
				if d.Data[i] != v {
					t.Fatalf("survivor %d not exact", i)
				}
			} else if d.Data[i] != 0 {
				t.Fatalf("pruned %d not zero", i)
			}
		}
		if s.NNZ() != len(s.Indices) {
			t.Fatal("NNZ bookkeeping")
		}
	})
}
