package compress

import (
	"testing"
	"testing/quick"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m := tensor.NewFromData(2, 3, []float32{0.5, 0.05, -0.3, 0, 0.09, -0.8})
	s := encode(m, 0.1)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ: %d", s.NNZ())
	}
	d := s.MustDecode(nil)
	want := []float32{0.5, 0, -0.3, 0, 0, -0.8}
	for i, v := range want {
		if d.Data[i] != v {
			t.Fatalf("decode[%d]=%v want %v", i, d.Data[i], v)
		}
	}
}

func TestEncodeKeepsThresholdBoundary(t *testing.T) {
	m := tensor.NewFromData(1, 2, []float32{0.1, -0.1})
	s := encode(m, 0.1)
	if s.NNZ() != 2 {
		t.Fatal("values exactly at threshold must be kept")
	}
}

func TestDecodeIntoDst(t *testing.T) {
	m := tensor.NewFromData(1, 4, []float32{1, 0, 2, 0})
	s := encode(m, 0.5)
	dst := tensor.New(1, 4)
	for i := range dst.Data {
		dst.Data[i] = 9
	}
	s.MustDecode(dst)
	if dst.Data[1] != 0 || dst.Data[0] != 1 {
		t.Fatalf("Decode into dst: %v", dst.Data)
	}
}

func TestDecodeShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	encode(tensor.New(2, 2), 0.1).Decode(tensor.New(3, 3))
}

func TestSparsity(t *testing.T) {
	m := tensor.New(10, 10) // all zero
	s := encode(m, 0.1)
	if len(s.Values) != 0 || s.Rows*s.Cols != 100 {
		t.Fatalf("all-zero: %d of %d×%d kept, want none of 100", len(s.Values), s.Rows, s.Cols)
	}
	for i := range m.Data {
		m.Data[i] = 1
	}
	s = encode(m, 0.1)
	if len(s.Values) != 100 {
		t.Fatalf("dense: %d of 100 kept", len(s.Values))
	}
}

func TestCompressionWinsAtHighSparsity(t *testing.T) {
	// 65% below threshold (the paper's P1 distribution) must compress.
	r := rng.New(1)
	m := tensor.New(100, 100)
	for i := range m.Data {
		if r.Float64() < 0.65 {
			m.Data[i] = r.Uniform(-0.05, 0.05)
		} else {
			m.Data[i] = r.Uniform(0.2, 1)
		}
	}
	s := encode(m, 0.1)
	if sparsity := 1 - float64(len(s.Values))/float64(s.Rows*s.Cols); sparsity < 0.6 {
		t.Fatalf("expected ~0.65 sparsity, got %v", sparsity)
	}
	// 4 B per value and 2 B per index, against 4 B per dense element.
	if ratio := float64(6*len(s.Values)) / float64(s.Rows*s.Cols*4); ratio > 0.6 {
		t.Fatalf("expected <0.6 ratio at 65%% sparsity, got %v", ratio)
	}
}

// Property: decode(encode(m)) differs from m only at pruned positions,
// and every surviving value is exact.
func TestPropertyRoundtripExactness(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := tensor.New(7, 11)
		m.RandInit(r, 1)
		s := encode(m, 0.1)
		d := s.MustDecode(nil)
		for i, v := range m.Data {
			av := v
			if av < 0 {
				av = -av
			}
			if av >= 0.1 {
				if d.Data[i] != v {
					return false
				}
			} else if d.Data[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: indices are strictly increasing (DMA queue ordering).
func TestPropertyIndicesSorted(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := tensor.New(5, 5)
		m.RandInit(r, 1)
		s := encode(m, 0.3)
		for i := 1; i < len(s.Indices); i++ {
			if s.Indices[i] <= s.Indices[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// encode prunes |v| < threshold from m into a fresh record: the
// reference the feedback encoder and the decoder are checked against.
func encode(m *tensor.Matrix, threshold float32) *Sparse {
	s := &Sparse{Rows: m.Rows, Cols: m.Cols}
	for i, v := range m.Data {
		av := v
		if av < 0 {
			av = -av
		}
		if av >= threshold {
			s.Values = append(s.Values, v)
			s.Indices = append(s.Indices, int32(i))
		}
	}
	return s
}
