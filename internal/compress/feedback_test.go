package compress

import (
	"math"
	"testing"

	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

func TestEncodeIntoMatchesEncode(t *testing.T) {
	m := benchMatrix(0.65)
	want := encode(m, 0.1)
	var dst Sparse
	var fb Feedback
	got := fb.EncodeInto(&dst, m, 0.1)
	if got != &dst {
		t.Fatal("EncodeInto must return its dst")
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape/nnz mismatch: %dx%d/%d vs %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.Values {
		if math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) || got.Indices[i] != want.Indices[i] {
			t.Fatalf("pair %d: (%v,%d) vs (%v,%d)", i, got.Values[i], got.Indices[i], want.Values[i], want.Indices[i])
		}
	}
	// A second encode into the same dst reuses storage and overwrites.
	small := tensor.New(2, 2)
	small.Data = []float32{0, 5, 0, -7}
	var fresh Feedback
	fresh.EncodeInto(&dst, small, 1)
	if dst.NNZ() != 2 || dst.Values[0] != 5 || dst.Values[1] != -7 {
		t.Fatalf("reused dst holds %v", dst.Values)
	}
}

func TestTopKThresholdSelection(t *testing.T) {
	r := rng.New(7)
	data := make([]float32, 1000)
	for i := range data {
		data[i] = r.Uniform(-1, 1)
	}
	for _, keep := range []float64{0.01, 0.1, 0.5} {
		th, _ := TopKThreshold(data, keep, nil)
		kept := 0
		for _, v := range data {
			if v < 0 {
				v = -v
			}
			if v >= th {
				kept++
			}
		}
		want := int(keep*float64(len(data)) + 0.5)
		// Ties can keep slightly more than k, never fewer.
		if kept < want || kept > want+8 {
			t.Errorf("keep %g: selected %d of %d, want ~%d", keep, kept, len(data), want)
		}
	}
	// Degenerate cases: tiny tensors keep at least one entry; keep-all
	// drops only exact zeros.
	th, _ := TopKThreshold([]float32{0.5, -0.25, 0.125}, 0.01, nil)
	if th > 0.5 {
		t.Fatalf("min-1 floor violated: threshold %v drops everything", th)
	}
	th, _ = TopKThreshold([]float32{0.5, -0.25, 0}, 1, nil)
	if th != math.SmallestNonzeroFloat32 {
		t.Fatalf("keep-all threshold %v", th)
	}
}

// TestFeedbackConservation pins the error-feedback identity on the raw
// accumulator (the dist codec tests pin it end-to-end over the wire):
// elementwise, raw + residual_in == transmitted + residual_out exactly.
func TestFeedbackConservation(t *testing.T) {
	r := rng.New(11)
	m := tensor.New(8, 16)
	var fb Feedback
	var s Sparse
	for step := 0; step < 6; step++ {
		for i := range m.Data {
			m.Data[i] = r.Uniform(-1, 1)
		}
		resIn := append([]float32(nil), fb.Residual()...)
		fb.EncodeTopK(&s, m, 0.1)
		sent := make([]float32, len(m.Data))
		for i, idx := range s.Indices {
			sent[idx] = s.Values[i]
		}
		for i, raw := range m.Data {
			var prev float32
			if i < len(resIn) {
				prev = resIn[i]
			}
			want := raw + prev
			got := sent[i] + fb.Residual()[i]
			if math.Float32bits(want) != math.Float32bits(got) {
				t.Fatalf("step %d elem %d: raw+res_in %v != sent+res_out %v", step, i, want, got)
			}
		}
	}
}

// TestEncodeWarmPathAllocFree pins the satellite guarantee: once the
// reusable buffers have grown to the working set, neither the plain
// Feedback.EncodeInto path nor the feedback top-k path allocates.
func TestEncodeWarmPathAllocFree(t *testing.T) {
	m := benchMatrix(0.65)
	var dst Sparse
	var fb Feedback
	fb.EncodeInto(&dst, m, 0.1) // warm the residual buffer
	if n := testing.AllocsPerRun(10, func() { fb.EncodeInto(&dst, m, 0.1) }); n != 0 {
		t.Errorf("warm Feedback.EncodeInto allocates %v times per run", n)
	}
	var fbK Feedback
	fbK.EncodeTopK(&dst, m, 0.05) // warm the residual buffer and quickselect scratch
	if n := testing.AllocsPerRun(10, func() { fbK.EncodeTopK(&dst, m, 0.05) }); n != 0 {
		t.Errorf("warm Feedback.EncodeTopK allocates %v times per run", n)
	}
}

// TestFeedbackSetSharesScratch: accumulators of one NewFeedbackSet
// share their quickselect scratch, and sharing changes no result — each
// member encodes bitwise like a lone Feedback fed the same tensors.
func TestFeedbackSetSharesScratch(t *testing.T) {
	r := rng.New(5)
	ms := []*tensor.Matrix{tensor.New(8, 16), tensor.New(1, 9), tensor.New(32, 4)}
	set := NewFeedbackSet(len(ms))
	lone := make([]Feedback, len(ms))
	var a, b Sparse
	for step := 0; step < 4; step++ {
		for i, m := range ms {
			for j := range m.Data {
				m.Data[j] = r.Uniform(-1, 1)
			}
			set[i].EncodeTopK(&a, m, 0.2)
			lone[i].EncodeTopK(&b, m, 0.2)
			if a.NNZ() != b.NNZ() {
				t.Fatalf("step %d tensor %d: %d vs %d pairs", step, i, a.NNZ(), b.NNZ())
			}
			for k := range a.Values {
				if a.Indices[k] != b.Indices[k] || math.Float32bits(a.Values[k]) != math.Float32bits(b.Values[k]) {
					t.Fatalf("step %d tensor %d pair %d differs", step, i, k)
				}
			}
			for k, v := range set[i].Residual() {
				if math.Float32bits(v) != math.Float32bits(lone[i].Residual()[k]) {
					t.Fatalf("step %d tensor %d residual %d differs", step, i, k)
				}
			}
		}
	}
	if set[0].sel != set[2].sel || cap(*set[0].sel) != len(ms[2].Data) {
		t.Fatalf("set scratch not shared or not sized to the largest tensor (cap %d)", cap(*set[0].sel))
	}
}

func TestQuickselectAgainstSort(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(64)
		a := make([]float32, n)
		for i := range a {
			// Duplicates on purpose: ties exercise the partition.
			a[i] = float32(r.Intn(8))
		}
		sorted := append([]float32(nil), a...)
		for i := 1; i < len(sorted); i++ { // insertion sort: reference
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		i := r.Intn(n)
		if got := quickselect(append([]float32(nil), a...), i); got != sorted[i] {
			t.Fatalf("trial %d: quickselect(%v, %d) = %v, sorted says %v", trial, a, i, got, sorted[i])
		}
	}
}

// BenchmarkEncodeIntoWarm is the satellite's pinned benchmark: the
// reusable-buffer encode on the gradient-sync hot path, alloc-free once
// warm (ReportAllocs must show 0 allocs/op).
func BenchmarkEncodeIntoWarm(b *testing.B) {
	m := benchMatrix(0.65)
	var fb Feedback
	var dst Sparse
	fb.EncodeInto(&dst, m, 0.1)
	b.SetBytes(m.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.EncodeInto(&dst, m, 0.1)
	}
}

// BenchmarkEncodeTopKWarm measures the full per-tensor uplink cost of
// the compressed transport: residual compensation, quickselect top-k
// and encode, reusing every buffer.
func BenchmarkEncodeTopKWarm(b *testing.B) {
	m := benchMatrix(0.65)
	var fb Feedback
	var dst Sparse
	fb.EncodeTopK(&dst, m, 0.05)
	b.SetBytes(m.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.EncodeTopK(&dst, m, 0.05)
	}
}
