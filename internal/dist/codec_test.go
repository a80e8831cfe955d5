package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"etalstm/internal/compress"
	"etalstm/internal/model"
	"etalstm/internal/rng"
)

func testCfg() model.Config {
	return model.Config{InputSize: 3, Hidden: 4, Layers: 2, SeqLen: 5, Batch: 2, OutSize: 3, Loss: model.SingleLoss}
}

// fillGradients populates every tensor with a deterministic mix of
// signed values and exact zeros.
func fillGradients(g *model.Gradients, seed uint64) {
	r := rng.New(seed)
	for _, m := range tensorsOf(g) {
		for i := range m.Data {
			if r.Intn(4) == 0 {
				m.Data[i] = 0
				continue
			}
			m.Data[i] = float32(r.Uniform(-2, 2))
		}
	}
}

func gradientsEqual(a, b *model.Gradients) bool {
	ta, tb := tensorsOf(a), tensorsOf(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if len(ta[i].Data) != len(tb[i].Data) {
			return false
		}
		for j := range ta[i].Data {
			if math.Float32bits(ta[i].Data[j]) != math.Float32bits(tb[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

func TestDenseCodecRoundtripBitwise(t *testing.T) {
	cfg := testCfg()
	src, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(src, 7)
	body := appendDense(nil, tensorsOf(src))
	if got, want := int64(len(body)-1), denseBytes(tensorsOf(src)); got != want {
		t.Fatalf("dense payload %d bytes, accounting says %d", got, want)
	}
	dst, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(dst, 99) // stale values must be fully overwritten
	if err := decodeGradients(body, dst); err != nil {
		t.Fatal(err)
	}
	if !gradientsEqual(src, dst) {
		t.Fatal("dense roundtrip not bitwise")
	}
}

func TestSparseCodecRoundtripThreshold(t *testing.T) {
	cfg := testCfg()
	src, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(src, 11)
	tensors := tensorsOf(src)
	fb := feedbackFor(tensors)
	var scratch compress.Sparse
	// Threshold 0 keeps every nonzero compensated value: decoding must
	// reproduce src exactly (first step, residuals all zero — only exact
	// zeros are dropped, and decode re-zeroes them).
	body, wire, dense := appendSparse(nil, tensors, fb, CompressOptions{Threshold: math.SmallestNonzeroFloat32}, &scratch)
	if wire <= 0 || dense != denseBytes(tensors) {
		t.Fatalf("accounting: wire %d dense %d want dense %d", wire, dense, denseBytes(tensors))
	}
	dst, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(dst, 99)
	if err := decodeGradients(body, dst); err != nil {
		t.Fatal(err)
	}
	if !gradientsEqual(src, dst) {
		t.Fatal("keep-everything sparse roundtrip not bitwise")
	}
}

// TestSparseErrorFeedbackConservation pins the mass-conservation
// identity: at every step, for every element,
// raw + residual_in == transmitted + residual_out exactly.
func TestSparseErrorFeedbackConservation(t *testing.T) {
	cfg := testCfg()
	g, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tensors := tensorsOf(g)
	fb := feedbackFor(tensors)
	var scratch compress.Sparse
	for step := 0; step < 5; step++ {
		fillGradients(g, uint64(step+1))
		resIn := make([][]float32, len(tensors))
		for i := range tensors {
			resIn[i] = append([]float32(nil), fb[i].Residual()...)
		}
		body, _, _ := appendSparse(nil, tensors, fb, CompressOptions{KeepFrac: 0.1}, &scratch)
		if err := decodeGradients(body, recv); err != nil {
			t.Fatal(err)
		}
		rt := tensorsOf(recv)
		for i, m := range tensors {
			resOut := fb[i].Residual()
			for j, raw := range m.Data {
				var prev float32
				if len(resIn[i]) > j {
					prev = resIn[i][j]
				}
				want := raw + prev
				got := rt[i].Data[j] + resOut[j]
				if math.Float32bits(want) != math.Float32bits(got) {
					t.Fatalf("step %d tensor %d elem %d: raw+res_in %v != sent+res_out %v", step, i, j, want, got)
				}
			}
		}
	}
}

func TestDecodeGradientsRejectsCorruption(t *testing.T) {
	cfg := testCfg()
	src, _ := model.NewGradientsFor(cfg)
	fillGradients(src, 3)
	dst, _ := model.NewGradientsFor(cfg)
	dense := appendDense(nil, tensorsOf(src))

	fb := feedbackFor(tensorsOf(src))
	var scratch compress.Sparse
	sparse, _, _ := appendSparse(nil, tensorsOf(src), fb, CompressOptions{KeepFrac: 0.2}, &scratch)

	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "encoding"},
		{"unknown-encoding", []byte{7}, "encoding"},
		{"dense-truncated", dense[:len(dense)-2], "truncated"},
		{"dense-trailing", append(append([]byte(nil), dense...), 0), "trailing"},
		{"sparse-truncated", sparse[:len(sparse)-1], "truncated"},
		{"dense-count-mismatch", func() []byte {
			b := append([]byte(nil), dense...)
			b[4] ^= 0x01 // flip the first tensor's element count
			return b
		}(), ""},
		{"sparse-index-out-of-range", func() []byte {
			b := append([]byte(nil), sparse...)
			n := int(uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4]))
			if n == 0 {
				t.Skip("first tensor empty under this seed")
			}
			// Last index of the first tensor's index block (LE u32).
			off := 5 + 4*n + 4*(n-1)
			b[off] = 0xff
			b[off+1] = 0xff
			return b
		}(), "index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeGradients(tc.body, dst)
			if err == nil {
				t.Fatal("corrupt payload accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestGeomSumDiscriminates(t *testing.T) {
	base := testCfg()
	mut := []func(*model.Config){
		func(c *model.Config) { c.InputSize++ },
		func(c *model.Config) { c.Hidden++ },
		func(c *model.Config) { c.Layers++ },
		func(c *model.Config) { c.SeqLen++ },
		func(c *model.Config) { c.Batch++ },
		func(c *model.Config) { c.OutSize++ },
		func(c *model.Config) { c.Loss = model.PerTimestampLoss },
	}
	want := GeomSum(base)
	if want != GeomSum(base) {
		t.Fatal("GeomSum not deterministic")
	}
	for i, m := range mut {
		c := base
		m(&c)
		if GeomSum(c) == want {
			t.Fatalf("mutation %d not reflected in geometry checksum", i)
		}
	}
}

// TestFrameStreamAllocFree pins the streaming codec's steady state:
// once warm, a dense and a sparse gradient frame, encoded and decoded
// through an in-memory pipe, allocate nothing per step.
func TestFrameStreamAllocFree(t *testing.T) {
	cfg := testCfg()
	src, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(src, 5)
	var pipe bytes.Buffer
	w := bufio.NewWriter(&pipe)
	rd := newFrameReader(bufio.NewReader(&pipe), dst)
	enc := gradEncoder{opts: &CompressOptions{KeepFrac: 0.1, WarmupSteps: 1}}
	var failed error
	exchange := func(step int) {
		enc.prepare(src, step)
		err := enc.write(w, Frame{Type: FrameGrads, Step: uint32(step)}, 3)
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			failed = err
			return
		}
		f, contribs, _, err := rd.next(FrameGrads, dst)
		if err != nil || f.Step != uint32(step) || contribs != 3 {
			failed = fmt.Errorf("step %d: frame %+v contribs %d err %v", step, f, contribs, err)
		}
	}
	for _, tc := range []struct {
		name string
		step int
	}{{"dense", 0}, {"sparse", 1}} {
		exchange(tc.step) // warm every buffer
		if n := testing.AllocsPerRun(10, func() { exchange(tc.step) }); n != 0 {
			t.Errorf("warm %s frame exchange allocates %v times per step", tc.name, n)
		}
		if failed != nil {
			t.Fatal(failed)
		}
		if tc.step == 0 && !gradientsEqual(src, dst) {
			t.Fatal("dense frame did not deliver the gradients bitwise")
		}
	}
}

// TestStreamMatchesSliceCodec: the frame encoder and the slice helpers
// are one implementation — the payload a streamed frame carries equals
// appendDense/appendSparse's bytes for the same feedback state.
func TestStreamMatchesSliceCodec(t *testing.T) {
	cfg := testCfg()
	g, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := CompressOptions{KeepFrac: 0.2}
	enc := gradEncoder{opts: &opts}
	ref := feedbackFor(tensorsOf(g))
	var scratch compress.Sparse
	for step := 0; step < 3; step++ {
		fillGradients(g, uint64(step+20))
		var want []byte
		if step == 0 {
			enc.opts = nil
			want = appendDense(nil, tensorsOf(g))
		} else {
			enc.opts = &opts
			want, _, _ = appendSparse(nil, tensorsOf(g), ref, opts, &scratch)
		}
		enc.prepare(g, step)
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := enc.write(w, Frame{Type: FrameMerged, Step: uint32(step)}, 2); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		f, _, err := DecodeFrame(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Body[4:], want) {
			t.Fatalf("step %d: streamed payload differs from the slice codec's", step)
		}
	}
}
