package dist

import (
	"bufio"
	"bytes"
	"hash/fnv"
	"math"
	"testing"

	"etalstm/internal/compress"
	"etalstm/internal/model"
)

// FuzzFrameDecode hammers the length-prefixed frame decoder — the bytes
// a coordinator reads straight off accepted sockets — with the
// invariants a hostile or corrupt peer must not be able to break:
// no panic, no oversized allocation, and decode(encode(f)) == f for
// every frame the decoder accepts.
func FuzzFrameDecode(f *testing.F) {
	// Seeds: every frame type round-tripped, plus the corrupt shapes the
	// unit tests pin (short prefix, truncated body, hostile length,
	// version and type mismatches). testdata/fuzz/FuzzFrameDecode holds
	// further committed regression inputs.
	for _, fr := range []Frame{
		{Type: FrameHello, Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FrameWelcome, Body: make([]byte, 8)},
		{Type: FrameGrads, Step: 3, Body: []byte{0, 0, 0, 1, encDense}},
		{Type: FrameMerged, Step: 9, Body: []byte{0, 0, 0, 2, encSparse}},
		{Type: FrameBye},
		{Type: FrameError, Body: []byte("bad geometry")},
	} {
		f.Add(AppendFrame(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 1})
	f.Add([]byte{0, 0, 0, 6, 2, 1, 0, 0, 0, 0})       // bad version
	f.Add([]byte{0, 0, 0, 6, 1, 99, 0, 0, 0, 0})      // bad type
	f.Add([]byte{0, 0, 0, 7, 1, 3, 0, 0, 0, 0, 0xAB}) // 1-byte body

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < frameHeader+4 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !fr.Type.valid() {
			t.Fatalf("decoder accepted invalid type %d", fr.Type)
		}
		if len(fr.Body) > MaxFrameBody {
			t.Fatalf("body %d exceeds cap", len(fr.Body))
		}
		// Accepted frames must re-encode to exactly the consumed bytes.
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// And the streaming reader must agree with the in-memory decoder.
		fr2, _, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			t.Fatalf("ReadFrame rejected what DecodeFrame accepted: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Step != fr.Step || !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatal("ReadFrame and DecodeFrame disagree")
		}
	})
}

// gradSeeds are FuzzGradientDecode's payload seeds over testCfg: valid
// dense and sparse encodings plus the corrupt shapes the unit tests pin.
func gradSeeds() map[string][]byte {
	g, err := model.NewGradientsFor(testCfg())
	if err != nil {
		panic(err)
	}
	fillGradients(g, 3)
	tensors := tensorsOf(g)
	dense := appendDense(nil, tensors)
	var scratch compress.Sparse
	sparse, _, _ := appendSparse(nil, tensors, feedbackFor(tensors), CompressOptions{KeepFrac: 0.2}, &scratch)
	hostile := append([]byte{encSparse}, 0xff, 0xff, 0xff, 0xff)
	unsorted := []byte{encSparse, 0, 0, 0, 2, 0, 0, 128, 63, 0, 0, 128, 63, 3, 0, 0, 0, 1, 0, 0, 0}
	return map[string][]byte{
		"seed-dense":           dense,
		"seed-sparse":          sparse,
		"seed-dense-truncated": dense[:len(dense)-3],
		"seed-sparse-trailing": append(append([]byte(nil), sparse...), 0),
		"seed-hostile-count":   hostile,
		"seed-unsorted":        unsorted,
		"seed-bad-encoding":    {7},
	}
}

// FuzzGradientDecode feeds arbitrary bytes to the gradient payload
// decoder over a fixed geometry. It must never panic and never allocate
// beyond the geometry; a payload it accepts must re-encode to one that
// decodes to the same gradients (dense payloads to the same bytes); and
// valid encodings of a gradient set derived from the input round-trip
// bitwise. testdata/fuzz/FuzzGradientDecode holds the committed seeds.
func FuzzGradientDecode(f *testing.F) {
	for _, b := range gradSeeds() {
		f.Add(b)
	}
	cfg := testCfg()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := model.NewGradientsFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tensors := tensorsOf(g)
		largest := 0
		for _, m := range tensors {
			largest = max(largest, len(m.Data))
		}

		var d gradDecoder
		br := bufio.NewReader(bytes.NewReader(data))
		n := allocatedBytes(func() { err = d.decode(br, len(data), g) })
		if limit := uint64(denseBytes(tensors)) + 64<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d, geometry bound %d", len(data), n, limit)
		}
		if cap(d.vals) > largest {
			t.Fatalf("value scratch grew to %d, largest tensor %d", cap(d.vals), largest)
		}
		if err == nil {
			var re []byte
			if data[0] == encDense {
				re = appendDense(nil, tensors)
				if !bytes.Equal(re, data) {
					t.Fatal("accepted dense payload does not re-encode to its bytes")
				}
			} else {
				// Ship every entry that is not +0: decoding that gives
				// back exactly what the input decoded to.
				pairs := make([]compress.Sparse, len(tensors))
				for i, m := range tensors {
					for j, v := range m.Data {
						if math.Float32bits(v) != 0 {
							pairs[i].Values = append(pairs[i].Values, v)
							pairs[i].Indices = append(pairs[i].Indices, int32(j))
						}
					}
				}
				var buf bytes.Buffer
				w := bufio.NewWriter(&buf)
				if err := writePayload(w, tensors, pairs); err != nil {
					t.Fatal(err)
				}
				w.Flush()
				re = buf.Bytes()
			}
			g2, _ := model.NewGradientsFor(cfg)
			if err := decodeGradients(re, g2); err != nil {
				t.Fatalf("re-encoded payload rejected: %v", err)
			}
			if !gradientsEqual(g, g2) {
				t.Fatal("re-encoded payload decodes differently")
			}
		}

		// Valid encodings of a set derived from the input round-trip:
		// dense bitwise, sparse as transmitted + residual == raw.
		h := fnv.New64a()
		h.Write(data)
		src, _ := model.NewGradientsFor(cfg)
		fillGradients(src, h.Sum64())
		srcT := tensorsOf(src)
		got, _ := model.NewGradientsFor(cfg)
		if err := decodeGradients(appendDense(nil, srcT), got); err != nil || !gradientsEqual(src, got) {
			t.Fatalf("dense roundtrip: err %v", err)
		}
		keep := 0.05
		if len(data) > 0 {
			keep = float64(data[0]%20+1) / 20
		}
		fb := feedbackFor(srcT)
		var scratch compress.Sparse
		body, _, _ := appendSparse(nil, srcT, fb, CompressOptions{KeepFrac: keep}, &scratch)
		if err := decodeGradients(body, got); err != nil {
			t.Fatalf("sparse roundtrip: %v", err)
		}
		for i, m := range tensorsOf(got) {
			for j, v := range m.Data {
				if math.Float32bits(v+fb[i].Residual()[j]) != math.Float32bits(srcT[i].Data[j]) {
					t.Fatalf("sparse roundtrip tensor %d elem %d: sent %v + residual %v != raw %v",
						i, j, v, fb[i].Residual()[j], srcT[i].Data[j])
				}
			}
		}
	})
}
