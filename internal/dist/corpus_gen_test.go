package dist

import (
	"os"
	"strconv"
	"testing"
)

// TestWriteFuzzCorpusSeeds regenerates the committed FuzzFrameDecode
// and FuzzGradientDecode corpora when WRITE_FUZZ_CORPUS is set in the
// environment; otherwise it skips.
func TestWriteFuzzCorpusSeeds(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the committed seeds")
	}
	write := func(target, name string, b []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.MkdirAll("testdata/fuzz/"+target, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/fuzz/"+target+"/"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range gradSeeds() {
		write("FuzzGradientDecode", name, b)
	}
	emit := func(name string, b []byte) { write("FuzzFrameDecode", name, b) }
	emit("seed-hello", AppendFrame(nil, Frame{Type: FrameHello, Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}}))
	emit("seed-grads-dense", AppendFrame(nil, Frame{Type: FrameGrads, Step: 3, Body: []byte{0, 0, 0, 1, encDense}}))
	emit("seed-merged-sparse", AppendFrame(nil, Frame{Type: FrameMerged, Step: 9, Body: []byte{0, 0, 0, 2, encSparse}}))
	emit("seed-bye", AppendFrame(nil, Frame{Type: FrameBye}))
	emit("seed-hostile-length", []byte{0xff, 0xff, 0xff, 0xff, 1, 1})
	emit("seed-bad-version", []byte{0, 0, 0, 6, 2, 1, 0, 0, 0, 0})
	emit("seed-bad-type", []byte{0, 0, 0, 6, 1, 99, 0, 0, 0, 0})
	emit("seed-two-frames", append(
		AppendFrame(nil, Frame{Type: FrameWelcome, Body: make([]byte, 8)}),
		AppendFrame(nil, Frame{Type: FrameError, Body: []byte("x")})...))
}
