package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"etalstm/internal/model"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FrameWelcome, Step: 0, Body: make([]byte, 8)},
		{Type: FrameGrads, Step: 41, Body: []byte("payload")},
		{Type: FrameMerged, Step: 42, Body: nil},
		{Type: FrameBye},
		{Type: FrameError, Body: []byte("boom")},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	// Decode the concatenated stream frame by frame.
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Step != want.Step || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d roundtrip: got %+v want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d undecoded bytes", len(rest))
	}

	// The streaming reader must agree, reusing one scratch buffer.
	r := bytes.NewReader(stream)
	var scratch []byte
	for i, want := range frames {
		var got Frame
		var err error
		got, scratch, err = ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Step != want.Step || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("ReadFrame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, err := ReadFrame(r, scratch); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: FrameGrads, Step: 7, Body: []byte("abc")})
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"short-prefix", func(b []byte) []byte { return b[:3] }, "truncated"},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-1] }, "truncated"},
		{"undersized-length", func(b []byte) []byte { b[3] = 5; return b }, "outside"},
		{"oversized-length", func(b []byte) []byte { b[0] = 0xff; return b }, "outside"},
		{"bad-version", func(b []byte) []byte { b[4] = 9; return b }, "version"},
		{"bad-type", func(b []byte) []byte { b[5] = 0; return b }, "type"},
		{"bad-type-high", func(b []byte) []byte { b[5] = 200; return b }, "type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			if _, _, err := DecodeFrame(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation of
	// its claimed size.
	b := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("hostile length accepted")
	}
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileFrame is a v2 frame header of type typ whose length prefix
// claims 2^28 bytes, followed by only a few body bytes.
func hostileFrame(typ FrameType) []byte {
	b := binary.BigEndian.AppendUint32(nil, 1<<28)
	b = append(b, FrameVersion, byte(typ))
	b = binary.BigEndian.AppendUint32(b, 0)
	return append(b, make([]byte, traceCtxLen+64)...)
}

// TestReadFrameBoundsHostileLength: a length prefix inside the generic
// range that claims 2^28 bytes must be rejected having allocated far
// less than it claims — control frames by their small body cap before
// any body byte is read, gradient frames because the reader grows its
// scratch only as bytes arrive, and gradient frames on the transport's
// reader by the geometry's largest payload.
func TestReadFrameBoundsHostileLength(t *testing.T) {
	for _, tc := range []struct {
		typ  FrameType
		want string
	}{
		{FrameHello, "exceeds cap"},
		{FrameError, "exceeds cap"},
		{FrameGrads, "frame body"},
		{FrameMerged, "frame body"},
	} {
		var err error
		n := allocatedBytes(func() { _, _, err = ReadFrame(bytes.NewReader(hostileFrame(tc.typ)), nil) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("type %d: want error containing %q, got %v", tc.typ, tc.want, err)
		}
		if n >= 1<<20 {
			t.Fatalf("type %d: rejecting a 2^28 length prefix allocated %d bytes", tc.typ, n)
		}
	}

	g, err := model.NewGradientsFor(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	rd := newFrameReader(bufio.NewReader(bytes.NewReader(hostileFrame(FrameMerged))), g)
	n := allocatedBytes(func() { _, _, _, err = rd.next(FrameMerged, g) })
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("transport reader: want a geometry rejection, got %v", err)
	}
	if n >= 1<<20 {
		t.Fatalf("transport reader: rejecting a 2^28 length prefix allocated %d bytes", n)
	}
}

// gradFrame is a FrameGrads frame at version ver carrying contribs and
// payload.
func gradFrame(ver byte, contribs uint32, payload []byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, contribs)
	return AppendFrame(nil, Frame{Ver: ver, Type: FrameGrads, Step: 4, Body: append(body, payload...)})
}

// TestFrameReaderStream drives the transport's frame reader over every
// outcome a connection can produce: a control frame, gradient frames at
// both versions, a clean end of stream, and each way a frame can be cut
// short or malformed — telling a connection that merely ended
// (streamError, io.EOF) from a peer that sent a bad frame.
func TestFrameReaderStream(t *testing.T) {
	cfg := testCfg()
	src, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(src, 9)
	payload := appendDense(nil, tensorsOf(src))
	good := gradFrame(2, 3, payload)
	ctl := AppendFrame(nil, Frame{Type: FrameError, Body: []byte("boom")})

	cases := []struct {
		name   string
		stream []byte
		want   string // error substring; "" = success
		ended  bool   // the error is the connection ending, not the peer's fault
	}{
		{"v2-gradients", good, "", false},
		{"v1-gradients", gradFrame(1, 3, payload), "", false},
		{"control", ctl, "", false},
		{"clean-eof", nil, "EOF", true},
		{"cut-header", good[:7], "frame header", false},
		{"cut-trace-context", good[:prefixLen+4], "frame header", false},
		{"cut-payload", good[:len(good)-5], "frame body", true},
		{"cut-control-body", ctl[:len(ctl)-1], "frame body", true},
		{"short-gradients", AppendFrame(nil, Frame{Type: FrameGrads, Body: []byte{0, 1}}), "short", false},
		{"unexpected-gradient-type", AppendFrame(nil, Frame{Type: FrameMerged, Body: []byte{0, 0, 0, 1, encDense}}), "unexpected", false},
		{"bad-encoding", gradFrame(2, 1, []byte{9}), "encoding", false},
		{"bad-version", append([]byte{0, 0, 0, 6, 7, 1}, make([]byte, 8)...), "version", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, _ := model.NewGradientsFor(cfg)
			rd := newFrameReader(bufio.NewReader(bytes.NewReader(tc.stream)), dst)
			f, contribs, body, err := rd.next(FrameGrads, dst)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("want error containing %q, got %v", tc.want, err)
				}
				var se streamError
				if ended := errors.As(err, &se) || err == io.EOF; ended != tc.ended {
					t.Fatalf("connection-ended classification %v, want %v (%v)", ended, tc.ended, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if f.Type == FrameError {
				if string(f.Body) != "boom" {
					t.Fatalf("control body %q", f.Body)
				}
				return
			}
			if contribs != 3 || body != 4+len(payload) || f.Step != 4 || !gradientsEqual(src, dst) {
				t.Fatalf("gradient frame: contribs %d body %d step %d", contribs, body, f.Step)
			}
		})
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("link down") }

// TestGradEncoderWriteError: a failing connection surfaces from the
// streaming encoder instead of looping or being dropped, for dense and
// sparse frames alike.
func TestGradEncoderWriteError(t *testing.T) {
	g, err := model.NewGradientsFor(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(g, 2)
	enc := gradEncoder{opts: &CompressOptions{KeepFrac: 0.5, WarmupSteps: 1}}
	for step := 0; step < 2; step++ {
		enc.prepare(g, step)
		w := bufio.NewWriterSize(failWriter{}, 16)
		if err := enc.write(w, Frame{Type: FrameGrads}, 1); err == nil || !strings.Contains(err.Error(), "link down") {
			t.Fatalf("step %d: want the link error, got %v", step, err)
		}
	}
}
