package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"etalstm/internal/model"
	"etalstm/internal/rtrace"
)

// The TCP transport speaks length-prefixed frames:
//
//	v1: [4B big-endian length N][1B version][1B type][4B step][N-6 byte body]
//	v2: [4B length N][1B version][1B type][4B step]
//	    [16B trace id][8B span id][1B flags][N-31 byte body]
//
// The length counts everything after itself (version through body), so
// N >= 6 always; a reader can frame the stream with one 4-byte read.
// Step is the coordinator's monotone optimizer-step counter for
// gradient frames and 0 for control frames.
//
// v2 extends every frame with a 25-byte trace context so one optimizer
// step resolves to a single cross-process trace: FrameGrads carries the
// worker's upload-span identity, FrameMerged the coordinator's step
// span, and workers re-parent their spans onto the coordinator's trace
// (rtrace.Span.Adopt). A zero trace id means "no trace"; the flags bit
// FlagSampled forwards the head-sampling decision so every process in
// the step keeps or drops the trace together. Decoders accept both
// versions — a v1 frame simply has a zero trace context — while
// encoders emit v2 unless the frame pins Ver.
const (
	// FrameVersion is the protocol version new frames are encoded with;
	// decoders also accept v1 so mixed-version fleets can drain.
	FrameVersion = 2
	// frameHeader is the v1 byte count the length prefix covers before
	// the body (version + type + step).
	frameHeader = 6
	// traceCtxLen is the v2 trace-context extension: trace id, span id
	// and a flags byte.
	traceCtxLen = 16 + 8 + 1
	// frameHeaderV2 is the v2 pre-body byte count.
	frameHeaderV2 = frameHeader + traceCtxLen
	// prefixLen is what every frame starts with: the length prefix,
	// version, type and step.
	prefixLen = 4 + frameHeader
	// MaxFrameBody caps gradient-frame bodies on the generic decoders
	// (DecodeFrame, ReadFrame), which know no model geometry; the
	// transport itself bounds them by the geometry's largest payload.
	MaxFrameBody = 1 << 28
	// maxControlBody caps every other frame's body: hello and welcome
	// carry 8 bytes, error frames a one-line diagnostic.
	maxControlBody = 4 << 10

	// FlagSampled marks the frame's trace as head-sampled: the
	// receiving process's flight recorder should keep it too.
	FlagSampled byte = 1 << 0
)

// FrameType discriminates the transport's messages.
type FrameType byte

// The frame types, in handshake-then-steady-state order.
const (
	// FrameHello is worker → coordinator: body is the 8-byte geometry
	// checksum of the worker's model config.
	FrameHello FrameType = 1 + iota
	// FrameWelcome is coordinator → worker once every expected worker
	// has joined: body is [4B worker id][4B total workers].
	FrameWelcome
	// FrameGrads is worker → coordinator: body is [4B contribution
	// count] followed by a gradient payload (see codec.go).
	FrameGrads
	// FrameMerged is coordinator → worker: same body layout as
	// FrameGrads, holding the step's merged gradients and the total
	// contribution count to average by.
	FrameMerged
	// FrameBye is worker → coordinator: clean disconnect, empty body.
	FrameBye
	// FrameError carries a fatal diagnostic as a UTF-8 body in either
	// direction before the sender closes the connection.
	FrameError
)

func (t FrameType) valid() bool { return t >= FrameHello && t <= FrameError }

// gradient reports whether frames of type t carry a gradient payload.
func (t FrameType) gradient() bool { return t == FrameGrads || t == FrameMerged }

// Frame is one decoded transport message. Body aliases the decode
// buffer: it is only valid until that buffer's next use.
type Frame struct {
	// Ver pins the encoding version (0 = FrameVersion). Decoders set it
	// to the version they saw, so decode → encode reproduces the exact
	// wire bytes for either version.
	Ver  byte
	Type FrameType
	Step uint32
	// TraceID/SpanID/Flags are the v2 trace context (zero on v1 frames
	// and on untraced v2 frames).
	TraceID rtrace.TraceID
	SpanID  rtrace.SpanID
	Flags   byte
	Body    []byte
}

// Traced reports whether the frame carries a trace context.
func (f Frame) Traced() bool { return !f.TraceID.IsZero() }

// Sampled reports the frame's head-sampling decision.
func (f Frame) Sampled() bool { return f.Flags&FlagSampled != 0 }

// AppendFrame appends f's length-prefixed encoding to dst and returns
// the extended slice (append-style, alloc-free once dst has capacity).
func AppendFrame(dst []byte, f Frame) []byte {
	return append(appendHeader(dst, f, len(f.Body)), f.Body...)
}

// appendHeader appends the length prefix and header of a frame whose
// body will be body bytes long; f.Body itself is not appended.
func appendHeader(dst []byte, f Frame, body int) []byte {
	ver := f.Ver
	if ver == 0 {
		ver = FrameVersion
	}
	hdr := frameHeader
	if ver >= 2 {
		hdr = frameHeaderV2
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(hdr+body))
	dst = append(dst, ver, byte(f.Type))
	dst = binary.BigEndian.AppendUint32(dst, f.Step)
	if ver >= 2 {
		dst = append(dst, f.TraceID[:]...)
		dst = append(dst, f.SpanID[:]...)
		dst = append(dst, f.Flags)
	}
	return dst
}

// checkLength rejects a length prefix outside what any frame can hold.
func checkLength(n uint32) error {
	if n < frameHeader || n > frameHeaderV2+MaxFrameBody {
		return fmt.Errorf("dist: frame length %d outside [%d, %d]", n, frameHeader, frameHeaderV2+MaxFrameBody)
	}
	return nil
}

// parsePrefix validates a frame's first prefixLen bytes — length,
// version, type and step — and returns the frame with those fields set,
// its header length (prefix plus the v2 trace context) and its body
// length. Control-frame bodies are capped at maxControlBody, gradient
// bodies at MaxFrameBody; a reader can therefore bound what it buffers
// before reading any body byte.
func parsePrefix(b []byte) (Frame, int, int, error) {
	n := binary.BigEndian.Uint32(b)
	if err := checkLength(n); err != nil {
		return Frame{}, 0, 0, err
	}
	ver := b[4]
	hdr := 4 + frameHeader
	switch ver {
	case 1:
	case 2:
		if n < frameHeaderV2 {
			return Frame{}, 0, 0, fmt.Errorf("dist: v2 frame length %d shorter than header %d", n, frameHeaderV2)
		}
		hdr += traceCtxLen
	default:
		return Frame{}, 0, 0, fmt.Errorf("dist: frame version %d, want 1 or %d", ver, FrameVersion)
	}
	body := 4 + int(n) - hdr
	typ := FrameType(b[5])
	if !typ.valid() {
		return Frame{}, 0, 0, fmt.Errorf("dist: unknown frame type %d", typ)
	}
	limit := maxControlBody
	if typ.gradient() {
		limit = MaxFrameBody
	}
	if body > limit {
		return Frame{}, 0, 0, fmt.Errorf("dist: frame type %d body %d exceeds cap %d", typ, body, limit)
	}
	return Frame{Ver: ver, Type: typ, Step: binary.BigEndian.Uint32(b[6:])}, hdr, body, nil
}

// readTrace fills f's v2 trace context from b, the bytes right after
// the prefix.
func readTrace(f *Frame, b []byte) {
	copy(f.TraceID[:], b[:16])
	copy(f.SpanID[:], b[16:24])
	f.Flags = b[24]
}

// DecodeFrame parses one length-prefixed frame from the front of b,
// returning the frame (Body aliases b) and the bytes consumed. It
// rejects short inputs, oversized or undersized lengths, version
// mismatches, unknown types and bodies over their type's cap — the
// validation surface FuzzFrameDecode hammers. Both v1 and v2 frames
// decode; v1 yields a zero trace context.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, fmt.Errorf("dist: frame truncated before length prefix (%d bytes)", len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if err := checkLength(n); err != nil {
		return Frame{}, 0, err
	}
	total := 4 + int(n)
	if len(b) < total {
		return Frame{}, 0, fmt.Errorf("dist: frame truncated: length prefix says %d, have %d", total, len(b))
	}
	f, hdr, _, err := parsePrefix(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if f.Ver >= 2 {
		readTrace(&f, b[prefixLen:])
	}
	f.Body = b[hdr:total]
	return f, total, nil
}

// ReadFrame reads one frame from r into scratch (grown as needed) and
// returns the frame plus the possibly-grown scratch for reuse — the
// streaming counterpart of DecodeFrame with identical validation. The
// header is validated before any body byte is read, and scratch grows
// only as body bytes actually arrive, so a hostile length prefix cannot
// make the reader allocate what it claims.
func ReadFrame(r io.Reader, scratch []byte) (Frame, []byte, error) {
	if cap(scratch) < prefixLen+traceCtxLen {
		scratch = make([]byte, 0, 256)
	}
	scratch = scratch[:prefixLen]
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return Frame{}, scratch, err
	}
	if err := checkLength(binary.BigEndian.Uint32(scratch)); err != nil {
		return Frame{}, scratch, err
	}
	if _, err := io.ReadFull(r, scratch[4:]); err != nil {
		return Frame{}, scratch, fmt.Errorf("dist: frame header: %w", err)
	}
	_, hdr, body, err := parsePrefix(scratch)
	if err != nil {
		return Frame{}, scratch, err
	}
	for total := hdr + body; len(scratch) < total; {
		if len(scratch) == cap(scratch) {
			grown := make([]byte, len(scratch), min(total, 2*cap(scratch)))
			copy(grown, scratch)
			scratch = grown
		}
		have := len(scratch)
		scratch = scratch[:min(total, cap(scratch))]
		if _, err := io.ReadFull(r, scratch[have:]); err != nil {
			return Frame{}, scratch, fmt.Errorf("dist: frame body: %w", err)
		}
	}
	f, _, err := DecodeFrame(scratch)
	return f, scratch, err
}

// writeFrame encodes f into buf and writes it to w in one call,
// returning the grown buffer.
func writeFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	buf = AppendFrame(buf[:0], f)
	_, err := w.Write(buf)
	return buf, err
}

// streamError is a failure of the connection itself — EOF, reset,
// closed — met while reading a frame body, as opposed to a malformed
// frame.
type streamError struct{ err error }

func (e streamError) Error() string { return "dist: frame body: " + e.err.Error() }
func (e streamError) Unwrap() error { return e.err }

// frameReader reads one connection's frames from its buffered stream.
// Gradient frames of the expected type decode straight into a gradient
// set (their body bounded by the geometry's largest payload); every
// other frame's body lands in a small scratch capped at maxControlBody.
type frameReader struct {
	br      *bufio.Reader
	maxBody int // 4-byte contribution count + maxPayload of the geometry
	dec     gradDecoder
	ctl     []byte
}

func newFrameReader(br *bufio.Reader, g *model.Gradients) *frameReader {
	return &frameReader{br: br, maxBody: 4 + int(maxPayload(tensorsOf(g)))}
}

// next reads the next frame. A frame of type grad has its body — the
// 4-byte contribution count, then the payload — decoded into g: the
// returned frame's Body is nil, contribs is the count and body the body
// length. Any other frame is returned whole, its Body aliasing the
// reader's scratch until the next call. A zero f.Type means the header
// itself could not be read or failed validation.
func (r *frameReader) next(grad FrameType, g *model.Gradients) (f Frame, contribs, body int, err error) {
	b, err := r.br.Peek(prefixLen)
	if err != nil {
		if len(b) == 0 && err == io.EOF {
			return Frame{}, 0, 0, io.EOF
		}
		return Frame{}, 0, 0, fmt.Errorf("dist: frame header: %w", err)
	}
	f, hdr, body, err := parsePrefix(b)
	if err != nil {
		return Frame{}, 0, 0, err
	}
	if f.Ver >= 2 {
		if b, err = r.br.Peek(hdr); err != nil {
			return Frame{}, 0, 0, fmt.Errorf("dist: frame header: %w", err)
		}
		readTrace(&f, b[prefixLen:])
	}
	r.br.Discard(hdr)
	switch {
	case f.Type == grad:
		if body < 4 {
			return f, 0, body, fmt.Errorf("dist: short gradient frame (%d bytes)", body)
		}
		if body > r.maxBody {
			return f, 0, body, fmt.Errorf("dist: gradient frame body %d exceeds the geometry's %d", body, r.maxBody)
		}
		pr := payloadReader{br: r.br, left: body}
		n, err := pr.u32()
		if err != nil {
			return f, 0, body, err
		}
		return f, int(n), body, r.dec.decode(r.br, body-4, g)
	case f.Type.gradient():
		return f, 0, body, fmt.Errorf("dist: unexpected frame type %d", f.Type)
	}
	if cap(r.ctl) < body {
		r.ctl = make([]byte, body, maxControlBody)
	}
	f.Body = r.ctl[:body]
	if _, err := io.ReadFull(r.br, f.Body); err != nil {
		return f, 0, body, streamError{err}
	}
	return f, 0, body, nil
}
