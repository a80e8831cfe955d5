package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"etalstm/internal/compress"
	"etalstm/internal/model"
	"etalstm/internal/tensor"
)

// Gradient payload layout (the body of FrameGrads/FrameMerged after the
// 4-byte contribution count):
//
//	[1B encoding: 0 dense | 1 sparse]
//	per tensor, in canonical order (per layer: W0..W3, U0..U3, B0..B3;
//	then Proj, ProjB):
//	  dense:  [4B element count][count × 4B float32 bits LE]
//	  sparse: [4B pair count][count × 4B float32 bits LE values]
//	          [count × 4B uint32 LE flat indices, strictly increasing]
//
// Both sides derive tensor shapes from their own model geometry — the
// handshake's geometry checksum guarantees they agree — so the payload
// carries only counts for validation, not shapes.
//
// Payloads are streamed: the encoder writes a frame's header and payload
// straight into the connection's bufio.Writer, and the decoder reads the
// payload from the connection's bufio.Reader straight into the target
// gradient set, so neither end stages a frame-sized copy. The
// slice-based helpers (appendDense, appendSparse, decodeGradients) run
// the same code over in-memory buffers.
const (
	encDense  = 0
	encSparse = 1
)

// GeomSum folds cfg's geometry into the 8-byte checksum the handshake
// compares, so a worker and coordinator built from different flags fail
// fast instead of mis-decoding each other's payloads.
func GeomSum(cfg model.Config) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []int{cfg.InputSize, cfg.Hidden, cfg.Layers, cfg.SeqLen, cfg.Batch, cfg.OutSize, int(cfg.Loss)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// tensorViews caches the flat matrix views of a gradient set's tensors
// in canonical order; bias vectors are wrapped as 1×n matrices sharing
// storage. of refills the cached slice and bias headers in place, so
// after the first call taking the views of any same-shaped set
// allocates nothing. The views stay valid until the next of call on the
// same cache.
type tensorViews struct {
	ts   []*tensor.Matrix
	bias []tensor.Matrix
}

func (v *tensorViews) of(g *model.Gradients) []*tensor.Matrix {
	if nb := 4*len(g.Layer) + 1; len(v.bias) != nb {
		v.bias = make([]tensor.Matrix, nb)
		v.ts = make([]*tensor.Matrix, 0, 12*len(g.Layer)+2)
	}
	bias := v.bias
	wrap := func(b []float32) *tensor.Matrix {
		m := &bias[0]
		bias = bias[1:]
		*m = tensor.Matrix{Rows: 1, Cols: len(b), Data: b}
		return m
	}
	ts := v.ts[:0]
	for _, lg := range g.Layer {
		ts = append(ts, lg.W[:]...)
		ts = append(ts, lg.U[:]...)
		for _, b := range lg.B {
			ts = append(ts, wrap(b))
		}
	}
	ts = append(ts, g.Proj, wrap(g.ProjB))
	v.ts = ts
	return ts
}

// tensorsOf returns freshly allocated views of g's tensors.
func tensorsOf(g *model.Gradients) []*tensor.Matrix {
	var v tensorViews
	return v.of(g)
}

// denseBytes is the dense wire cost of a gradient set's tensors: the
// payload the transport ships when compression is off (4 bytes per
// element plus the per-tensor count word).
func denseBytes(tensors []*tensor.Matrix) int64 {
	var n int64
	for _, m := range tensors {
		n += 4 + 4*int64(len(m.Data))
	}
	return n
}

// sparseWireBytes is the wire cost of one sparse-encoded tensor: the
// count word plus a (value, index) pair per survivor. Unlike
// Sparse.Bytes — the paper's 16-bit-index DMA estimate — this reflects
// what the TCP codec actually ships.
func sparseWireBytes(nnz int) int64 { return 4 + 8*int64(nnz) }

// maxPayload is the largest gradient payload tensors admit: the
// encoding byte plus every tensor sparse-encoded with all its entries
// kept (twice the dense payload, which is the most a keep-everything
// threshold can ship).
func maxPayload(tensors []*tensor.Matrix) int64 {
	var n int64 = 1
	for _, m := range tensors {
		n += sparseWireBytes(len(m.Data))
	}
	return n
}

// selectPairs runs m through its error-feedback accumulator and leaves
// the pairs to ship in dst.
func (o CompressOptions) selectPairs(fb *compress.Feedback, dst *compress.Sparse, m *tensor.Matrix) *compress.Sparse {
	if o.Threshold > 0 {
		return fb.EncodeInto(dst, m, o.Threshold)
	}
	return fb.EncodeTopK(dst, m, o.keep())
}

// room returns w's free buffer (zero length), flushing first when fewer
// than n bytes are free; n must not exceed w.Size().
func room(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

func writeU32(w *bufio.Writer, v uint32) error {
	b, err := room(w, 4)
	if err != nil {
		return err
	}
	_, err = w.Write(binary.BigEndian.AppendUint32(b, v))
	return err
}

func writeFloats(w *bufio.Writer, xs []float32) error {
	for len(xs) > 0 {
		b, err := room(w, 4)
		if err != nil {
			return err
		}
		k := min(len(xs), cap(b)/4)
		for _, v := range xs[:k] {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

func writeIndices(w *bufio.Writer, xs []int32) error {
	for len(xs) > 0 {
		b, err := room(w, 4)
		if err != nil {
			return err
		}
		k := min(len(xs), cap(b)/4)
		for _, v := range xs[:k] {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// writeDense writes one tensor's dense encoding.
func writeDense(w *bufio.Writer, m *tensor.Matrix) error {
	if err := writeU32(w, uint32(len(m.Data))); err != nil {
		return err
	}
	return writeFloats(w, m.Data)
}

// writeSparse writes one tensor's sparse encoding.
func writeSparse(w *bufio.Writer, s *compress.Sparse) error {
	if err := writeU32(w, uint32(s.NNZ())); err != nil {
		return err
	}
	if err := writeFloats(w, s.Values); err != nil {
		return err
	}
	return writeIndices(w, s.Indices)
}

// writePayload writes a whole gradient payload: dense when pairs is
// nil, otherwise pairs[i] for tensors[i].
func writePayload(w *bufio.Writer, tensors []*tensor.Matrix, pairs []compress.Sparse) error {
	enc := byte(encDense)
	if pairs != nil {
		enc = encSparse
	}
	if err := w.WriteByte(enc); err != nil {
		return err
	}
	for i, m := range tensors {
		var err error
		if pairs != nil {
			err = writeSparse(w, &pairs[i])
		} else {
			err = writeDense(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// gradEncoder is one sending endpoint's gradient-frame encoder: it owns
// the endpoint's error-feedback set and per-tensor pair scratch. prepare
// fixes a step's payload — running error feedback once — and write
// streams it as a frame, as often as there are receivers.
type gradEncoder struct {
	opts  *CompressOptions // nil ships every step dense
	views tensorViews
	fb    []*compress.Feedback // allocated on the first sparse step
	pairs []compress.Sparse    // tensor i's pairs this step

	tensors []*tensor.Matrix
	sent    []compress.Sparse // e.pairs on a sparse step, nil on a dense one
	payload int64             // wire bytes after the encoding byte
	hdr     [4 + frameHeaderV2 + 4]byte
}

// prepare selects step's payload for g: dense inside the warm-up window
// or without compression, otherwise each tensor's pairs through its
// error feedback. It returns the payload's wire bytes and their dense
// equivalent (both without the encoding byte). g must not change until
// the last write of the step.
func (e *gradEncoder) prepare(g *model.Gradients, step int) (wire, dense int64) {
	e.tensors = e.views.of(g)
	dense = denseBytes(e.tensors)
	if e.opts == nil || e.opts.warm(step) {
		e.sent, e.payload = nil, dense
		return dense, dense
	}
	if e.fb == nil {
		e.fb = feedbackFor(e.tensors)
		e.pairs = make([]compress.Sparse, len(e.tensors))
	}
	e.sent, e.payload = e.pairs, 0
	for i, m := range e.tensors {
		e.payload += sparseWireBytes(e.opts.selectPairs(e.fb[i], &e.pairs[i], m).NNZ())
	}
	return e.payload, dense
}

// write streams the prepared payload as frame f (its Body ignored)
// carrying contribs, into w. The caller flushes.
func (e *gradEncoder) write(w *bufio.Writer, f Frame, contribs int) error {
	h := appendHeader(e.hdr[:0], f, 4+1+int(e.payload))
	h = binary.BigEndian.AppendUint32(h, uint32(contribs))
	if _, err := w.Write(h); err != nil {
		return err
	}
	return writePayload(w, e.tensors, e.sent)
}

// appendDense appends the dense encoding of tensors to dst.
func appendDense(dst []byte, tensors []*tensor.Matrix) []byte {
	buf := bytes.NewBuffer(dst)
	w := bufio.NewWriter(buf)
	writePayload(w, tensors, nil)
	w.Flush()
	return buf.Bytes()
}

// appendSparse appends the sparse encoding of tensors to dst, running
// each tensor through its error-feedback accumulator first (fb[i]
// belongs to tensors[i] and persists across steps). It reports the
// wire and dense byte costs of the payload it built.
func appendSparse(dst []byte, tensors []*tensor.Matrix, fb []*compress.Feedback, opts CompressOptions, scratch *compress.Sparse) (out []byte, wire, dense int64) {
	buf := bytes.NewBuffer(dst)
	w := bufio.NewWriter(buf)
	w.WriteByte(encSparse)
	for i, m := range tensors {
		s := opts.selectPairs(fb[i], scratch, m)
		writeSparse(w, s)
		wire += sparseWireBytes(s.NNZ())
		dense += 4 + 4*int64(len(m.Data))
	}
	w.Flush()
	return buf.Bytes(), wire, dense
}

// payloadReader reads one frame body from a buffered stream, never past
// the length its header declared. Chunks come straight out of the
// reader's buffer.
type payloadReader struct {
	br   *bufio.Reader
	left int // body bytes not yet consumed
}

// peek returns the next min(n, buffer size) body bytes without
// consuming them; n must not exceed left.
func (r *payloadReader) peek(n int) ([]byte, error) {
	b, err := r.br.Peek(min(n, r.br.Size()))
	if err != nil {
		return nil, streamError{err}
	}
	return b, nil
}

func (r *payloadReader) consume(n int) {
	r.br.Discard(n)
	r.left -= n
}

func (r *payloadReader) need(n int64) error {
	if n > int64(r.left) {
		return fmt.Errorf("dist: gradient payload truncated")
	}
	return nil
}

func (r *payloadReader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	b, err := r.peek(4)
	if err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(b)
	r.consume(4)
	return v, nil
}

// floats fills dst from the stream.
func (r *payloadReader) floats(dst []float32) error {
	for len(dst) > 0 {
		b, err := r.peek(4 * len(dst))
		if err != nil {
			return err
		}
		k := len(b) / 4
		for i := range dst[:k] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		r.consume(4 * k)
		dst = dst[k:]
	}
	return nil
}

// scatter reads len(vals) indices and stores vals at them in m, which
// the caller has zeroed; indices must rise strictly inside m.
func (r *payloadReader) scatter(m []float32, vals []float32) error {
	prev := -1
	for len(vals) > 0 {
		b, err := r.peek(4 * len(vals))
		if err != nil {
			return err
		}
		k := len(b) / 4
		for i, v := range vals[:k] {
			idx := int(binary.LittleEndian.Uint32(b[4*i:]))
			if idx >= len(m) || idx <= prev {
				return fmt.Errorf("dist: sparse index %d out of order or range (%d elements)", idx, len(m))
			}
			prev = idx
			m[idx] = v
		}
		r.consume(4 * k)
		vals = vals[k:]
	}
	return nil
}

// gradDecoder reads gradient payloads straight into a gradient set,
// whose geometry supplies every tensor shape. Dense payloads overwrite
// every element; sparse payloads zero each tensor and scatter the
// pairs, so the set always leaves holding exactly the transmitted
// values. A sparse tensor's values wait in vals until their indices
// arrive; vals never outgrows the set's largest tensor.
type gradDecoder struct {
	views tensorViews
	vals  []float32
}

// decode reads one n-byte payload from br into g.
func (d *gradDecoder) decode(br *bufio.Reader, n int, g *model.Gradients) error {
	r := payloadReader{br: br, left: n}
	if n < 1 {
		return fmt.Errorf("dist: gradient payload missing encoding byte")
	}
	b, err := r.peek(1)
	if err != nil {
		return err
	}
	enc := b[0]
	if enc != encDense && enc != encSparse {
		return fmt.Errorf("dist: unknown gradient encoding %d", enc)
	}
	r.consume(1)
	for _, m := range d.views.of(g) {
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		if enc == encDense {
			if int(cnt) != len(m.Data) {
				return fmt.Errorf("dist: dense tensor count %d, geometry wants %d", cnt, len(m.Data))
			}
			if err := r.need(4 * int64(cnt)); err != nil {
				return err
			}
			if err := r.floats(m.Data); err != nil {
				return err
			}
			continue
		}
		if int(cnt) > len(m.Data) {
			return fmt.Errorf("dist: sparse tensor %d pairs exceed %d elements", cnt, len(m.Data))
		}
		if err := r.need(8 * int64(cnt)); err != nil {
			return err
		}
		if cap(d.vals) < int(cnt) {
			d.vals = make([]float32, cnt)
		}
		vals := d.vals[:cnt]
		if err := r.floats(vals); err != nil {
			return err
		}
		clear(m.Data)
		if err := r.scatter(m.Data, vals); err != nil {
			return err
		}
	}
	if r.left != 0 {
		return fmt.Errorf("dist: %d trailing bytes after gradient payload", r.left)
	}
	return nil
}

// decodeGradients decodes an in-memory gradient payload into g.
func decodeGradients(body []byte, g *model.Gradients) error {
	var d gradDecoder
	return d.decode(bufio.NewReader(bytes.NewReader(body)), len(body), g)
}

// feedbackFor sizes an error-feedback accumulator set for one gradient
// set's tensors (one Feedback per tensor, persisting across steps).
func feedbackFor(tensors []*tensor.Matrix) []*compress.Feedback {
	return compress.NewFeedbackSet(len(tensors))
}
