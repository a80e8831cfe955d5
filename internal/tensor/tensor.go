// Package tensor implements the dense float32 linear algebra used by the
// LSTM training substrate: matrices, matrix multiplication (inner and
// outer product forms), element-wise kernels, and the activation
// functions of the LSTM cell together with their derivatives.
//
// The package is deliberately small and allocation-conscious: every
// routine that produces a matrix accepts a destination so hot training
// loops can reuse buffers. Matrices are dense row-major; there is no
// broadcasting — shapes must match exactly, and mismatches panic, since
// a shape error in training code is a programming bug, not a runtime
// condition to handle.
package tensor

import (
	"fmt"
	"math"

	"etalstm/internal/rng"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New or NewFromData for a sized one.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFromData wraps data (not copied) as a rows×cols matrix.
func NewFromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Size returns the number of elements.
func (m *Matrix) Size() int { return m.Rows * m.Cols }

// Bytes returns the storage size in bytes (4 bytes per float32).
func (m *Matrix) Bytes() int64 { return int64(m.Size()) * 4 }

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d",
			op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String implements fmt.Stringer with a compact shape-first rendering.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// RandInit fills m with Uniform(-scale, scale) values — the standard
// LSTM initialization (scale typically 1/sqrt(hidden)).
func (m *Matrix) RandInit(r *rng.RNG, scale float32) {
	r.FillUniform(m.Data, -scale, scale)
}

// XavierInit fills m with the Glorot uniform distribution for fanIn/fanOut.
func (m *Matrix) XavierInit(r *rng.RNG, fanIn, fanOut int) {
	scale := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	m.RandInit(r, scale)
}

// MatMul computes dst = a · b (a: m×k, b: k×n, dst: m×n). dst may not
// alias a or b. It returns dst for chaining; if dst is nil a new matrix
// is allocated.
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if dst == nil {
		dst = New(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	// Rows of a are independent, so large products shard across
	// workers. The serial branch calls the span directly: building the
	// closure only on the parallel path keeps small products
	// allocation-free.
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if serialRows(a.Rows, flops) {
		matmulSpan(dst, a, b, 0, a.Rows)
	} else {
		parallelRows(a.Rows, func(lo, hi int) { matmulSpan(dst, a, b, lo, hi) })
	}
	return dst
}

// matmulSpan accumulates rows [lo, hi) of a·b into dst.
//
// k runs in blocks of four. For each block the b rows are located once
// and every row of the span takes its turn, so a batch shares that
// set-up. Where a row's four a values in the block are all non-zero,
// one axpy4 pass computes d[j] = d[j] + a0·b0[j] + a1·b1[j] + a2·b2[j]
// + a3·b3[j], left to right with every product and sum rounded alone,
// so each dst element receives the same rounded additions in the same
// k order as the plain ikj loop — the result is bitwise equal, with one
// load and store of dst per block instead of per k. A block with any
// zero, and the K mod 4 tail, take the per-k loop that skips zero a
// values, as the plain loop does: always adding 0·b would turn a 0·Inf
// or 0·NaN the plain loop never computes into a NaN in dst. (A dst
// element that is NaN stays NaN either way; Go leaves NaN payloads
// unspecified.)
func matmulSpan(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for k, w := 0, 0; k < a.Cols; k += w {
		w = min(4, a.Cols-k)
		bk := b.Data[k*n : (k+w)*n]
		for i := lo; i < hi; i++ {
			ak := a.Data[i*a.Cols+k:][:w]
			d := dst.Data[i*n:][:n]
			if w < 4 || ak[0] == 0 || ak[1] == 0 || ak[2] == 0 || ak[3] == 0 {
				axpyRows(d, ak, b, k)
				continue
			}
			axpy4(d, bk, ak[0], ak[1], ak[2], ak[3])
		}
	}
}

// axpyRows adds av·b.Row(k0+kk) to d for each av = a[kk], skipping
// zero av: the plain ikj inner loop over rows k0 … k0+len(a)-1 of b.
func axpyRows(d, a []float32, b *Matrix, k0 int) {
	for kk, av := range a {
		if av != 0 {
			axpy1(d, b.Row(k0+kk), av)
		}
	}
}

// MatMulTransA computes dst = aᵀ · b (a: k×m, b: k×n, dst: m×n) without
// materializing the transpose.
func MatMulTransA(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", a.Rows, b.Rows))
	}
	if dst == nil {
		dst = New(a.Cols, b.Cols)
	} else if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	AddMatMulTransA(dst, a, b)
	return dst
}

// MatMulTransB computes dst = a · bᵀ (a: m×k, b: n×k, dst: m×n) without
// materializing the transpose.
func MatMulTransB(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", a.Cols, b.Cols))
	}
	if dst == nil {
		dst = New(a.Rows, b.Rows)
	} else if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	if serialRows(a.Rows, flops) {
		matmulTransBSpan(dst, a, b, 0, a.Rows)
	} else {
		parallelRows(a.Rows, func(lo, hi int) { matmulTransBSpan(dst, a, b, lo, hi) })
	}
	return dst
}

func matmulTransBSpan(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float32
			for k, av := range arow {
				sum += float32(av * brow[k])
			}
			drow[j] = sum
		}
	}
}

// AddMatMulTransA computes dst += aᵀ · b. This is the outer-product
// weight-gradient accumulation of LSTM BP (paper Eq. 3): when a holds
// batch×m activations and b holds batch×n gate gradients, dst
// accumulates the m×n weight gradient.
func AddMatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: AddMatMulTransA inner dims %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulTransA dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	// Shard over dst rows (columns of a): each worker owns a disjoint
	// slice of the accumulator, so the += stays race-free.
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if serialRows(a.Cols, flops) {
		addMatMulTransASpan(dst, a, b, 0, a.Cols)
	} else {
		parallelRows(a.Cols, func(lo, hi int) { addMatMulTransASpan(dst, a, b, lo, hi) })
	}
}

func addMatMulTransASpan(dst, a, b *Matrix, lo, hi int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

// Transpose returns aᵀ as a new matrix (or into dst when non-nil).
func Transpose(dst, a *Matrix) *Matrix {
	if dst == nil {
		dst = New(a.Cols, a.Rows)
	} else if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic("tensor: Transpose dst shape")
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
	return dst
}

// Add computes dst = a + b element-wise.
func Add(dst, a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Add")
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Add dst")
	for i, av := range a.Data {
		dst.Data[i] = av + b.Data[i]
	}
	return dst
}

// AddInPlace computes dst += a element-wise.
func AddInPlace(dst, a *Matrix) {
	dst.mustSameShape(a, "AddInPlace")
	for i, av := range a.Data {
		dst.Data[i] += av
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Sub")
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Sub dst")
	for i, av := range a.Data {
		dst.Data[i] = av - b.Data[i]
	}
	return dst
}

// Mul computes dst = a ⊙ b (Hadamard product).
func Mul(dst, a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Mul")
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Mul dst")
	for i, av := range a.Data {
		dst.Data[i] = av * b.Data[i]
	}
	return dst
}

// Scale computes dst = a * s element-wise.
func Scale(dst, a *Matrix, s float32) *Matrix {
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Scale dst")
	for i, av := range a.Data {
		dst.Data[i] = av * s
	}
	return dst
}

// AddRowVector computes dst = a + rowvec broadcast over rows; rowvec
// must have length a.Cols. This applies a bias to every batch row.
func AddRowVector(dst, a *Matrix, rowvec []float32) *Matrix {
	if len(rowvec) != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(rowvec), a.Cols))
	}
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "AddRowVector dst")
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j, av := range arow {
			drow[j] = av + rowvec[j]
		}
	}
	return dst
}

// SumRows accumulates each column of a into vec (len a.Cols): the bias
// gradient reduction.
func SumRows(vec []float32, a *Matrix) {
	if len(vec) != a.Cols {
		panic("tensor: SumRows length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j, av := range arow {
			vec[j] += av
		}
	}
}

// Sigmoid32 is the logistic σ(x) of the LSTM's f, i and o gates,
// evaluated in float64 and rounded once to float32. The hardware
// activation LUT validates against it.
func Sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Tanh32 is tanh(x) of the cell gate c̃ and the cell output, evaluated
// in float64 and rounded once to float32.
func Tanh32(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

// AbsSum returns Σ|a_ij| — the "magnitude" statistic the paper uses for
// per-cell weight gradients (Fig. 8).
func (m *Matrix) AbsSum() float64 {
	var s float64
	for _, v := range m.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// MaxAbs returns max |a_ij|.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// FracBelow returns the fraction of elements with |v| < threshold —
// the sparsity statistic behind Fig. 6 and the compression module.
func (m *Matrix) FracBelow(threshold float32) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	n := 0
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(m.Data))
}

// Equal reports whether m and o have identical shape and elements
// within tol.
func (m *Matrix) Equal(o *Matrix, tol float32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}
