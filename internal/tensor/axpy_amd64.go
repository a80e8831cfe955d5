//go:build amd64 && !race

package tensor

// axpy4 is axpy4Go run four lanes at a time in SSE (axpy_amd64.s).
// Each lane performs the same rounded float32 multiplies and adds, in
// the same order, as the Go loop; SSE2 is in the GOAMD64=v1 baseline
// and Go leaves MXCSR at round-to-nearest with subnormals kept, so the
// result is the Go loop's bit for bit. The slicing here is the bounds
// check the assembly does not make.
func axpy4(d, b []float32, a0, a1, a2, a3 float32) {
	axpy4SSE(d, b[:4*len(d)], a0, a1, a2, a3)
}

// axpy1 is axpy1Go run four lanes at a time in SSE.
func axpy1(d, b []float32, a float32) { axpy1SSE(d, b[:len(d)], a) }

//go:noescape
func axpy4SSE(d, b []float32, a0, a1, a2, a3 float32)

//go:noescape
func axpy1SSE(d, b []float32, a float32)
