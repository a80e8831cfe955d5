//go:build !amd64 || race

package tensor

// Without the amd64 kernel the Go loops run directly. Race builds take
// this path on amd64 too: the race detector does not see memory
// accesses made from assembly.

func axpy4(d, b []float32, a0, a1, a2, a3 float32) {
	axpy4Go(d, b, a0, a1, a2, a3)
}

func axpy1(d, b []float32, a float32) { axpy1Go(d, b, a) }
