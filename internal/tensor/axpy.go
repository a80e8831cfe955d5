package tensor

// axpy4Go is the reference for axpy4: b holds four rows b0 … b3 of
// len(d) values back to back (a k block of MatMul's b), and for each j
// d[j] = d[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j], summed left
// to right. Each float32(...) conversion rounds its product before the
// add, which the Go spec says a compiler may not fuse, so the loop
// rounds every operation alone on every GOARCH and GOAMD64 level.
func axpy4Go(d, b []float32, a0, a1, a2, a3 float32) {
	n := len(d)
	b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	for j := range d {
		d[j] = d[j] + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
	}
}

// axpy1Go is the reference for axpy1: d[j] += a·b[j] for each j, the
// product rounded before the add.
func axpy1Go(d, b []float32, a float32) {
	b = b[:len(d)]
	for j, bv := range b {
		d[j] += float32(a * bv)
	}
}
