//go:build !amd64

package linalg

// No assembly off amd64: the probe's verdicts are constants and the bodies
// are never reached.
const hasAVX2, hasFMA, hasAVX512 = false, false, false

func matVecT8AVX2(dstT, w *float64, stride, rows, n int, xT *float64) {
	panic("linalg: no vector kernels on this architecture")
}

func matVecT8AVX512(dstT, w *float64, stride, rows, n int, xT *float64) {
	panic("linalg: no vector kernels on this architecture")
}

func axpy4AVX2(dst *float64, n int, a0 float64, x0 *float64, a1 float64, x1 *float64, a2 float64, x2 *float64, a3 float64, x3 *float64, zero bool) {
	panic("linalg: no vector kernels on this architecture")
}

func axpy4AVX512(dst *float64, n int, a0 float64, x0 *float64, a1 float64, x1 *float64, a2 float64, x2 *float64, a3 float64, x3 *float64, zero bool) {
	panic("linalg: no vector kernels on this architecture")
}

func axpy1AVX2(dst *float64, n int, a float64, x *float64, zero bool) {
	panic("linalg: no vector kernels on this architecture")
}

func addTo4AVX2(dst *float64, n int, a, b, c, d, p0, p1, p2, p3 *float64) {
	panic("linalg: no vector kernels on this architecture")
}

func tanhBias8AVX2(hT, b *float64, rows int) {
	panic("linalg: no vector kernels on this architecture")
}

func tanhBias8AVX512(hT, b *float64, rows int) {
	panic("linalg: no vector kernels on this architecture")
}
