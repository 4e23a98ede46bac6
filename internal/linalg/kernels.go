package linalg

import (
	"fmt"
	"math"
)

// Vector kernels -----------------------------------------------------------
//
// Three kernels have assembly bodies (kernels_amd64.s), one for AVX2 and one
// for AVX-512: MatVecT8, the model forward pass over eight samples,
// AXPY4/AXPY4Zero, the backward row update, and TanhBias8 below. Two in
// linalg.go have one AVX2 body that both assembly paths run: AddTo4, the
// master's sum of four decoded rows, and AXPY/AXPYZero, the streaming row
// update (the workers' batch-1 gradient rows, the master's parameter
// update), which moves one multiply and one add per word loaded and is as
// fast in ymm as in zmm. All vectorise across *independent outputs* —
// eight samples of one row in the forward pass, four or eight columns of one
// row in the backward, the row updates and the row sum — so every output
// element is still its own left-to-right chain of one multiply and one add
// per term (one add, in the row sum), rounded where the Go loops round: the
// result is bit-identical to them. A fused multiply-add would round once per
// term instead of twice, and a sum spread over lanes and folded at the end
// would reassociate; the assembly uses neither. The eight samples of the forward
// layout are two 32-byte halves to the AVX2 body and one 64-byte register to
// the AVX-512 body; the lanes hold the same chains either way.
//
// Which body runs is decided once, at package init, from what the CPU and
// the operating system report: AVX2, FMA and YMM state saved on context
// switch for the AVX2 body; AVX512F, AVX512DQ and opmask and ZMM state saved
// on top of those for the AVX-512 body. Without AVX2 — and on every other
// architecture — the Go loops run; they are also the reference the tests
// compare the assembly against. No flag or setting chooses a body.
//
// TanhBias8, at the end of this file, is a different kind of equal: its
// assembly is package math's own tanh, four or eight lanes at a time.

// Path names one body of the vector kernels. The paths are ordered: a host
// that can run one can run every path before it.
type Path uint8

const (
	Portable Path = iota // the Go loops, on every host
	AVX2                 // 256-bit assembly
	AVX512               // 512-bit assembly
)

func (p Path) String() string {
	switch p {
	case Portable:
		return "portable"
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return fmt.Sprintf("Path(%d)", uint8(p))
}

// hostPath is the widest body this host passed the probe for.
var hostPath = func() Path {
	switch {
	case hasAVX512:
		return AVX512
	case hasAVX2:
		return AVX2
	}
	return Portable
}()

// path is the body the kernels run. It is written at init and, after that,
// only by tests through SetPath.
var path = hostPath

// HostPath reports the widest body this host passed the probe for; it and
// every path before it can run here.
func HostPath() Path { return hostPath }

// SetPath is the tests' switch between the bodies, so that every one the
// host can run is held to the same bit-identity suites: it selects p and
// returns the previous choice. Nothing outside tests calls it, and it must
// not run concurrently with a kernel. Asking for a path past HostPath
// panics.
func SetPath(p Path) (was Path) {
	if p > hostPath {
		panic(fmt.Sprintf("linalg: SetPath(%v) on a host whose widest body is %v", p, hostPath))
	}
	was, path = path, p
	return was
}

// Interleave8 writes up to eight equal-length vectors sample-interleaved:
// dstT[8j+s] = xs[s][j], the input layout of MatVecT8. With fewer than eight
// vectors the spare lanes are padding, a copy of the last vector, so they
// compute on ordinary numbers; nothing downstream reads them. len(dstT) must
// be eight times the vectors' length.
func Interleave8(dstT []float64, xs [][]float64) {
	g := len(xs)
	if g < 1 || g > 8 {
		panic(fmt.Sprintf("linalg: Interleave8 of %d vectors, want 1 to 8", g))
	}
	n := len(xs[0])
	for _, x := range xs {
		if len(x) != n || len(dstT) != 8*n {
			panic(fmt.Sprintf("linalg: Interleave8 length mismatch %d vs 8×%d (vector of %d)", len(dstT), n, len(x)))
		}
	}
	// One lane per local, each resliced to n, so that no load is checked.
	x0, x1, x2, x3 := xs[0][:n], xs[min(1, g-1)][:n], xs[min(2, g-1)][:n], xs[min(3, g-1)][:n]
	x4, x5, x6, x7 := xs[min(4, g-1)][:n], xs[min(5, g-1)][:n], xs[min(6, g-1)][:n], xs[g-1][:n]
	for j := range x0 {
		q := dstT[8*j : 8*j+8 : 8*j+8]
		q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7] = x0[j], x1[j], x2[j], x3[j], x4[j], x5[j], x6[j], x7[j]
	}
}

// Deinterleave8 is the inverse of Interleave8 over the first g lanes: with
// n = len(srcT)/8, dst holds g = len(dst)/n vectors one after another,
// dst[s*n+j] = srcT[8j+s]. The lanes past g are not read.
func Deinterleave8(dst, srcT []float64) {
	n := len(srcT) / 8
	if len(srcT) != 8*n || (n == 0 && len(dst) != 0) || (n > 0 && (len(dst)%n != 0 || len(dst) > 8*n)) {
		panic(fmt.Sprintf("linalg: Deinterleave8 length mismatch %d vs up to 8 vectors of %d", len(dst), len(srcT)))
	}
	if len(dst) == 8*n {
		// A full group: one lane per local, each resliced to n, so that no
		// store is checked.
		d0, d1, d2, d3 := dst[:n], dst[n:][:n], dst[2*n:][:n], dst[3*n:][:n]
		d4, d5, d6, d7 := dst[4*n:][:n], dst[5*n:][:n], dst[6*n:][:n], dst[7*n:][:n]
		for j := range d0 {
			q := srcT[8*j : 8*j+8 : 8*j+8]
			d0[j], d1[j], d2[j], d3[j], d4[j], d5[j], d6[j], d7[j] = q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		}
		return
	}
	for s := 0; s*n < len(dst); s++ {
		d := dst[s*n : (s+1)*n]
		for j := range d {
			d[j] = srcT[8*j+s]
		}
	}
}

// MatVecT8 computes eight mat-vecs at once over sample-interleaved vectors:
// with n = len(xT)/8 and xT[8j+s] = x_s[j], it stores dstT[8r+s] = ⟨row r of
// w, x_s⟩ for r < rows, where row r is w[r*stride : r*stride+n]. Every
// output is its own left-to-right sum from +0, bit-identical to MatVecInto
// run once per sample; what the grouping buys is that a word of w is loaded
// once for eight samples and, in the assembly bodies, that the eight
// samples' products and sums are one instruction each (AVX-512) or two
// (AVX2). Panics on a shape that does not fit its slices, before any element
// is touched.
func MatVecT8(dstT, w []float64, stride, rows int, xT []float64) {
	n := len(xT) / 8
	if len(xT) != 8*n || rows < 0 || stride < 0 || len(dstT) < 8*rows || (rows > 0 && (rows-1)*stride+n > len(w)) {
		panic(fmt.Sprintf("linalg: MatVecT8 shape mismatch: %d rows of %d at stride %d over %d words, into %d from %d", rows, n, stride, len(w), len(dstT), len(xT)))
	}
	if rows == 0 {
		return
	}
	if n == 0 {
		ZeroVec(dstT[:8*rows])
		return
	}
	switch path {
	case AVX512:
		matVecT8AVX512(&dstT[0], &w[0], stride, rows, n, &xT[0])
		return
	case AVX2:
		matVecT8AVX2(&dstT[0], &w[0], stride, rows, n, &xT[0])
		return
	}
	for r := 0; r < rows; r++ {
		dotT8(dstT[8*r:8*r+8:8*r+8], w[r*stride:][:n], xT)
	}
}

// dotT8 stores the inner products of one row with the eight interleaved
// samples of xT in dst: eight independent left-to-right accumulators, each
// word of the row loaded once for all of them. Out of line for dot4's
// reason.
//
//go:noinline
func dotT8(dst, row, xT []float64) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	xT = xT[:8*len(row)]
	for j, u := range row {
		q := xT[8*j : 8*j+8 : 8*j+8]
		a0 += u * q[0]
		a1 += u * q[1]
		a2 += u * q[2]
		a3 += u * q[3]
		a4 += u * q[4]
		a5 += u * q[5]
		a6 += u * q[6]
		a7 += u * q[7]
	}
	dst = dst[:8]
	dst[0], dst[1], dst[2], dst[3], dst[4], dst[5], dst[6], dst[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// TanhBias8 is the hidden layer's activation on MatVecT8's layout: hT[8i+s] =
// tanh(hT[8i+s] + b[i]) for the eight samples s of every row i, each equal to
// math.Tanh of that sum in every bit. The assembly bodies are not another
// tanh but the same one: on amd64 math.Tanh is a fixed sequence of IEEE
// multiplies, adds, divides, fused multiply-adds (inside math.Exp, when the
// CPU has AVX and FMA) and conversions, and each of them rounds in a lane as
// it does in a scalar register. Only that FMA sequence is transcribed, so the
// assembly needs hasFMA on top of the other kernels' probe; a host where
// math.Exp runs without FMA runs the loop below. Panics unless len(hT) is
// eight times len(b).
func TanhBias8(hT, b []float64) {
	if len(hT) != 8*len(b) {
		panic(fmt.Sprintf("linalg: TanhBias8 length mismatch %d vs 8×%d", len(hT), len(b)))
	}
	if len(b) == 0 {
		return
	}
	switch {
	case path == AVX512:
		tanhBias8AVX512(&hT[0], &b[0], len(b))
		return
	case path == AVX2 && hasFMA:
		tanhBias8AVX2(&hT[0], &b[0], len(b))
		return
	}
	for i, bi := range b {
		q := hT[8*i : 8*i+8 : 8*i+8]
		for s, h := range q {
			q[s] = math.Tanh(h + bi)
		}
	}
}
