package linalg

import (
	"fmt"
	"math"
)

// Vector kernels -----------------------------------------------------------
//
// Three kernels have an assembly body (kernels_amd64.s, AVX2): MatVecT4, the
// model forward pass over four samples, AXPY4/AXPY4Zero, the backward row
// update, and AddTo4 (linalg.go), the master's sum of four decoded rows. All
// vectorise across *independent outputs* — four samples of one row in the
// forward pass, four columns of one row in the backward and the row sum — so
// every output element is still its own left-to-right chain of one multiply
// and one add per term (one add, in the row sum), rounded where the Go loops
// round: the result is bit-identical to them. A fused multiply-add would
// round once per term instead of twice, and a sum spread over lanes and
// folded at the end would reassociate; the assembly uses neither.
//
// Which body runs is decided once, at package init, from what the CPU and
// the operating system report (AVX2, and YMM state saved on context switch).
// Without both — and on every other architecture — the Go loops run; they
// are also the reference the tests compare the assembly against.
//
// A fourth kernel, TanhBias4 at the end of this file, is a different kind of
// equal: its assembly is package math's own tanh, four lanes at a time.

// useAVX2 selects the assembly bodies. It is written at init and, after
// that, only by tests through SetVectorKernels.
var useAVX2 = hasAVX2

// HasVectorKernels reports whether this host passed the probe for the
// assembly kernels.
func HasVectorKernels() bool { return hasAVX2 }

// SetVectorKernels is the tests' switch between the two bodies, so both can
// be held to the same bit-identity suites on one host: it selects the
// assembly (on) or the portable Go loops (off) and returns the previous
// choice. Nothing outside tests calls it, and it must not run concurrently
// with a kernel. Asking for the assembly on a host that failed the probe
// panics.
func SetVectorKernels(on bool) (was bool) {
	if on && !hasAVX2 {
		panic("linalg: SetVectorKernels(true) on a host without AVX2")
	}
	was, useAVX2 = useAVX2, on
	return was
}

// Interleave4 writes four equal-length vectors sample-interleaved:
// dstT[4j+s] = x_s[j], the input layout of MatVecT4. len(dstT) must be four
// times the vectors' length.
func Interleave4(dstT, x0, x1, x2, x3 []float64) {
	n := len(x0)
	if len(x1) != n || len(x2) != n || len(x3) != n || len(dstT) != 4*n {
		panic(fmt.Sprintf("linalg: Interleave4 length mismatch %d vs 4×(%d, %d, %d, %d)", len(dstT), n, len(x1), len(x2), len(x3)))
	}
	for j := range x0 {
		q := dstT[4*j : 4*j+4 : 4*j+4]
		q[0], q[1], q[2], q[3] = x0[j], x1[j], x2[j], x3[j]
	}
}

// Deinterleave4 is the inverse of Interleave4: d_s[j] = srcT[4j+s].
func Deinterleave4(d0, d1, d2, d3, srcT []float64) {
	n := len(d0)
	if len(d1) != n || len(d2) != n || len(d3) != n || len(srcT) != 4*n {
		panic(fmt.Sprintf("linalg: Deinterleave4 length mismatch 4×(%d, %d, %d, %d) vs %d", n, len(d1), len(d2), len(d3), len(srcT)))
	}
	for j := range d0 {
		q := srcT[4*j : 4*j+4 : 4*j+4]
		d0[j], d1[j], d2[j], d3[j] = q[0], q[1], q[2], q[3]
	}
}

// MatVecT4 computes four mat-vecs at once over sample-interleaved vectors:
// with n = len(xT)/4 and xT[4j+s] = x_s[j], it stores dstT[4r+s] = ⟨row r of
// w, x_s⟩ for r < rows, where row r is w[r*stride : r*stride+n]. Every
// output is its own left-to-right sum from +0, bit-identical to MatVecInto
// run once per sample; what the grouping buys is that a word of w is loaded
// once for four samples and, in the assembly body, that the four samples'
// products and sums are one instruction each. Panics on a shape that does
// not fit its slices, before any element is touched.
func MatVecT4(dstT, w []float64, stride, rows int, xT []float64) {
	n := len(xT) / 4
	if len(xT) != 4*n || rows < 0 || stride < 0 || len(dstT) < 4*rows || (rows > 0 && (rows-1)*stride+n > len(w)) {
		panic(fmt.Sprintf("linalg: MatVecT4 shape mismatch: %d rows of %d at stride %d over %d words, into %d from %d", rows, n, stride, len(w), len(dstT), len(xT)))
	}
	if rows == 0 {
		return
	}
	if n == 0 {
		ZeroVec(dstT[:4*rows])
		return
	}
	if useAVX2 {
		matVecT4AVX2(&dstT[0], &w[0], stride, rows, n, &xT[0])
		return
	}
	for r := 0; r < rows; r += 2 {
		// A last odd row rides as both rows of its pair: the same sums twice,
		// stored to the same four words.
		r1 := min(r+1, rows-1)
		a0, a1, a2, a3, b0, b1, b2, b3 := dotT4x2(w[r*stride:][:n], w[r1*stride:][:n], xT)
		q := dstT[4*r : 4*r+4 : 4*r+4]
		q[0], q[1], q[2], q[3] = a0, a1, a2, a3
		q = dstT[4*r1 : 4*r1+4 : 4*r1+4]
		q[0], q[1], q[2], q[3] = b0, b1, b2, b3
	}
}

// dotT4x2 returns the inner products of two rows with the four interleaved
// samples of xT: eight independent left-to-right accumulators, each word of
// xT loaded once for both rows. Two rows is what the sixteen float registers
// of amd64 hold without spilling; one row per pass measured a quarter
// slower than MatVecInto per sample, this matches it. Out of line for
// dot4's reason.
//
//go:noinline
func dotT4x2(r0, r1, xT []float64) (a0, a1, a2, a3, b0, b1, b2, b3 float64) {
	r1, xT = r1[:len(r0)], xT[:4*len(r0)]
	for j, u := range r0 {
		v := r1[j]
		q := xT[4*j : 4*j+4 : 4*j+4]
		a0 += u * q[0]
		a1 += u * q[1]
		a2 += u * q[2]
		a3 += u * q[3]
		b0 += v * q[0]
		b1 += v * q[1]
		b2 += v * q[2]
		b3 += v * q[3]
	}
	return a0, a1, a2, a3, b0, b1, b2, b3
}

// TanhBias4 is the hidden layer's activation on MatVecT4's layout: hT[4i+s] =
// tanh(hT[4i+s] + b[i]) for the four samples s of every row i, each equal to
// math.Tanh of that sum in every bit. The assembly body is not another tanh
// but the same one: on amd64 math.Tanh is a fixed sequence of IEEE
// multiplies, adds, divides, fused multiply-adds (inside math.Exp, when the
// CPU has AVX and FMA) and conversions, and each of them rounds in a lane as
// it does in a scalar register. Only that FMA sequence is transcribed, so the
// assembly needs hasFMA on top of the other kernels' probe; a host where
// math.Exp runs without FMA runs the loop below. Panics unless len(hT) is
// four times len(b).
func TanhBias4(hT, b []float64) {
	if len(hT) != 4*len(b) {
		panic(fmt.Sprintf("linalg: TanhBias4 length mismatch %d vs 4×%d", len(hT), len(b)))
	}
	if len(b) == 0 {
		return
	}
	if useAVX2 && hasFMA {
		tanhBias4AVX2(&hT[0], &b[0], len(b))
		return
	}
	for i, bi := range b {
		q := hT[4*i : 4*i+4 : 4*i+4]
		q[0], q[1], q[2], q[3] = math.Tanh(q[0]+bi), math.Tanh(q[1]+bi), math.Tanh(q[2]+bi), math.Tanh(q[3]+bi)
	}
}
