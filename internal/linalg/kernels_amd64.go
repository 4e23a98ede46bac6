package linalg

// hasAVX2 is the probe's verdict: the CPU executes AVX2 and the operating
// system saves the YMM registers across context switches.
var hasAVX2 = probeAVX2()

func probeAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmAndYMM = 0b110 // XCR0: SSE and AVX state both enabled
	if lo, _ := xgetbv0(); lo&xmmAndYMM != xmmAndYMM {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// hasFMA is CPUID.1:ECX bit 12 on a host that passed probeAVX2: together
// with AVX, the rule by which package math sends Exp down its FMA path
// (math.useFMA), which is the path the tanh bodies transcribe.
var hasFMA = hasAVX2 && probeFMA()

func probeFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// hasAVX512 is the probe's verdict for the zmm bodies, on a host that
// passed the other two: the CPU executes AVX512F and AVX512DQ (the
// lane-wide and/andn/or of the tanh are DQ instructions), and the operating
// system saves the opmask registers and all 32 ZMM registers.
var hasAVX512 = hasAVX2 && hasFMA && probeAVX512()

func probeAVX512() bool {
	const zmmState = 0b1110_0110 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	if lo, _ := xgetbv0(); lo&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq) == avx512f|avx512dq
}

// cpuid executes CPUID with EAX = leaf, ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0. Only valid once CPUID has
// reported OSXSAVE.
func xgetbv0() (eax, edx uint32)

// matVecT8AVX2 and matVecT8AVX512 are MatVecT8's bodies for rows ≥ 1 and
// n ≥ 1; MatVecT8 has checked that 8·rows words of dstT, 8·n words of xT and
// the first n words of each of the rows of w exist. They touch nothing else.
//
//go:noescape
func matVecT8AVX2(dstT, w *float64, stride, rows, n int, xT *float64)

//go:noescape
func matVecT8AVX512(dstT, w *float64, stride, rows, n int, xT *float64)

// axpy4AVX2 and axpy4AVX512 are the bodies of AXPY4 (zero false) and
// AXPY4Zero (zero true, dst never read) for n ≥ 1 words of dst and of each
// source.
//
//go:noescape
func axpy4AVX2(dst *float64, n int, a0 float64, x0 *float64, a1 float64, x1 *float64, a2 float64, x2 *float64, a3 float64, x3 *float64, zero bool)

//go:noescape
func axpy4AVX512(dst *float64, n int, a0 float64, x0 *float64, a1 float64, x1 *float64, a2 float64, x2 *float64, a3 float64, x3 *float64, zero bool)

// axpy1AVX2 is the body of AXPY (zero false) and AXPYZero (zero true, dst
// never read) for n ≥ 1 words of dst and of x, on both assembly paths.
//
//go:noescape
func axpy1AVX2(dst *float64, n int, a float64, x *float64, zero bool)

// addTo4AVX2 is AddTo4's body for n ≥ 1 words of dst and of a, b, c, d. p0–p3
// are only prefetched, never read or written.
//
//go:noescape
func addTo4AVX2(dst *float64, n int, a, b, c, d, p0, p1, p2, p3 *float64)

// tanhBias8AVX2 and tanhBias8AVX512 are TanhBias8's bodies for rows ≥ 1:
// 8·rows words of hT, rows words of b. Only for a host with hasFMA.
//
//go:noescape
func tanhBias8AVX2(hT, b *float64, rows int)

//go:noescape
func tanhBias8AVX512(hT, b *float64, rows int)
