// The package's only assembly: the AVX2 bodies of MatVecT8, AXPY4/AXPY4Zero,
// AXPY/AXPYZero, AddTo4 and TanhBias8, the AVX-512 bodies of MatVecT8,
// AXPY4/AXPY4Zero and TanhBias8, and the two probes that decide which of
// them may run.
// kernels.go holds the Go loops they must equal bit for bit, the operand
// checks that run before every call, and the reasons for the shape.
//
// In the mat-vec and the row updates every product is a VMULPD and every sum
// a separate VADDPD, rounded where the Go loops round; there is no FMA and no
// horizontal add, a lane is one output element from start to finish. The row
// sum is the adds alone, in the same order. The
// accumulator is the first source of each add and the matrix word / scale
// factor the first source of each multiply (the middle operand in this
// syntax), which is the operand a NaN result is copied from when both are
// NaN. The tanh fuses exactly where package math's own assembly fuses.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func matVecT8AVX2(dstT, w *float64, stride, rows, n int, xT *float64)
//
// rows ≥ 1, n ≥ 1. A column of xT is eight samples, two 32-byte halves.
// Rows go four per pass: both halves are loaded once per column and meet
// the broadcast word of each row, two accumulators per row, eight
// independent sums in flight. A last pass of 1–3 rows points the spare row
// registers at the pass's last real row, so the inner loop is the same and
// never leaves w; the spare sums are computed and not stored. Every lane's
// chain is the same whichever pass its row falls in.
TEXT ·matVecT8AVX2(SB), NOSPLIT, $0-48
	MOVQ dstT+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ xT+40(FP), DX
	SHLQ $3, R8 // row stride in bytes

pass:
	MOVQ SI, R10
	MOVQ SI, R11
	MOVQ SI, R12
	CMPQ R9, $2
	JLT  rowsset
	ADDQ R8, R10
	MOVQ R10, R11
	MOVQ R10, R12
	CMPQ R9, $3
	JLT  rowsset
	ADDQ R8, R11
	MOVQ R11, R12
	CMPQ R9, $4
	JLT  rowsset
	ADDQ R8, R12

rowsset:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   DX, BX
	XORQ   AX, AX

column:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VBROADCASTSD (R10)(AX*8), Y13
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (R11)(AX*8), Y10
	VBROADCASTSD (R12)(AX*8), Y13
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $64, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          column

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	CMPQ    R9, $2
	JLT     done
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	CMPQ    R9, $3
	JLT     done
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	CMPQ    R9, $4
	JLT     done
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (R12)(R8*1), SI
	SUBQ    $4, R9
	JNZ     pass

done:
	VZEROUPPER
	RET

// func matVecT8AVX512(dstT, w *float64, stride, rows, n int, xT *float64)
//
// rows ≥ 1, n ≥ 1. A column of xT is one 64-byte load, the eight samples in
// the eight lanes. Rows go eight per pass while eight remain, eight
// accumulators, then the last rows mod 8 four per pass with
// matVecT8AVX2's spare-row rule for a last pass of 1–3.
TEXT ·matVecT8AVX512(SB), NOSPLIT, $0-48
	MOVQ dstT+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $3, R8 // row stride in bytes
	CMPQ R9, $8
	JLT  zrest

	// Eight row pointers: SI, R10–R15 and DX, so the pass reloads xT's base
	// from the argument instead of keeping it in DX.
zpass8:
	LEAQ   (SI)(R8*1), R10
	LEAQ   (R10)(R8*1), R11
	LEAQ   (R11)(R8*1), R12
	LEAQ   (R12)(R8*1), R13
	LEAQ   (R13)(R8*1), R14
	LEAQ   (R14)(R8*1), R15
	LEAQ   (R15)(R8*1), DX
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	MOVQ   xT+40(FP), BX
	XORQ   AX, AX

zcolumn8:
	VMOVUPD      (BX), Z8
	VBROADCASTSD (SI)(AX*8), Z9
	VBROADCASTSD (R10)(AX*8), Z10
	VBROADCASTSD (R11)(AX*8), Z11
	VBROADCASTSD (R12)(AX*8), Z12
	VBROADCASTSD (R13)(AX*8), Z13
	VBROADCASTSD (R14)(AX*8), Z14
	VBROADCASTSD (R15)(AX*8), Z15
	VBROADCASTSD (DX)(AX*8), Z16
	VMULPD       Z8, Z9, Z9
	VMULPD       Z8, Z10, Z10
	VMULPD       Z8, Z11, Z11
	VMULPD       Z8, Z12, Z12
	VMULPD       Z8, Z13, Z13
	VMULPD       Z8, Z14, Z14
	VMULPD       Z8, Z15, Z15
	VMULPD       Z8, Z16, Z16
	VADDPD       Z9, Z0, Z0
	VADDPD       Z10, Z1, Z1
	VADDPD       Z11, Z2, Z2
	VADDPD       Z12, Z3, Z3
	VADDPD       Z13, Z4, Z4
	VADDPD       Z14, Z5, Z5
	VADDPD       Z15, Z6, Z6
	VADDPD       Z16, Z7, Z7
	ADDQ         $64, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          zcolumn8

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ    $512, DI
	LEAQ    (DX)(R8*1), SI
	SUBQ    $8, R9
	JZ      zdone
	CMPQ    R9, $8
	JGE     zpass8

zrest:
	MOVQ xT+40(FP), DX

zpass:
	MOVQ SI, R10
	MOVQ SI, R11
	MOVQ SI, R12
	CMPQ R9, $2
	JLT  zrowsset
	ADDQ R8, R10
	MOVQ R10, R11
	MOVQ R10, R12
	CMPQ R9, $3
	JLT  zrowsset
	ADDQ R8, R11
	MOVQ R11, R12
	CMPQ R9, $4
	JLT  zrowsset
	ADDQ R8, R12

zrowsset:
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	MOVQ   DX, BX
	XORQ   AX, AX

zcolumn:
	VMOVUPD      (BX), Z8
	VBROADCASTSD (SI)(AX*8), Z9
	VBROADCASTSD (R10)(AX*8), Z10
	VBROADCASTSD (R11)(AX*8), Z11
	VBROADCASTSD (R12)(AX*8), Z12
	VMULPD       Z8, Z9, Z9
	VMULPD       Z8, Z10, Z10
	VMULPD       Z8, Z11, Z11
	VMULPD       Z8, Z12, Z12
	VADDPD       Z9, Z0, Z0
	VADDPD       Z10, Z1, Z1
	VADDPD       Z11, Z2, Z2
	VADDPD       Z12, Z3, Z3
	ADDQ         $64, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          zcolumn

	VMOVUPD Z0, (DI)
	CMPQ    R9, $2
	JLT     zdone
	VMOVUPD Z1, 64(DI)
	CMPQ    R9, $3
	JLT     zdone
	VMOVUPD Z2, 128(DI)
	CMPQ    R9, $4
	JLT     zdone
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	LEAQ    (R12)(R8*1), SI
	SUBQ    $4, R9
	JNZ     zpass

zdone:
	VZEROUPPER
	RET

// func axpy4AVX2(dst *float64, n int, a0 float64, x0 *float64, a1 float64, x1 *float64, a2 float64, x2 *float64, a3 float64, x3 *float64, zero bool)
//
// n ≥ 1. Four columns per lane group, then the last n mod 4 columns one at
// a time with the scalar forms of the same instructions. zero selects what
// the chain starts from: +0 (AXPY4Zero, dst never loaded) or dst[i].
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-81
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         x0+24(FP), R8
	MOVQ         x1+40(FP), R9
	MOVQ         x2+56(FP), R10
	MOVQ         x3+72(FP), R11
	VBROADCASTSD a0+16(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+48(FP), Y2
	VBROADCASTSD a3+64(FP), Y3
	MOVBLZX      zero+80(FP), DX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX // columns covered by whole lane groups
	JZ           tail

lanes:
	VXORPD  Y8, Y8, Y8
	TESTL   DX, DX
	JNZ     lanesum
	VMOVUPD (DI)(AX*8), Y8

lanesum:
	VMULPD  (R8)(AX*8), Y0, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VMULPD  (R11)(AX*8), Y3, Y7
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y8, Y8
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     lanes

tail:
	CMPQ AX, CX
	JGE  axpydone

one:
	VXORPD X8, X8, X8
	TESTL  DX, DX
	JNZ    onesum
	VMOVSD (DI)(AX*8), X8

onesum:
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VMULSD (R10)(AX*8), X2, X6
	VMULSD (R11)(AX*8), X3, X7
	VADDSD X4, X8, X8
	VADDSD X5, X8, X8
	VADDSD X6, X8, X8
	VADDSD X7, X8, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    one

axpydone:
	VZEROUPPER
	RET

// func axpy4AVX512(dst *float64, n int, a0 float64, x0 *float64, a1 float64, x1 *float64, a2 float64, x2 *float64, a3 float64, x3 *float64, zero bool)
//
// axpy4AVX2 with eight columns per lane group: the whole groups in zmm,
// then at most one group of four in ymm (the broadcast factors' low halves),
// then the last n mod 4 columns one at a time.
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-81
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         x0+24(FP), R8
	MOVQ         x1+40(FP), R9
	MOVQ         x2+56(FP), R10
	MOVQ         x3+72(FP), R11
	VBROADCASTSD a0+16(FP), Z0
	VBROADCASTSD a1+32(FP), Z1
	VBROADCASTSD a2+48(FP), Z2
	VBROADCASTSD a3+64(FP), Z3
	MOVBLZX      zero+80(FP), DX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX // columns covered by whole lane groups
	JZ           zquad

zlanes:
	VXORPD  Z8, Z8, Z8
	TESTL   DX, DX
	JNZ     zlanesum
	VMOVUPD (DI)(AX*8), Z8

zlanesum:
	VMULPD  (R8)(AX*8), Z0, Z4
	VMULPD  (R9)(AX*8), Z1, Z5
	VMULPD  (R10)(AX*8), Z2, Z6
	VMULPD  (R11)(AX*8), Z3, Z7
	VADDPD  Z4, Z8, Z8
	VADDPD  Z5, Z8, Z8
	VADDPD  Z6, Z8, Z8
	VADDPD  Z7, Z8, Z8
	VMOVUPD Z8, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     zlanes

zquad:
	MOVQ    CX, BX
	SUBQ    AX, BX
	CMPQ    BX, $4
	JLT     ztail
	VXORPD  Y8, Y8, Y8
	TESTL   DX, DX
	JNZ     zquadsum
	VMOVUPD (DI)(AX*8), Y8

zquadsum:
	VMULPD  (R8)(AX*8), Y0, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VMULPD  (R11)(AX*8), Y3, Y7
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y8, Y8
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX

ztail:
	CMPQ AX, CX
	JGE  zaxpydone

zone:
	VXORPD X8, X8, X8
	TESTL  DX, DX
	JNZ    zonesum
	VMOVSD (DI)(AX*8), X8

zonesum:
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VMULSD (R10)(AX*8), X2, X6
	VMULSD (R11)(AX*8), X3, X7
	VADDSD X4, X8, X8
	VADDSD X5, X8, X8
	VADDSD X6, X8, X8
	VADDSD X7, X8, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    zone

zaxpydone:
	VZEROUPPER
	RET

// func axpy1AVX2(dst *float64, n int, a float64, x *float64, zero bool)
//
// n ≥ 1. dst[i] = dst[i] + a·x[i], or +0 + a·x[i] with zero set (AXPYZero,
// dst never loaded), as axpy4AVX2's zero flag. Sixteen columns (two cache
// lines of each operand) per pass as four independent lane groups, then
// whole groups of four, then the last n mod 4 columns one at a time with the
// scalar forms of the same instructions. The AVX-512 path runs this body
// too: at one multiply and one add per word loaded the loads and stores set
// the pace, not the lane width, and a zmm body was measured no faster end to
// end.
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-33
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD a+16(FP), Y0
	MOVQ         x+24(FP), SI
	MOVBLZX      zero+32(FP), DX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX // columns covered by whole passes
	JZ           ax1quads

ax1lines:
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	TESTL   DX, DX
	JNZ     ax1linesum
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD 64(DI)(AX*8), Y6
	VMOVUPD 96(DI)(AX*8), Y7

ax1linesum:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y8
	VADDPD  Y1, Y4, Y4
	VADDPD  Y2, Y5, Y5
	VADDPD  Y3, Y6, Y6
	VADDPD  Y8, Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     ax1lines

ax1quads:
	MOVQ CX, BX
	ANDQ $-4, BX // columns covered by whole lane groups
	CMPQ AX, BX
	JGE  ax1tail

ax1quad:
	VXORPD  Y4, Y4, Y4
	TESTL   DX, DX
	JNZ     ax1quadsum
	VMOVUPD (DI)(AX*8), Y4

ax1quadsum:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  Y1, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     ax1quad

ax1tail:
	CMPQ AX, CX
	JGE  ax1done

ax1one:
	VXORPD X4, X4, X4
	TESTL  DX, DX
	JNZ    ax1onesum
	VMOVSD (DI)(AX*8), X4

ax1onesum:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD X1, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    ax1one

ax1done:
	VZEROUPPER
	RET

// func addTo4AVX2(dst *float64, n int, a, b, c, d, p0, p1, p2, p3 *float64)
//
// n ≥ 1. dst[i] = (((dst[i]+a[i])+b[i])+c[i])+d[i], eight columns (one cache
// line of each row) per pass as two independent lane groups, then at most
// one more group of four, then the last n mod 4 columns one at a time with
// VADDSD. p0–p3 are the rows of the caller's next pass: each pass issues a
// PREFETCHT0 at its own offset in each of them, so the next four rows are
// in cache by the time they are summed. A prefetch never faults and writes
// nothing; the pointers are only hints.
TEXT ·addTo4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), R8
	MOVQ c+32(FP), R9
	MOVQ d+40(FP), R10
	MOVQ p0+48(FP), R11
	MOVQ p1+56(FP), R12
	MOVQ p2+64(FP), R13
	MOVQ p3+72(FP), R14
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX // columns covered by whole lines
	JZ   addquad

addline:
	PREFETCHT0 (R11)(AX*8)
	PREFETCHT0 (R12)(AX*8)
	PREFETCHT0 (R13)(AX*8)
	PREFETCHT0 (R14)(AX*8)
	VMOVUPD    (DI)(AX*8), Y0
	VMOVUPD    32(DI)(AX*8), Y1
	VADDPD     (SI)(AX*8), Y0, Y0
	VADDPD     32(SI)(AX*8), Y1, Y1
	VADDPD     (R8)(AX*8), Y0, Y0
	VADDPD     32(R8)(AX*8), Y1, Y1
	VADDPD     (R9)(AX*8), Y0, Y0
	VADDPD     32(R9)(AX*8), Y1, Y1
	VADDPD     (R10)(AX*8), Y0, Y0
	VADDPD     32(R10)(AX*8), Y1, Y1
	VMOVUPD    Y0, (DI)(AX*8)
	VMOVUPD    Y1, 32(DI)(AX*8)
	ADDQ       $8, AX
	CMPQ       AX, BX
	JLT        addline

addquad:
	MOVQ       CX, BX
	SUBQ       AX, BX
	CMPQ       BX, $4
	JLT        addtail
	PREFETCHT0 (R11)(AX*8)
	PREFETCHT0 (R12)(AX*8)
	PREFETCHT0 (R13)(AX*8)
	PREFETCHT0 (R14)(AX*8)
	VMOVUPD    (DI)(AX*8), Y0
	VADDPD     (SI)(AX*8), Y0, Y0
	VADDPD     (R8)(AX*8), Y0, Y0
	VADDPD     (R9)(AX*8), Y0, Y0
	VADDPD     (R10)(AX*8), Y0, Y0
	VMOVUPD    Y0, (DI)(AX*8)
	ADDQ       $4, AX

addtail:
	CMPQ AX, CX
	JGE  adddone

addone:
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VADDSD (R8)(AX*8), X0, X0
	VADDSD (R9)(AX*8), X0, X0
	VADDSD (R10)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    addone

adddone:
	VZEROUPPER
	RET

// The tanh bodies' constants, each eight times over so that it can be the
// memory operand of a lane-wide instruction (the ymm body reads the first
// four): the two branch boundaries and the tanhP/tanhQ coefficients of
// math/tanh.go, then the constants of math/exp_amd64.s, spelled as they are
// there.
#define OCT(off, v) \
	DATA tanhk<>+(off+0)(SB)/8, v \
	DATA tanhk<>+(off+8)(SB)/8, v \
	DATA tanhk<>+(off+16)(SB)/8, v \
	DATA tanhk<>+(off+24)(SB)/8, v \
	DATA tanhk<>+(off+32)(SB)/8, v \
	DATA tanhk<>+(off+40)(SB)/8, v \
	DATA tanhk<>+(off+48)(SB)/8, v \
	DATA tanhk<>+(off+56)(SB)/8, v

#define ABSMASK   0
#define HALFMAX   64
#define MIDBOUND  128
#define TANHP0    192
#define TANHP1    256
#define TANHP2    320
#define TANHQ0    384
#define TANHQ1    448
#define TANHQ2    512
#define LOG2E     576
#define LN2U      640
#define LN2L      704
#define SIXTEENTH 768
#define EXPC8     832
#define EXPC7     896
#define EXPC6     960
#define EXPC5     1024
#define EXPC4     1088
#define EXPC3     1152
#define HALF      1216
#define ONE       1280
#define TWO       1344
#define EXPBIAS   1408

OCT(ABSMASK, $0x7FFFFFFFFFFFFFFF)
OCT(HALFMAX, $0x404601e678fc457b) // 0.5*MAXLOG as the compiler folds it, MAXLOG = 8.8029691931113054295988e+01
OCT(MIDBOUND, $0.625)
OCT(TANHP0, $-9.64399179425052238628e-1)
OCT(TANHP1, $-9.92877231001918586564e1)
OCT(TANHP2, $-1.61468768441708447952e3)
OCT(TANHQ0, $1.12811678491632931402e2)
OCT(TANHQ1, $2.23548839060100448583e3)
OCT(TANHQ2, $4.84406305325125486048e3)
OCT(LOG2E, $1.4426950408889634073599246810018920)
OCT(LN2U, $0.69314718055966295651160180568695068359375)
OCT(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
OCT(SIXTEENTH, $0.0625)
OCT(EXPC8, $2.4801587301587301587e-5)
OCT(EXPC7, $1.9841269841269841270e-4)
OCT(EXPC6, $1.3888888888888888889e-3)
OCT(EXPC5, $8.3333333333333333333e-3)
OCT(EXPC4, $4.1666666666666666667e-2)
OCT(EXPC3, $1.6666666666666666667e-1)
OCT(HALF, $0.5)
OCT(ONE, $1.0)
OCT(TWO, $2.0)
OCT(EXPBIAS, $0x3FF)
GLOBL tanhk<>(SB), RODATA, $1472

// func tanhBias8AVX2(hT, b *float64, rows int)
//
// rows ≥ 1. Two passes per row, one per 32-byte half: the half's four
// samples are the four lanes, x = hT[8i+s] + b[i]. math.tanh picks one of
// three results by |x|; a lane cannot branch, so each pass evaluates the two
// that need arithmetic on all four lanes and selects afterwards. What a
// branch makes of a lane outside its range (an overflowed square, an
// Inf/Inf) is never selected, and floating-point exceptions are masked.
//
// Every step is the lane-wide form of the scalar instruction the Go
// toolchain runs for that step, in its order: where math/tanh.go compiles to
// a separate multiply and add so does this, and where archExp's avxfma path
// fuses so does this. That path is the one math.Exp takes on a CPU with AVX
// and FMA, which is the only kind of host this body is selected on.
TEXT ·tanhBias8AVX2(SB), NOSPLIT, $0-24
	MOVQ    hT+0(FP), DI
	MOVQ    b+8(FP), SI
	MOVQ    rows+16(FP), CX
	SHLQ    $1, CX // halves
	VMOVUPD tanhk<>+ABSMASK(SB), Y15
	VMOVUPD tanhk<>+ONE(SB), Y14
	VMOVUPD tanhk<>+TWO(SB), Y13
	VXORPD  Y12, Y12, Y12

tanhhalf:
	VBROADCASTSD (SI), Y0
	VADDPD       (DI), Y0, Y0 // x = h + b
	VANDPD       Y15, Y0, Y1  // z = Abs(x)

	// z >= 0.625: s = Exp(2*z), the avxfma path of archExp. 2z is at most
	// MAXLOG where this branch is selected, so archExp's tests for a
	// non-finite argument, overflow and a denormal result never fire there.
	VMULPD       Y13, Y1, Y2
	VMULPD       tanhk<>+LOG2E(SB), Y2, Y3
	VCVTPD2DQY   Y3, X3                    // k, to nearest even like CVTSD2SL
	VCVTDQ2PD    X3, Y4
	VPMOVSXDQ    X3, Y3
	VFNMADD231PD tanhk<>+LN2U(SB), Y4, Y2
	VFNMADD231PD tanhk<>+LN2L(SB), Y4, Y2
	VMULPD       tanhk<>+SIXTEENTH(SB), Y2, Y2
	VMOVUPD      tanhk<>+EXPC8(SB), Y5
	VFMADD213PD  tanhk<>+EXPC7(SB), Y2, Y5
	VFMADD213PD  tanhk<>+EXPC6(SB), Y2, Y5
	VFMADD213PD  tanhk<>+EXPC5(SB), Y2, Y5
	VFMADD213PD  tanhk<>+EXPC4(SB), Y2, Y5
	VFMADD213PD  tanhk<>+EXPC3(SB), Y2, Y5
	VFMADD213PD  tanhk<>+HALF(SB), Y2, Y5
	VFMADD213PD  Y14, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       Y13, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       Y13, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       Y13, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       Y13, Y2, Y5
	VFMADD213PD  Y14, Y5, Y2
	VPADDQ       tanhk<>+EXPBIAS(SB), Y3, Y3
	VPSLLQ       $52, Y3, Y3               // 2**k
	VMULPD       Y3, Y2, Y2                // s

	// z = 1 - 2/(s+1), or 1 where z > 0.5*MAXLOG; then the sign of x, which
	// is what both "if x < 0" do to a positive z.
	VADDPD    Y14, Y2, Y2
	VDIVPD    Y2, Y13, Y2
	VSUBPD    Y2, Y14, Y2
	VCMPPD    $0x1e, tanhk<>+HALFMAX(SB), Y1, Y6 // z > 0.5*MAXLOG, false on NaN
	VBLENDVPD Y6, Y14, Y2, Y2
	VANDNPD   Y0, Y15, Y6
	VORPD     Y6, Y2, Y2

	// default: x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2) with s = x*x,
	// associated as the compiler does: (x*s)*P, then /Q, then x + that. A
	// NaN takes this branch and comes out a NaN.
	VMULPD Y0, Y0, Y7
	VMULPD Y7, Y0, Y8
	VMULPD tanhk<>+TANHP0(SB), Y7, Y9
	VADDPD tanhk<>+TANHP1(SB), Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhk<>+TANHP2(SB), Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD tanhk<>+TANHQ0(SB), Y7, Y10
	VMULPD Y7, Y10, Y10
	VADDPD tanhk<>+TANHQ1(SB), Y10, Y10
	VMULPD Y7, Y10, Y10
	VADDPD tanhk<>+TANHQ2(SB), Y10, Y10
	VDIVPD Y10, Y9, Y9
	VADDPD Y9, Y0, Y9

	// x == 0 returns x: the sum above is +0 for -0. Then the branch by z.
	VCMPPD    $0x00, Y12, Y0, Y6
	VBLENDVPD Y6, Y0, Y9, Y9
	VCMPPD    $0x1d, tanhk<>+MIDBOUND(SB), Y1, Y6 // z >= 0.625, false on NaN
	VBLENDVPD Y6, Y2, Y9, Y9
	VMOVUPD   Y9, (DI)

	// The bias moves on after every second half.
	ADDQ $32, DI
	MOVQ CX, AX
	ANDQ $1, AX
	LEAQ (SI)(AX*8), SI
	DECQ CX
	JNZ  tanhhalf

	VZEROUPPER
	RET

// func tanhBias8AVX512(hT, b *float64, rows int)
//
// rows ≥ 1. tanhBias8AVX2's sequence on one row's eight samples at a time,
// instruction for instruction in zmm. The only change is the select: a
// compare writes an opmask register, and VBLENDMPD takes each lane from one
// source or the other under it, where the ymm body blends by the sign bit of
// a compare's all-ones/all-zeros lane.
TEXT ·tanhBias8AVX512(SB), NOSPLIT, $0-24
	MOVQ    hT+0(FP), DI
	MOVQ    b+8(FP), SI
	MOVQ    rows+16(FP), CX
	VMOVUPD tanhk<>+ABSMASK(SB), Z15
	VMOVUPD tanhk<>+ONE(SB), Z14
	VMOVUPD tanhk<>+TWO(SB), Z13
	VXORPD  Z12, Z12, Z12

ztanhrow:
	VBROADCASTSD (SI), Z0
	VADDPD       (DI), Z0, Z0 // x = h + b
	VANDPD       Z15, Z0, Z1  // z = Abs(x)

	// z >= 0.625: s = Exp(2*z).
	VMULPD       Z13, Z1, Z2
	VMULPD       tanhk<>+LOG2E(SB), Z2, Z3
	VCVTPD2DQ    Z3, Y3                    // k, to nearest even like CVTSD2SL
	VCVTDQ2PD    Y3, Z4
	VPMOVSXDQ    Y3, Z3
	VFNMADD231PD tanhk<>+LN2U(SB), Z4, Z2
	VFNMADD231PD tanhk<>+LN2L(SB), Z4, Z2
	VMULPD       tanhk<>+SIXTEENTH(SB), Z2, Z2
	VMOVUPD      tanhk<>+EXPC8(SB), Z5
	VFMADD213PD  tanhk<>+EXPC7(SB), Z2, Z5
	VFMADD213PD  tanhk<>+EXPC6(SB), Z2, Z5
	VFMADD213PD  tanhk<>+EXPC5(SB), Z2, Z5
	VFMADD213PD  tanhk<>+EXPC4(SB), Z2, Z5
	VFMADD213PD  tanhk<>+EXPC3(SB), Z2, Z5
	VFMADD213PD  tanhk<>+HALF(SB), Z2, Z5
	VFMADD213PD  Z14, Z2, Z5
	VMULPD       Z5, Z2, Z2
	VADDPD       Z13, Z2, Z5
	VMULPD       Z5, Z2, Z2
	VADDPD       Z13, Z2, Z5
	VMULPD       Z5, Z2, Z2
	VADDPD       Z13, Z2, Z5
	VMULPD       Z5, Z2, Z2
	VADDPD       Z13, Z2, Z5
	VFMADD213PD  Z14, Z5, Z2
	VPADDQ       tanhk<>+EXPBIAS(SB), Z3, Z3
	VPSLLQ       $52, Z3, Z3               // 2**k
	VMULPD       Z3, Z2, Z2                // s

	// z = 1 - 2/(s+1), or 1 where z > 0.5*MAXLOG; then the sign of x.
	VADDPD    Z14, Z2, Z2
	VDIVPD    Z2, Z13, Z2
	VSUBPD    Z2, Z14, Z2
	VCMPPD    $0x1e, tanhk<>+HALFMAX(SB), Z1, K1 // z > 0.5*MAXLOG, false on NaN
	VBLENDMPD Z14, Z2, K1, Z2
	VANDNPD   Z0, Z15, Z6
	VORPD     Z6, Z2, Z2

	// default: x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2) with s = x*x.
	VMULPD Z0, Z0, Z7
	VMULPD Z7, Z0, Z8
	VMULPD tanhk<>+TANHP0(SB), Z7, Z9
	VADDPD tanhk<>+TANHP1(SB), Z9, Z9
	VMULPD Z7, Z9, Z9
	VADDPD tanhk<>+TANHP2(SB), Z9, Z9
	VMULPD Z8, Z9, Z9
	VADDPD tanhk<>+TANHQ0(SB), Z7, Z10
	VMULPD Z7, Z10, Z10
	VADDPD tanhk<>+TANHQ1(SB), Z10, Z10
	VMULPD Z7, Z10, Z10
	VADDPD tanhk<>+TANHQ2(SB), Z10, Z10
	VDIVPD Z10, Z9, Z9
	VADDPD Z9, Z0, Z9

	// x == 0 returns x. Then the branch by z.
	VCMPPD    $0x00, Z12, Z0, K1
	VBLENDMPD Z0, Z9, K1, Z9
	VCMPPD    $0x1d, tanhk<>+MIDBOUND(SB), Z1, K1 // z >= 0.625, false on NaN
	VBLENDMPD Z2, Z9, K1, Z9
	VMOVUPD   Z9, (DI)

	ADDQ $64, DI
	ADDQ $8, SI
	DECQ CX
	JNZ  ztanhrow

	VZEROUPPER
	RET
