// The package's only assembly: the AVX2 bodies of MatVecT4 and
// AXPY4/AXPY4Zero, and the two probes that decide whether they may run.
// kernels.go holds the Go loops they must equal bit for bit, the operand
// checks that run before every call, and the reasons for the shape.
//
// Every product is a VMULPD and every sum a separate VADDPD, rounded where
// the Go loops round; there is no FMA and no horizontal add, a lane is one
// output element from start to finish. The accumulator is the first source
// of each add and the matrix word / scale factor the first source of each
// multiply (the middle operand in this syntax), which is the operand a NaN
// result is copied from when both are NaN.

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

// func matVecT4AVX2(dstT, w *float64, stride, rows, n int, xT *float64)
//
// rows ≥ 1, n ≥ 1. Rows go four per pass: one 32-byte load of xT (column j
// of the four samples) meets the broadcast word of each row, four
// independent accumulators. A last pass of 1–3 rows points the spare row
// registers at the pass's last real row, so the inner loop is the same and
// never leaves w; the spare sums are computed and not stored.
TEXT ·matVecT4AVX2(SB), NOSPLIT, $0-48
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
	MOVQ   DX, BX
	XORQ   AX, AX

column:
	VMOVUPD      (BX), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VBROADCASTSD (R10)(AX*8), Y6
	VBROADCASTSD (R11)(AX*8), Y7
	VBROADCASTSD (R12)(AX*8), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          column

	VMOVUPD Y0, (DI)
	CMPQ    R9, $2
	JLT     done
	VMOVUPD Y1, 32(DI)
	CMPQ    R9, $3
	JLT     done
	VMOVUPD Y2, 64(DI)
	CMPQ    R9, $4
	JLT     done
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R12)(R8*1), SI
	SUBQ    $4, R9
	JNZ     pass

done:
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
