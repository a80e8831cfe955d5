//go:build amd64 && !race

#include "textflag.h"

// Each lane computes what the Go loops in axpy.go compute for one
// element: MULPS/ADDPS round every lane exactly as MULSS/ADDSS do, and
// the adds run in the source's left-to-right order. Only SSE and SSE2
// instructions appear, so no CPUID check is needed, and none fuses.

// func axpy4SSE(d, b []float32, a0, a1, a2, a3 float32)
TEXT ·axpy4SSE(SB), NOSPLIT, $0-64
	MOVQ   d_base+0(FP), DI
	MOVQ   d_len+8(FP), CX
	MOVQ   b_base+24(FP), R8
	MOVQ   CX, BX
	SHLQ   $2, BX
	LEAQ   (R8)(BX*1), R9
	LEAQ   (R9)(BX*1), R10
	LEAQ   (R10)(BX*1), R11
	MOVSS  a0+48(FP), X0
	SHUFPS $0, X0, X0
	MOVSS  a1+52(FP), X1
	SHUFPS $0, X1, X1
	MOVSS  a2+56(FP), X2
	SHUFPS $0, X2, X2
	MOVSS  a3+60(FP), X3
	SHUFPS $0, X3, X3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX
	JZ     axpy4quad

	// Eight elements per iteration, as two independent groups of four.
axpy4loop8:
	MOVUPS (DI)(AX*4), X4
	MOVUPS 16(DI)(AX*4), X8
	MOVUPS (R8)(AX*4), X5
	MOVUPS 16(R8)(AX*4), X9
	MULPS  X0, X5
	MULPS  X0, X9
	ADDPS  X5, X4
	ADDPS  X9, X8
	MOVUPS (R9)(AX*4), X5
	MOVUPS 16(R9)(AX*4), X9
	MULPS  X1, X5
	MULPS  X1, X9
	ADDPS  X5, X4
	ADDPS  X9, X8
	MOVUPS (R10)(AX*4), X5
	MOVUPS 16(R10)(AX*4), X9
	MULPS  X2, X5
	MULPS  X2, X9
	ADDPS  X5, X4
	ADDPS  X9, X8
	MOVUPS (R11)(AX*4), X5
	MOVUPS 16(R11)(AX*4), X9
	MULPS  X3, X5
	MULPS  X3, X9
	ADDPS  X5, X4
	ADDPS  X9, X8
	MOVUPS X4, (DI)(AX*4)
	MOVUPS X8, 16(DI)(AX*4)
	ADDQ   $8, AX
	CMPQ   AX, DX
	JLT    axpy4loop8

axpy4quad:
	MOVQ   CX, DX
	SUBQ   AX, DX
	CMPQ   DX, $4
	JLT    axpy4tail
	MOVUPS (DI)(AX*4), X4
	MOVUPS (R8)(AX*4), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R9)(AX*4), X5
	MULPS  X1, X5
	ADDPS  X5, X4
	MOVUPS (R10)(AX*4), X5
	MULPS  X2, X5
	ADDPS  X5, X4
	MOVUPS (R11)(AX*4), X5
	MULPS  X3, X5
	ADDPS  X5, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX

	// The last len(d) mod 4 elements, one lane each.
axpy4tail:
	CMPQ  AX, CX
	JGE   axpy4done
	MOVSS (DI)(AX*4), X4
	MOVSS (R8)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS (R9)(AX*4), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R10)(AX*4), X5
	MULSS X2, X5
	ADDSS X5, X4
	MOVSS (R11)(AX*4), X5
	MULSS X3, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   axpy4tail

axpy4done:
	RET

// func axpy1SSE(d, b []float32, a float32)
TEXT ·axpy1SSE(SB), NOSPLIT, $0-52
	MOVQ   d_base+0(FP), DI
	MOVQ   d_len+8(FP), CX
	MOVQ   b_base+24(FP), SI
	MOVSS  a+48(FP), X0
	SHUFPS $0, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX
	JZ     axpy1quad

axpy1loop8:
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI)(AX*4), X3
	MOVUPS 16(DI)(AX*4), X4
	ADDPS  X1, X3
	ADDPS  X2, X4
	MOVUPS X3, (DI)(AX*4)
	MOVUPS X4, 16(DI)(AX*4)
	ADDQ   $8, AX
	CMPQ   AX, DX
	JLT    axpy1loop8

axpy1quad:
	MOVQ   CX, DX
	SUBQ   AX, DX
	CMPQ   DX, $4
	JLT    axpy1tail
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X3
	ADDPS  X1, X3
	MOVUPS X3, (DI)(AX*4)
	ADDQ   $4, AX

axpy1tail:
	CMPQ  AX, CX
	JGE   axpy1done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X3
	ADDSS X1, X3
	MOVSS X3, (DI)(AX*4)
	INCQ  AX
	JMP   axpy1tail

axpy1done:
	RET
