// montMulADX, mont.mul's kernel on hosts with BMI2 and ADX: the CIOS
// Montgomery product of mulGeneric (mont.go), with the two carry chains of
// a multiply-accumulate pass on separate flags. MULXQ multiplies without
// touching the flags, ADCXQ carries in CF only and ADOXQ in OF only, so a
// pass adds a product row and the running sum in one sweep.
//
// The frame holds the running sum T, fourteen words at 8(SP)…112(SP)
// (T[j] at 8(j+1)(SP)), a scratch word at 0(SP) that pass 2's first step
// writes, and T − p at 120(SP)…208(SP) for the final selection.

#include "textflag.h"

// STEP adds one word of a product row into T. With DX the multiplier:
// hi:lo = DX·src, lo += prev + CF (prev is the previous step's hi, AX = 0
// for the first), lo += in + OF, out = lo. hi carries into the next step.
#define STEP(src, prev, hi, in, out) \
	MULXQ src, R8, hi; \
	ADCXQ prev, R8;    \
	ADOXQ in, R8;      \
	MOVQ  R8, out

// func montMulADX(z, x, y, p *fe, n0 uint64)
//
// Between limbs T < 2p fits thirteen words, T[12] being 0 or 1. Pass 1
// adds x[i]·y; its carry out of T[12] is T[13]. Pass 2 adds q·p with
// q = T[0]·n0, which zeroes T[0], and stores word j at slot j−1: the
// division by 2^64. z is written only after the last read of x and y, so
// it may alias either.
TEXT ·montMulADX(SB), NOSPLIT, $216-40
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), BX
	MOVQ p+24(FP), CX
	MOVQ n0+32(FP), R11
	XORQ AX, AX
	MOVQ AX, 8(SP)
	MOVQ AX, 16(SP)
	MOVQ AX, 24(SP)
	MOVQ AX, 32(SP)
	MOVQ AX, 40(SP)
	MOVQ AX, 48(SP)
	MOVQ AX, 56(SP)
	MOVQ AX, 64(SP)
	MOVQ AX, 72(SP)
	MOVQ AX, 80(SP)
	MOVQ AX, 88(SP)
	MOVQ AX, 96(SP)
	MOVQ AX, 104(SP)
	MOVQ $12, DI

limb:
	// Pass 1: T += x[i]·y.
	MOVQ (SI), DX
	XORQ AX, AX
	STEP(0(BX), AX, R9, 8(SP), 8(SP))
	STEP(8(BX), R9, R10, 16(SP), 16(SP))
	STEP(16(BX), R10, R9, 24(SP), 24(SP))
	STEP(24(BX), R9, R10, 32(SP), 32(SP))
	STEP(32(BX), R10, R9, 40(SP), 40(SP))
	STEP(40(BX), R9, R10, 48(SP), 48(SP))
	STEP(48(BX), R10, R9, 56(SP), 56(SP))
	STEP(56(BX), R9, R10, 64(SP), 64(SP))
	STEP(64(BX), R10, R9, 72(SP), 72(SP))
	STEP(72(BX), R9, R10, 80(SP), 80(SP))
	STEP(80(BX), R10, R9, 88(SP), 88(SP))
	STEP(88(BX), R9, R10, 96(SP), 96(SP))
	ADCXQ AX, R10
	ADOXQ 104(SP), R10
	MOVQ  R10, 104(SP)
	ADOXQ AX, AX
	MOVQ  AX, 112(SP)

	// Pass 2: T = (T + q·p) / 2^64.
	MOVQ  8(SP), DX
	IMULQ R11, DX
	XORQ  AX, AX
	STEP(0(CX), AX, R9, 8(SP), 0(SP))
	STEP(8(CX), R9, R10, 16(SP), 8(SP))
	STEP(16(CX), R10, R9, 24(SP), 16(SP))
	STEP(24(CX), R9, R10, 32(SP), 24(SP))
	STEP(32(CX), R10, R9, 40(SP), 32(SP))
	STEP(40(CX), R9, R10, 48(SP), 40(SP))
	STEP(48(CX), R10, R9, 56(SP), 48(SP))
	STEP(56(CX), R9, R10, 64(SP), 56(SP))
	STEP(64(CX), R10, R9, 72(SP), 64(SP))
	STEP(72(CX), R9, R10, 80(SP), 72(SP))
	STEP(80(CX), R10, R9, 88(SP), 80(SP))
	STEP(88(CX), R9, R10, 96(SP), 88(SP))
	ADCXQ AX, R10
	ADOXQ 104(SP), R10
	MOVQ  R10, 96(SP)
	MOVQ  112(SP), R10
	ADOXQ AX, R10
	MOVQ  R10, 104(SP)

	ADDQ $8, SI
	DECQ DI
	JNZ  limb

	// D = T − p, its borrow run on through T[12]: CF is then clear
	// exactly when T ≥ p, and z = CF clear ? D : T.
	MOVQ 8(SP), R8
	SUBQ 0(CX), R8
	MOVQ R8, 120(SP)
	MOVQ 16(SP), R8
	SBBQ 8(CX), R8
	MOVQ R8, 128(SP)
	MOVQ 24(SP), R8
	SBBQ 16(CX), R8
	MOVQ R8, 136(SP)
	MOVQ 32(SP), R8
	SBBQ 24(CX), R8
	MOVQ R8, 144(SP)
	MOVQ 40(SP), R8
	SBBQ 32(CX), R8
	MOVQ R8, 152(SP)
	MOVQ 48(SP), R8
	SBBQ 40(CX), R8
	MOVQ R8, 160(SP)
	MOVQ 56(SP), R8
	SBBQ 48(CX), R8
	MOVQ R8, 168(SP)
	MOVQ 64(SP), R8
	SBBQ 56(CX), R8
	MOVQ R8, 176(SP)
	MOVQ 72(SP), R8
	SBBQ 64(CX), R8
	MOVQ R8, 184(SP)
	MOVQ 80(SP), R8
	SBBQ 72(CX), R8
	MOVQ R8, 192(SP)
	MOVQ 88(SP), R8
	SBBQ 80(CX), R8
	MOVQ R8, 200(SP)
	MOVQ 96(SP), R8
	SBBQ 88(CX), R8
	MOVQ R8, 208(SP)
	MOVQ 104(SP), R8
	SBBQ $0, R8

	MOVQ    z+0(FP), DI
	MOVQ    8(SP), R8
	CMOVQCC 120(SP), R8
	MOVQ    R8, 0(DI)
	MOVQ    16(SP), R8
	CMOVQCC 128(SP), R8
	MOVQ    R8, 8(DI)
	MOVQ    24(SP), R8
	CMOVQCC 136(SP), R8
	MOVQ    R8, 16(DI)
	MOVQ    32(SP), R8
	CMOVQCC 144(SP), R8
	MOVQ    R8, 24(DI)
	MOVQ    40(SP), R8
	CMOVQCC 152(SP), R8
	MOVQ    R8, 32(DI)
	MOVQ    48(SP), R8
	CMOVQCC 160(SP), R8
	MOVQ    R8, 40(DI)
	MOVQ    56(SP), R8
	CMOVQCC 168(SP), R8
	MOVQ    R8, 48(DI)
	MOVQ    64(SP), R8
	CMOVQCC 176(SP), R8
	MOVQ    R8, 56(DI)
	MOVQ    72(SP), R8
	CMOVQCC 184(SP), R8
	MOVQ    R8, 64(DI)
	MOVQ    80(SP), R8
	CMOVQCC 192(SP), R8
	MOVQ    R8, 72(DI)
	MOVQ    88(SP), R8
	CMOVQCC 200(SP), R8
	MOVQ    R8, 80(DI)
	MOVQ    96(SP), R8
	CMOVQCC 208(SP), R8
	MOVQ    R8, 88(DI)
	RET
