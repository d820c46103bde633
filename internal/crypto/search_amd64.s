// The PoW search's SHA-256 block kernel, blockAVX512x8: eight lanes on
// AVX-512VL. cpuid and xgetbv read what hasAVX512 tests, and cpuid what
// HasADX tests.
//
// The K256 and flip_mask tables are copied from Go 1.24's
// crypto/internal/fips140/sha256/sha256block_amd64.s:
//
// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
//
// blockAVX512x8 is original to this repository. K256 holds each group of
// four round constants twice, so K[t] sits at byte 32·(t/4) + 4·(t%4).

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// Reads XCR0, the state components the OS saves; call it only when
// CPUID.1:ECX.OSXSAVE is set.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA flip_mask<>+16(SB)/8, $0x0405060700010203
DATA flip_mask<>+24(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA, $32

DATA K256<>+0(SB)/4, $0x428a2f98
DATA K256<>+4(SB)/4, $0x71374491
DATA K256<>+8(SB)/4, $0xb5c0fbcf
DATA K256<>+12(SB)/4, $0xe9b5dba5
DATA K256<>+16(SB)/4, $0x428a2f98
DATA K256<>+20(SB)/4, $0x71374491
DATA K256<>+24(SB)/4, $0xb5c0fbcf
DATA K256<>+28(SB)/4, $0xe9b5dba5
DATA K256<>+32(SB)/4, $0x3956c25b
DATA K256<>+36(SB)/4, $0x59f111f1
DATA K256<>+40(SB)/4, $0x923f82a4
DATA K256<>+44(SB)/4, $0xab1c5ed5
DATA K256<>+48(SB)/4, $0x3956c25b
DATA K256<>+52(SB)/4, $0x59f111f1
DATA K256<>+56(SB)/4, $0x923f82a4
DATA K256<>+60(SB)/4, $0xab1c5ed5
DATA K256<>+64(SB)/4, $0xd807aa98
DATA K256<>+68(SB)/4, $0x12835b01
DATA K256<>+72(SB)/4, $0x243185be
DATA K256<>+76(SB)/4, $0x550c7dc3
DATA K256<>+80(SB)/4, $0xd807aa98
DATA K256<>+84(SB)/4, $0x12835b01
DATA K256<>+88(SB)/4, $0x243185be
DATA K256<>+92(SB)/4, $0x550c7dc3
DATA K256<>+96(SB)/4, $0x72be5d74
DATA K256<>+100(SB)/4, $0x80deb1fe
DATA K256<>+104(SB)/4, $0x9bdc06a7
DATA K256<>+108(SB)/4, $0xc19bf174
DATA K256<>+112(SB)/4, $0x72be5d74
DATA K256<>+116(SB)/4, $0x80deb1fe
DATA K256<>+120(SB)/4, $0x9bdc06a7
DATA K256<>+124(SB)/4, $0xc19bf174
DATA K256<>+128(SB)/4, $0xe49b69c1
DATA K256<>+132(SB)/4, $0xefbe4786
DATA K256<>+136(SB)/4, $0x0fc19dc6
DATA K256<>+140(SB)/4, $0x240ca1cc
DATA K256<>+144(SB)/4, $0xe49b69c1
DATA K256<>+148(SB)/4, $0xefbe4786
DATA K256<>+152(SB)/4, $0x0fc19dc6
DATA K256<>+156(SB)/4, $0x240ca1cc
DATA K256<>+160(SB)/4, $0x2de92c6f
DATA K256<>+164(SB)/4, $0x4a7484aa
DATA K256<>+168(SB)/4, $0x5cb0a9dc
DATA K256<>+172(SB)/4, $0x76f988da
DATA K256<>+176(SB)/4, $0x2de92c6f
DATA K256<>+180(SB)/4, $0x4a7484aa
DATA K256<>+184(SB)/4, $0x5cb0a9dc
DATA K256<>+188(SB)/4, $0x76f988da
DATA K256<>+192(SB)/4, $0x983e5152
DATA K256<>+196(SB)/4, $0xa831c66d
DATA K256<>+200(SB)/4, $0xb00327c8
DATA K256<>+204(SB)/4, $0xbf597fc7
DATA K256<>+208(SB)/4, $0x983e5152
DATA K256<>+212(SB)/4, $0xa831c66d
DATA K256<>+216(SB)/4, $0xb00327c8
DATA K256<>+220(SB)/4, $0xbf597fc7
DATA K256<>+224(SB)/4, $0xc6e00bf3
DATA K256<>+228(SB)/4, $0xd5a79147
DATA K256<>+232(SB)/4, $0x06ca6351
DATA K256<>+236(SB)/4, $0x14292967
DATA K256<>+240(SB)/4, $0xc6e00bf3
DATA K256<>+244(SB)/4, $0xd5a79147
DATA K256<>+248(SB)/4, $0x06ca6351
DATA K256<>+252(SB)/4, $0x14292967
DATA K256<>+256(SB)/4, $0x27b70a85
DATA K256<>+260(SB)/4, $0x2e1b2138
DATA K256<>+264(SB)/4, $0x4d2c6dfc
DATA K256<>+268(SB)/4, $0x53380d13
DATA K256<>+272(SB)/4, $0x27b70a85
DATA K256<>+276(SB)/4, $0x2e1b2138
DATA K256<>+280(SB)/4, $0x4d2c6dfc
DATA K256<>+284(SB)/4, $0x53380d13
DATA K256<>+288(SB)/4, $0x650a7354
DATA K256<>+292(SB)/4, $0x766a0abb
DATA K256<>+296(SB)/4, $0x81c2c92e
DATA K256<>+300(SB)/4, $0x92722c85
DATA K256<>+304(SB)/4, $0x650a7354
DATA K256<>+308(SB)/4, $0x766a0abb
DATA K256<>+312(SB)/4, $0x81c2c92e
DATA K256<>+316(SB)/4, $0x92722c85
DATA K256<>+320(SB)/4, $0xa2bfe8a1
DATA K256<>+324(SB)/4, $0xa81a664b
DATA K256<>+328(SB)/4, $0xc24b8b70
DATA K256<>+332(SB)/4, $0xc76c51a3
DATA K256<>+336(SB)/4, $0xa2bfe8a1
DATA K256<>+340(SB)/4, $0xa81a664b
DATA K256<>+344(SB)/4, $0xc24b8b70
DATA K256<>+348(SB)/4, $0xc76c51a3
DATA K256<>+352(SB)/4, $0xd192e819
DATA K256<>+356(SB)/4, $0xd6990624
DATA K256<>+360(SB)/4, $0xf40e3585
DATA K256<>+364(SB)/4, $0x106aa070
DATA K256<>+368(SB)/4, $0xd192e819
DATA K256<>+372(SB)/4, $0xd6990624
DATA K256<>+376(SB)/4, $0xf40e3585
DATA K256<>+380(SB)/4, $0x106aa070
DATA K256<>+384(SB)/4, $0x19a4c116
DATA K256<>+388(SB)/4, $0x1e376c08
DATA K256<>+392(SB)/4, $0x2748774c
DATA K256<>+396(SB)/4, $0x34b0bcb5
DATA K256<>+400(SB)/4, $0x19a4c116
DATA K256<>+404(SB)/4, $0x1e376c08
DATA K256<>+408(SB)/4, $0x2748774c
DATA K256<>+412(SB)/4, $0x34b0bcb5
DATA K256<>+416(SB)/4, $0x391c0cb3
DATA K256<>+420(SB)/4, $0x4ed8aa4a
DATA K256<>+424(SB)/4, $0x5b9cca4f
DATA K256<>+428(SB)/4, $0x682e6ff3
DATA K256<>+432(SB)/4, $0x391c0cb3
DATA K256<>+436(SB)/4, $0x4ed8aa4a
DATA K256<>+440(SB)/4, $0x5b9cca4f
DATA K256<>+444(SB)/4, $0x682e6ff3
DATA K256<>+448(SB)/4, $0x748f82ee
DATA K256<>+452(SB)/4, $0x78a5636f
DATA K256<>+456(SB)/4, $0x84c87814
DATA K256<>+460(SB)/4, $0x8cc70208
DATA K256<>+464(SB)/4, $0x748f82ee
DATA K256<>+468(SB)/4, $0x78a5636f
DATA K256<>+472(SB)/4, $0x84c87814
DATA K256<>+476(SB)/4, $0x8cc70208
DATA K256<>+480(SB)/4, $0x90befffa
DATA K256<>+484(SB)/4, $0xa4506ceb
DATA K256<>+488(SB)/4, $0xbef9a3f7
DATA K256<>+492(SB)/4, $0xc67178f2
DATA K256<>+496(SB)/4, $0x90befffa
DATA K256<>+500(SB)/4, $0xa4506ceb
DATA K256<>+504(SB)/4, $0xbef9a3f7
DATA K256<>+508(SB)/4, $0xc67178f2
GLOBL K256<>(SB), RODATA|NOPTR, $512

// TRANSPOSE writes the transpose of the 8×8 matrix of 32-bit words whose
// rows are r0–r7 to t0–t7 (t0 gets word 0 of every row), and clobbers
// r0–r7.
#define TRANSPOSE(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3, t4, t5, t6, t7) \
	VPUNPCKLDQ  r1, r0, t0; \
	VPUNPCKHDQ  r1, r0, t1; \
	VPUNPCKLDQ  r3, r2, t2; \
	VPUNPCKHDQ  r3, r2, t3; \
	VPUNPCKLDQ  r5, r4, t4; \
	VPUNPCKHDQ  r5, r4, t5; \
	VPUNPCKLDQ  r7, r6, t6; \
	VPUNPCKHDQ  r7, r6, t7; \
	VPUNPCKLQDQ t2, t0, r0; \
	VPUNPCKHQDQ t2, t0, r1; \
	VPUNPCKLQDQ t3, t1, r2; \
	VPUNPCKHQDQ t3, t1, r3; \
	VPUNPCKLQDQ t6, t4, r4; \
	VPUNPCKHQDQ t6, t4, r5; \
	VPUNPCKLQDQ t7, t5, r6; \
	VPUNPCKHQDQ t7, t5, r7; \
	VSHUFI32X4  $0, r4, r0, t0; \
	VSHUFI32X4  $3, r4, r0, t4; \
	VSHUFI32X4  $0, r5, r1, t1; \
	VSHUFI32X4  $3, r5, r1, t5; \
	VSHUFI32X4  $0, r6, r2, t2; \
	VSHUFI32X4  $3, r6, r2, t6; \
	VSHUFI32X4  $0, r7, r3, t3; \
	VSHUFI32X4  $3, r7, r3, t7

// LOAD8 loads bytes off to off+31 of the current block of each lane,
// byte-swapped into big-endian words, and transposes them into w0–w7: w0
// gets message word off/4 of every lane.
#define LOAD8(off, w0, w1, w2, w3, w4, w5, w6, w7) \
	VMOVDQU off(R8)(CX*1), Y8; \
	VMOVDQU off(R9)(CX*1), Y9; \
	VMOVDQU off(R10)(CX*1), Y10; \
	VMOVDQU off(R11)(CX*1), Y11; \
	VMOVDQU off(R12)(CX*1), Y12; \
	VMOVDQU off(R13)(CX*1), Y13; \
	VMOVDQU off(SI)(CX*1), Y14; \
	VMOVDQU off(DI)(CX*1), Y15; \
	VPSHUFB flip_mask<>(SB), Y8, Y8; \
	VPSHUFB flip_mask<>(SB), Y9, Y9; \
	VPSHUFB flip_mask<>(SB), Y10, Y10; \
	VPSHUFB flip_mask<>(SB), Y11, Y11; \
	VPSHUFB flip_mask<>(SB), Y12, Y12; \
	VPSHUFB flip_mask<>(SB), Y13, Y13; \
	VPSHUFB flip_mask<>(SB), Y14, Y14; \
	VPSHUFB flip_mask<>(SB), Y15, Y15; \
	TRANSPOSE(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, w0, w1, w2, w3, w4, w5, w6, w7)

// ROUND is round t of every lane, with w holding W[t] and K[t] at K256+k.
// h accumulates T1 = h + K[t] + W[t] + Ch(e, f, g) + Σ1(e), d += T1 is the
// next e, and h += Σ0(a) + Maj(a, b, c) is the next a: the caller renames,
// passing (h, a, b, c, d, e, f, g) to the next round. The terms ready
// soonest are added first, so the chain from e to the next e is four adds
// and logic ops long.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST K256<>+k(SB), h, h; \
	VPADDD      w, h, h; \
	VMOVDQA32   e, Y9; \
	VPTERNLOGD  $0xca, g, f, Y9; \
	VPRORD      $6, e, Y8; \
	VPRORD      $11, e, Y10; \
	VPRORD      $25, e, Y11; \
	VPTERNLOGD  $0x96, Y11, Y10, Y8; \
	VPADDD      Y9, h, h; \
	VPADDD      Y8, h, h; \
	VPADDD      h, d, d; \
	VMOVDQA32   a, Y9; \
	VPTERNLOGD  $0xe8, c, b, Y9; \
	VPRORD      $2, a, Y8; \
	VPRORD      $13, a, Y10; \
	VPRORD      $22, a, Y11; \
	VPTERNLOGD  $0x96, Y11, Y10, Y8; \
	VPADDD      Y9, Y8, Y8; \
	VPADDD      Y8, h, h

// SCHED turns w from W[t-16] into W[t] = W[t-16] + σ0(W[t-15]) + W[t-7] +
// σ1(W[t-2]), read from w15, w7 and w2.
#define SCHED(w, w15, w7, w2) \
	VPRORD     $7, w15, Y12; \
	VPRORD     $18, w15, Y13; \
	VPSRLD     $3, w15, Y14; \
	VPTERNLOGD $0x96, Y14, Y13, Y12; \
	VPADDD     Y12, w, w; \
	VPADDD     w7, w, w; \
	VPRORD     $17, w2, Y12; \
	VPRORD     $19, w2, Y13; \
	VPSRLD     $10, w2, Y14; \
	VPTERNLOGD $0x96, Y14, Y13, Y12; \
	VPADDD     Y12, w, w

// ROUNDS16 is rounds 16j to 16j+15 for j ≥ 1, each computing its W[t] in
// the ring first; k = 128j is their first constant's offset in K256.
#define ROUNDS16(k) \
	SCHED(Y16, Y17, Y25, Y30); \
	ROUND(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y16, k+0); \
	SCHED(Y17, Y18, Y26, Y31); \
	ROUND(Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y17, k+4); \
	SCHED(Y18, Y19, Y27, Y16); \
	ROUND(Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y18, k+8); \
	SCHED(Y19, Y20, Y28, Y17); \
	ROUND(Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y19, k+12); \
	SCHED(Y20, Y21, Y29, Y18); \
	ROUND(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y20, k+32); \
	SCHED(Y21, Y22, Y30, Y19); \
	ROUND(Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y21, k+36); \
	SCHED(Y22, Y23, Y31, Y20); \
	ROUND(Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y22, k+40); \
	SCHED(Y23, Y24, Y16, Y21); \
	ROUND(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y23, k+44); \
	SCHED(Y24, Y25, Y17, Y22); \
	ROUND(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y24, k+64); \
	SCHED(Y25, Y26, Y18, Y23); \
	ROUND(Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y25, k+68); \
	SCHED(Y26, Y27, Y19, Y24); \
	ROUND(Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y26, k+72); \
	SCHED(Y27, Y28, Y20, Y25); \
	ROUND(Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y27, k+76); \
	SCHED(Y28, Y29, Y21, Y26); \
	ROUND(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y28, k+96); \
	SCHED(Y29, Y30, Y22, Y27); \
	ROUND(Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y29, k+100); \
	SCHED(Y30, Y31, Y23, Y28); \
	ROUND(Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y30, k+104); \
	SCHED(Y31, Y16, Y24, Y29); \
	ROUND(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y31, k+108)

// func blockAVX512x8(dig *[8][8]uint32, h *[8]uint32, p *[8][]byte)
// Requires: AVX, AVX2, AVX512F, AVX512VL
//
// Compresses p[k] into dig[k] for each of the eight lanes, every lane
// starting from the chaining value h. len(p[k]) must equal len(p[0]); only
// whole 64-byte blocks are read. Lane k is element k of every Y register,
// so one instruction runs a step of all eight compressions. Register map:
//
//	Y0-Y7     the state words a-h, renamed as the rounds rotate them
//	Y8-Y11    round temporaries     Y12-Y14   schedule temporaries
//	Y16-Y31   the message schedule ring, W[t] in Y(16 + t%16)
//	R8-R13, SI, DI   the lanes' data     CX the block offset     DX the length
//
// Loading a block transposes eight rows (one per lane) into columns (one
// per word) through Y8-Y15; the chaining values spill to the frame for the
// feed-forward. Y16-Y31 need EVEX encoding, and the Go assembler picks it
// for every instruction that names one.
TEXT ·blockAVX512x8(SB), $256-24
	MOVQ         h+8(FP), AX
	VPBROADCASTD (AX), Y0
	VPBROADCASTD 4(AX), Y1
	VPBROADCASTD 8(AX), Y2
	VPBROADCASTD 12(AX), Y3
	VPBROADCASTD 16(AX), Y4
	VPBROADCASTD 20(AX), Y5
	VPBROADCASTD 24(AX), Y6
	VPBROADCASTD 28(AX), Y7
	MOVQ         p+16(FP), AX
	MOVQ         (AX), R8
	MOVQ         24(AX), R9
	MOVQ         48(AX), R10
	MOVQ         72(AX), R11
	MOVQ         96(AX), R12
	MOVQ         120(AX), R13
	MOVQ         144(AX), SI
	MOVQ         168(AX), DI
	MOVQ         8(AX), DX
	ANDQ         $~63, DX
	XORQ         CX, CX
	CMPQ         DX, $0
	JEQ          avxDone

avxLoop:
	VMOVDQU Y0, (SP)
	VMOVDQU Y1, 32(SP)
	VMOVDQU Y2, 64(SP)
	VMOVDQU Y3, 96(SP)
	VMOVDQU Y4, 128(SP)
	VMOVDQU Y5, 160(SP)
	VMOVDQU Y6, 192(SP)
	VMOVDQU Y7, 224(SP)
	LOAD8(0, Y16, Y17, Y18, Y19, Y20, Y21, Y22, Y23)
	LOAD8(32, Y24, Y25, Y26, Y27, Y28, Y29, Y30, Y31)

	ROUND(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y16, 0)
	ROUND(Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y17, 4)
	ROUND(Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y18, 8)
	ROUND(Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y19, 12)
	ROUND(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y20, 32)
	ROUND(Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y21, 36)
	ROUND(Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y22, 40)
	ROUND(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y23, 44)
	ROUND(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y24, 64)
	ROUND(Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y25, 68)
	ROUND(Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y5, Y26, 72)
	ROUND(Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y4, Y27, 76)
	ROUND(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y28, 96)
	ROUND(Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y29, 100)
	ROUND(Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y30, 104)
	ROUND(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y31, 108)
	ROUNDS16(128)
	ROUNDS16(256)
	ROUNDS16(384)

	VPADDD (SP), Y0, Y0
	VPADDD 32(SP), Y1, Y1
	VPADDD 64(SP), Y2, Y2
	VPADDD 96(SP), Y3, Y3
	VPADDD 128(SP), Y4, Y4
	VPADDD 160(SP), Y5, Y5
	VPADDD 192(SP), Y6, Y6
	VPADDD 224(SP), Y7, Y7
	ADDQ   $0x40, CX
	CMPQ   CX, DX
	JNE    avxLoop

avxDone:
	TRANSPOSE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	MOVQ       dig+0(FP), AX
	VMOVDQU    Y8, (AX)
	VMOVDQU    Y9, 32(AX)
	VMOVDQU    Y10, 64(AX)
	VMOVDQU    Y11, 96(AX)
	VMOVDQU    Y12, 128(AX)
	VMOVDQU    Y13, 160(AX)
	VMOVDQU    Y14, 192(AX)
	VMOVDQU    Y15, 224(AX)
	VZEROUPPER
	RET
