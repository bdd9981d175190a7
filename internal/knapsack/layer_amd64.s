#include "textflag.h"

DATA dpNegInf<>+0(SB)/8, $0xfff0000000000000
GLOBL dpNegInf<>(SB), RODATA|NOPTR, $8
DATA dpOne<>+0(SB)/8, $0x3ff0000000000000
GLOBL dpOne<>(SB), RODATA|NOPTR, $8

// One accumulator's step at point k: v = prev cells + perf[k] (one IEEE
// add, no FMA), mask = v > best (ordered, quiet: false on NaN and on
// equality), then the value and the point index are blended in under it.
#define STEP(off, best, idx) \
	VADDPD    off(DX), Y12, Y8   \
	VCMPPD    $0x1E, best, Y8, Y9 \
	VBLENDVPD Y9, Y8, best, best \
	VBLENDVPD Y9, Y13, idx, idx

// func blocksAVX2(prev []float64, cost []int, perf, layer []float64, cho []uint16)
//
// len(layer)/16 blocks of 16 levels. Y0-Y3 hold the blocks' best values,
// Y4-Y7 the best points (as float64: exact to 2^53, and one convert and
// one pack narrow them to uint16), Y12 perf[k], Y13 k, Y14 -Inf, Y15 1.
TEXT ·blocksAVX2(SB), NOSPLIT, $0-120
	MOVQ prev_base+0(FP), SI
	MOVQ cost_base+24(FP), R10
	MOVQ cost_len+32(FP), R12
	MOVQ perf_base+48(FP), R11
	MOVQ layer_base+72(FP), DI
	MOVQ layer_len+80(FP), R9
	MOVQ cho_base+96(FP), R8
	SHRQ $4, R9
	JZ   done
	TESTQ R12, R12
	JZ   done

	// SI = the previous layer at the first level: past the history.
	MOVQ -8(R10)(R12*8), AX
	LEAQ (SI)(AX*8), SI
	VBROADCASTSD dpNegInf<>(SB), Y14
	VBROADCASTSD dpOne<>(SB), Y15

	PCALIGN $32
block:
	VMOVAPD Y14, Y0
	VMOVAPD Y14, Y1
	VMOVAPD Y14, Y2
	VMOVAPD Y14, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	VXORPD  Y13, Y13, Y13
	XORQ    CX, CX

	PCALIGN $32
point:
	MOVQ (R10)(CX*8), AX
	SHLQ $3, AX
	MOVQ SI, DX
	SUBQ AX, DX
	VBROADCASTSD (R11)(CX*8), Y12
	STEP(0, Y0, Y4)
	STEP(32, Y1, Y5)
	STEP(64, Y2, Y6)
	STEP(96, Y3, Y7)
	VADDPD Y15, Y13, Y13
	INCQ   CX
	CMPQ   CX, R12
	JLT    point

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VCVTTPD2DQY Y4, X4
	VCVTTPD2DQY Y5, X5
	VCVTTPD2DQY Y6, X6
	VCVTTPD2DQY Y7, X7
	VPACKUSDW X5, X4, X4
	VPACKUSDW X7, X6, X6
	VMOVDQU X4, (R8)
	VMOVDQU X6, 16(R8)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $32, R8
	DECQ R9
	JNZ  block

done:
	VZEROUPPER
	RET

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
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
