#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Register use in both sweep kernels:
//
//	R8  rowPtr        R9  colIdx        R10 vals
//	BX  row r         R11 hi            R12 stride (bytes per panel row)
//	SI  src group     DI  dst group     R13 r*stride
//	CX  nonzero i     DX  rowPtr[r+1]   AX  scratch
//	Z0  vals[i] broadcast               Z2, Z3   row accumulators
//	Z4, Z5 scratch                      Z6, Z7   max |next − cur| bits
//	Z8, Z9 max |next| bits              Z12 c    Z13 rst   Z14 sign-clear mask
//	K1, K2 column lanes                 K3, K4   restart lanes

// func sweep8AVX512(rowPtr, colIdx *int, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)
TEXT ·sweep8AVX512(SB), NOSPLIT, $0-112
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), R9
	MOVQ vals+16(FP), R10
	MOVQ lo+24(FP), BX
	MOVQ hi+32(FP), R11
	MOVQ src+40(FP), SI
	MOVQ dst+48(FP), DI
	MOVQ stride+56(FP), R12
	VBROADCASTSD c+64(FP), Z12
	VBROADCASTSD rst+72(FP), Z13
	MOVQ $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z14
	MOVQ lanes+80(FP), AX
	KMOVW AX, K1
	MOVQ rmask+88(FP), AX
	KMOVW AX, K3
	MOVQ dmax+96(FP), AX
	VMOVDQU64.Z (AX), K1, Z6
	MOVQ amax+104(FP), AX
	VMOVDQU64.Z (AX), K1, Z8
	CMPQ BX, R11
	JGE  done8
	MOVQ BX, R13
	IMULQ R12, R13

row8:
	MOVQ   (R8)(BX*8), CX
	MOVQ   8(R8)(BX*8), DX
	VPXORQ Z2, Z2, Z2
	CMPQ   CX, DX
	JGE    scale8

nz8:
	MOVQ         (R9)(CX*8), AX
	IMULQ        R12, AX
	VBROADCASTSD (R10)(CX*8), Z0
	VMULPD.Z     (SI)(AX*1), Z0, K1, Z4
	VADDPD       Z4, Z2, Z2
	INCQ         CX
	CMPQ         CX, DX
	JLT          nz8

scale8:
	VMULPD   Z12, Z2, Z2
	VADDPD   Z13, Z2, K3, Z2
	VMOVUPD  Z2, K1, (DI)(R13*1)
	VMOVUPD.Z (SI)(R13*1), K1, Z4
	VSUBPD   Z4, Z2, Z4
	VPANDQ   Z14, Z4, Z4
	VPMAXUQ  Z4, Z6, Z6
	VPANDQ   Z14, Z2, Z2
	VPMAXUQ  Z2, Z8, Z8
	ADDQ     R12, R13
	INCQ     BX
	CMPQ     BX, R11
	JLT      row8

done8:
	MOVQ dmax+96(FP), AX
	VMOVDQU64 Z6, K1, (AX)
	MOVQ amax+104(FP), AX
	VMOVDQU64 Z8, K1, (AX)
	VZEROUPPER
	RET

// func sweep16AVX512(rowPtr, colIdx *int, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)
TEXT ·sweep16AVX512(SB), NOSPLIT, $0-112
	MOVQ rowPtr+0(FP), R8
	MOVQ colIdx+8(FP), R9
	MOVQ vals+16(FP), R10
	MOVQ lo+24(FP), BX
	MOVQ hi+32(FP), R11
	MOVQ src+40(FP), SI
	MOVQ dst+48(FP), DI
	MOVQ stride+56(FP), R12
	VBROADCASTSD c+64(FP), Z12
	VBROADCASTSD rst+72(FP), Z13
	MOVQ $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z14
	MOVQ lanes+80(FP), AX
	KMOVW AX, K1
	SHRQ $8, AX
	KMOVW AX, K2
	MOVQ rmask+88(FP), AX
	KMOVW AX, K3
	SHRQ $8, AX
	KMOVW AX, K4
	MOVQ dmax+96(FP), AX
	VMOVDQU64.Z (AX), K1, Z6
	VMOVDQU64.Z 64(AX), K2, Z7
	MOVQ amax+104(FP), AX
	VMOVDQU64.Z (AX), K1, Z8
	VMOVDQU64.Z 64(AX), K2, Z9
	CMPQ BX, R11
	JGE  done16
	MOVQ BX, R13
	IMULQ R12, R13

row16:
	MOVQ   (R8)(BX*8), CX
	MOVQ   8(R8)(BX*8), DX
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	CMPQ   CX, DX
	JGE    scale16

nz16:
	MOVQ         (R9)(CX*8), AX
	IMULQ        R12, AX
	VBROADCASTSD (R10)(CX*8), Z0
	VMULPD.Z     (SI)(AX*1), Z0, K1, Z4
	VMULPD.Z     64(SI)(AX*1), Z0, K2, Z5
	VADDPD       Z4, Z2, Z2
	VADDPD       Z5, Z3, Z3
	INCQ         CX
	CMPQ         CX, DX
	JLT          nz16

scale16:
	VMULPD    Z12, Z2, Z2
	VMULPD    Z12, Z3, Z3
	VADDPD    Z13, Z2, K3, Z2
	VADDPD    Z13, Z3, K4, Z3
	VMOVUPD   Z2, K1, (DI)(R13*1)
	VMOVUPD   Z3, K2, 64(DI)(R13*1)
	VMOVUPD.Z (SI)(R13*1), K1, Z4
	VMOVUPD.Z 64(SI)(R13*1), K2, Z5
	VSUBPD    Z4, Z2, Z4
	VSUBPD    Z5, Z3, Z5
	VPANDQ    Z14, Z4, Z4
	VPANDQ    Z14, Z5, Z5
	VPMAXUQ   Z4, Z6, Z6
	VPMAXUQ   Z5, Z7, Z7
	VPANDQ    Z14, Z2, Z2
	VPANDQ    Z14, Z3, Z3
	VPMAXUQ   Z2, Z8, Z8
	VPMAXUQ   Z3, Z9, Z9
	ADDQ      R12, R13
	INCQ      BX
	CMPQ      BX, R11
	JLT       row16

done16:
	MOVQ dmax+96(FP), AX
	VMOVDQU64 Z6, K1, (AX)
	VMOVDQU64 Z7, K2, 64(AX)
	MOVQ amax+104(FP), AX
	VMOVDQU64 Z8, K1, (AX)
	VMOVDQU64 Z9, K2, 64(AX)
	VZEROUPPER
	RET
