#include "textflag.h"

// Register use in the sweep kernels:
//
//	R8  rowPtr        R9  offs          R10 vals
//	BX  row r         R11 last row      SI  src group     DI  dst group
//	AX, R12 scratch                     K1  column lanes  K3  restart lanes
//
// The quad kernels keep the four rows' nonzero indices in DX, R13, R14 and
// R15, their common nonzero count in CX, and each row's nonzero end and
// panel row offset in the 64-byte frame. sweep16AVX512 uses CX for the
// nonzero index, DX for its end, R12 for the stride and R13 for r*stride.
//
// The macros stand before the first TEXT because vet's asmdecl does not
// expand them and would check their argument offsets against whichever
// function precedes them. The quad kernels share sweep16AVX512's argument
// layout, which asmdecl does check.

// SWEEP_ROW(i, START, END, OFF) sets up chain i of a quad: its row is
// min(r+i, last), START its first nonzero, END(SP) and OFF(SP) the frame
// slots of its nonzero end and panel row offset; CX drops to its nonzero
// count when that is smaller.
#define SWEEP_ROW(i, START, END, OFF) \
	LEAQ    i(BX), AX; \
	CMPQ    AX, R11; \
	CMOVQGT R11, AX; \
	MOVQ    (R8)(AX*8), START; \
	MOVQ    8(R8)(AX*8), R12; \
	MOVQ    R12, END(SP); \
	SUBQ    START, R12; \
	CMPQ    R12, CX; \
	CMOVQLT R12, CX; \
	IMULQ   stride+56(FP), AX; \
	MOVQ    AX, OFF(SP)

// SWEEP_NZ(BCAST, B, P, I, A) accumulates nonzero I into A: A += vals[I] ×
// the group's lanes of panel row offs[I], one multiply then one add.
#define SWEEP_NZ(BCAST, B, P, I, A) \
	MOVL     (R9)(I*4), AX; \
	BCAST    (R10)(I*8), B; \
	VMULPD.Z (SI)(AX*8), B, K1, P; \
	VADDPD   P, A, A; \
	INCQ     I

// SWEEP_TAIL runs chain I's nonzeros past the common count into A, then
// jumps to next.
#define SWEEP_TAIL(BCAST, B, P, I, A, END, loop, next) \
loop: \
	CMPQ I, END(SP); \
	JGE  next; \
	SWEEP_NZ(BCAST, B, P, I, A); \
	JMP  loop

// SWEEP_STORE finishes a chain's row at frame slot OFF: scale by c, add the
// restart mass under K3, store under K1, and fold |next − cur| into DM and
// |next| into AM as unsigned maxima of sign-cleared bits.
#define SWEEP_STORE(A, P, OFF, DM, AM, CC, RS, SG) \
	MOVQ      OFF(SP), AX; \
	VMULPD    CC, A, A; \
	VADDPD    RS, A, K3, A; \
	VMOVUPD   A, K1, (DI)(AX*1); \
	VMOVUPD.Z (SI)(AX*1), K1, P; \
	VSUBPD    P, A, P; \
	VPANDQ    SG, P, P; \
	VPMAXUQ   P, DM, DM; \
	VPANDQ    SG, A, A; \
	VPMAXUQ   A, AM, AM

// SWEEP_QUAD is the body of the row-interleaved kernels, written once over
// the register names of one register width: BCAST broadcasts a float64 to
// every lane, B and P are scratch, A0-A3 the four rows' accumulators, DM
// and AM the folded maxima, CC, RS and SG hold c, rst and the sign-clear
// mask. Rows go four at a time, r to r+3 clamped to the last row: the four
// accumulator chains run over the rows' common nonzero count, then each
// row's remaining nonzeros run alone, so every row accumulates from +0 in
// nonzero order. A clamped row repeats its neighbour and stores the same
// bits.
#define SWEEP_QUAD(BCAST, B, P, A0, A1, A2, A3, DM, AM, CC, RS, SG) \
	MOVQ         rowPtr+0(FP), R8; \
	MOVQ         offs+8(FP), R9; \
	MOVQ         vals+16(FP), R10; \
	MOVQ         lo+24(FP), BX; \
	MOVQ         hi+32(FP), R11; \
	MOVQ         src+40(FP), SI; \
	MOVQ         dst+48(FP), DI; \
	BCAST        c+64(FP), CC; \
	BCAST        rst+72(FP), RS; \
	MOVQ         $0x7fffffffffffffff, AX; \
	VPBROADCASTQ AX, SG; \
	MOVQ         lanes+80(FP), AX; \
	KMOVW        AX, K1; \
	MOVQ         rmask+88(FP), AX; \
	KMOVW        AX, K3; \
	MOVQ         dmax+96(FP), AX; \
	VMOVDQU64.Z  (AX), K1, DM; \
	MOVQ         amax+104(FP), AX; \
	VMOVDQU64.Z  (AX), K1, AM; \
	DECQ         R11; \
	CMPQ         BX, R11; \
	JGT          done; \
quad: \
	MOVQ         $0x7fffffffffffffff, CX; \
	SWEEP_ROW(0, DX, 0, 32); \
	SWEEP_ROW(1, R13, 8, 40); \
	SWEEP_ROW(2, R14, 16, 48); \
	SWEEP_ROW(3, R15, 24, 56); \
	VPXORQ       A0, A0, A0; \
	VPXORQ       A1, A1, A1; \
	VPXORQ       A2, A2, A2; \
	VPXORQ       A3, A3, A3; \
	TESTQ        CX, CX; \
	JZ           tail0; \
common: \
	SWEEP_NZ(BCAST, B, P, DX, A0); \
	SWEEP_NZ(BCAST, B, P, R13, A1); \
	SWEEP_NZ(BCAST, B, P, R14, A2); \
	SWEEP_NZ(BCAST, B, P, R15, A3); \
	DECQ         CX; \
	JNZ          common; \
	SWEEP_TAIL(BCAST, B, P, DX, A0, 0, tail0, tail1); \
	SWEEP_TAIL(BCAST, B, P, R13, A1, 8, tail1, tail2); \
	SWEEP_TAIL(BCAST, B, P, R14, A2, 16, tail2, tail3); \
	SWEEP_TAIL(BCAST, B, P, R15, A3, 24, tail3, store); \
store: \
	SWEEP_STORE(A0, P, 32, DM, AM, CC, RS, SG); \
	SWEEP_STORE(A1, P, 40, DM, AM, CC, RS, SG); \
	SWEEP_STORE(A2, P, 48, DM, AM, CC, RS, SG); \
	SWEEP_STORE(A3, P, 56, DM, AM, CC, RS, SG); \
	ADDQ         $4, BX; \
	CMPQ         BX, R11; \
	JLE          quad; \
done: \
	MOVQ         dmax+96(FP), AX; \
	VMOVDQU64    DM, K1, (AX); \
	MOVQ         amax+104(FP), AX; \
	VMOVDQU64    AM, K1, (AX); \
	VZEROUPPER

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

// func sweepQuadX(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)
TEXT ·sweepQuadX(SB), NOSPLIT, $64-112
	// There is no XMM VBROADCASTSD; VMOVDDUP fills both lanes.
	SWEEP_QUAD(VMOVDDUP, X0, X1, X2, X3, X4, X5, X6, X7, X12, X13, X14)
	RET

// func sweepQuadY(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)
TEXT ·sweepQuadY(SB), NOSPLIT, $64-112
	SWEEP_QUAD(VBROADCASTSD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y12, Y13, Y14)
	RET

// func sweepQuadZ(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)
TEXT ·sweepQuadZ(SB), NOSPLIT, $64-112
	SWEEP_QUAD(VBROADCASTSD, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z12, Z13, Z14)
	RET

// func sweep16AVX512(rowPtr *int, offs *int32, vals *float64, lo, hi int, src, dst *float64, stride int, c, rst float64, lanes, rmask uint64, dmax, amax *uint64)
TEXT ·sweep16AVX512(SB), NOSPLIT, $0-112
	MOVQ rowPtr+0(FP), R8
	MOVQ offs+8(FP), R9
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
	MOVL         (R9)(CX*4), AX
	VBROADCASTSD (R10)(CX*8), Z0
	VMULPD.Z     (SI)(AX*8), Z0, K1, Z4
	VMULPD.Z     64(SI)(AX*8), Z0, K2, Z5
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
