//go:build !purego

#include "textflag.h"

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	// Leaf 0: the highest standard leaf must reach 7.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	// Leaf 1, ECX bit 27: OSXSAVE, so XGETBV may run.
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x08000000, CX
	JEQ   no
	// Leaf 7, subleaf 0, EBX bit 16: AVX512F.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00010000, BX
	JEQ   no
	// XCR0 bits 1, 2, 5, 6 and 7: the OS saves XMM, YMM, opmask, the upper
	// halves of ZMM0–15 and ZMM16–31.
	XORL   CX, CX
	XGETBV
	ANDL   $0xe6, AX
	CMPL   AX, $0xe6
	JNE    no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// Both tiles sum each output exactly as axpyAVX does: from +0, one listed
// column at a time in the list's order, each term Wᵀ[k]·x[k] rounded by a
// VMULPD (the weight the first source) and then added by a VADDPD (the
// product the first source) — never a fused multiply-add. The bias is then
// added (accumulator first) and the ReLU is VMAXPD against +0 as the second
// source, which returns +0 for NaN, −0 and every negative: relu1's result.
// Each accumulator stays in a register until the single store.

// MAC4 adds one row's products to its four accumulators: xb is the row's
// x[k] broadcast, Z16–Z19 hold Wᵀ[k]'s 32 outputs of the tile.
#define MAC4(xb, a0, a1, a2, a3) \
	VMULPD xb, Z16, Z24; \
	VMULPD xb, Z17, Z25; \
	VMULPD xb, Z18, Z26; \
	VMULPD xb, Z19, Z27; \
	VADDPD a0, Z24, a0;  \
	VADDPD a1, Z25, a1;  \
	VADDPD a2, Z26, a2;  \
	VADDPD a3, Z27, a3

// FINISH4 adds the bias (Z16–Z19) to one row's four accumulators; RELU4
// clamps them at +0 (Z31).
#define FINISH4(a0, a1, a2, a3) \
	VADDPD Z16, a0, a0; \
	VADDPD Z17, a1, a1; \
	VADDPD Z18, a2, a2; \
	VADDPD Z19, a3, a3

#define RELU4(a0, a1, a2, a3) \
	VMAXPD Z31, a0, a0; \
	VMAXPD Z31, a1, a1; \
	VMAXPD Z31, a2, a2; \
	VMAXPD Z31, a3, a3

// STORE4 writes one row's four accumulators to the tile's outputs: ptr is
// the row's first output, R12 the tile's byte offset in it.
#define STORE4(ptr, a0, a1, a2, a3) \
	VMOVUPD a0, 0(ptr)(R12*1);   \
	VMOVUPD a1, 64(ptr)(R12*1);  \
	VMOVUPD a2, 128(ptr)(R12*1); \
	VMOVUPD a3, 192(ptr)(R12*1)

// func tile4(wt *float64, out int, cols []uint32, x, y *[4]*float64, b *float64, relu bool)
//
// Four rows × 32 outputs per tile, 16 ZMM accumulators (row r's are
// Z4r–Z4r+3), over the columns cols lists; out is a positive multiple of
// 32. The rows share every listed column: a column where a row's x[k] is
// 0 adds that row a zero.
TEXT ·tile4(SB), NOSPLIT, $0-65
	MOVQ   x+40(FP), AX
	MOVQ   0(AX), R8
	MOVQ   8(AX), R9
	MOVQ   16(AX), R10
	MOVQ   24(AX), R11
	MOVQ   out+8(FP), DX
	SHLQ   $3, DX            // bytes per row of Wᵀ and of y
	XORQ   R12, R12          // the tile's byte offset
	VPXORQ Z31, Z31, Z31

tile:
	CMPQ   R12, DX
	JGE    done
	MOVQ   wt+0(FP), DI
	ADDQ   R12, DI
	MOVQ   cols_base+16(FP), SI
	MOVQ   cols_len+24(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

col:
	TESTQ        CX, CX
	JEQ          finish
	// Fetch the tile's Wᵀ chunk of the column eight ahead in the list: the
	// chunks are 8·out bytes apart, a stride the hardware prefetcher
	// misses, and the 768→256 layer runs about 1.3× faster with it.
	CMPQ         CX, $8
	JLE          load
	MOVL         32(SI), R13
	IMULQ        DX, R13
	PREFETCHT0   0(DI)(R13*1)
	PREFETCHT0   64(DI)(R13*1)
	PREFETCHT0   128(DI)(R13*1)
	PREFETCHT0   192(DI)(R13*1)

load:
	MOVL         (SI), AX
	MOVQ         AX, BX
	IMULQ        DX, BX
	VMOVUPD      0(DI)(BX*1), Z16
	VMOVUPD      64(DI)(BX*1), Z17
	VMOVUPD      128(DI)(BX*1), Z18
	VMOVUPD      192(DI)(BX*1), Z19
	VBROADCASTSD (R8)(AX*8), Z20
	VBROADCASTSD (R9)(AX*8), Z21
	VBROADCASTSD (R10)(AX*8), Z22
	VBROADCASTSD (R11)(AX*8), Z23
	MAC4(Z20, Z0, Z1, Z2, Z3)
	MAC4(Z21, Z4, Z5, Z6, Z7)
	MAC4(Z22, Z8, Z9, Z10, Z11)
	MAC4(Z23, Z12, Z13, Z14, Z15)
	ADDQ         $4, SI
	DECQ         CX
	JMP          col

finish:
	MOVQ    b+56(FP), BX
	VMOVUPD 0(BX)(R12*1), Z16
	VMOVUPD 64(BX)(R12*1), Z17
	VMOVUPD 128(BX)(R12*1), Z18
	VMOVUPD 192(BX)(R12*1), Z19
	FINISH4(Z0, Z1, Z2, Z3)
	FINISH4(Z4, Z5, Z6, Z7)
	FINISH4(Z8, Z9, Z10, Z11)
	FINISH4(Z12, Z13, Z14, Z15)
	CMPB    relu+64(FP), $0
	JEQ     store
	RELU4(Z0, Z1, Z2, Z3)
	RELU4(Z4, Z5, Z6, Z7)
	RELU4(Z8, Z9, Z10, Z11)
	RELU4(Z12, Z13, Z14, Z15)

store:
	MOVQ y+48(FP), AX
	MOVQ 0(AX), BX
	STORE4(BX, Z0, Z1, Z2, Z3)
	MOVQ 8(AX), BX
	STORE4(BX, Z4, Z5, Z6, Z7)
	MOVQ 16(AX), BX
	STORE4(BX, Z8, Z9, Z10, Z11)
	MOVQ 24(AX), BX
	STORE4(BX, Z12, Z13, Z14, Z15)
	ADDQ $256, R12
	JMP  tile

done:
	VZEROUPPER
	RET

// func tile1(wt *float64, out int, cols []uint32, x, y, b *float64, relu bool)
//
// One row × 64 outputs per tile, 8 ZMM accumulators (Z0–Z7), over the
// columns cols lists; out is a positive multiple of 32, and an odd
// multiple ends in one 32-output tile (Z0–Z3).
TEXT ·tile1(SB), NOSPLIT, $0-65
	MOVQ   x+40(FP), R8
	MOVQ   out+8(FP), DX
	SHLQ   $3, DX
	XORQ   R12, R12
	VPXORQ Z31, Z31, Z31

wide:
	MOVQ   DX, AX
	SUBQ   R12, AX
	CMPQ   AX, $512
	JLT    narrow
	MOVQ   wt+0(FP), DI
	ADDQ   R12, DI
	MOVQ   cols_base+16(FP), SI
	MOVQ   cols_len+24(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

wcol:
	TESTQ        CX, CX
	JEQ          wfinish
	MOVL         (SI), AX
	MOVQ         AX, BX
	IMULQ        DX, BX
	VBROADCASTSD (R8)(AX*8), Z20
	VMOVUPD      0(DI)(BX*1), Z16
	VMOVUPD      64(DI)(BX*1), Z17
	VMOVUPD      128(DI)(BX*1), Z18
	VMOVUPD      192(DI)(BX*1), Z19
	MAC4(Z20, Z0, Z1, Z2, Z3)
	VMOVUPD      256(DI)(BX*1), Z16
	VMOVUPD      320(DI)(BX*1), Z17
	VMOVUPD      384(DI)(BX*1), Z18
	VMOVUPD      448(DI)(BX*1), Z19
	MAC4(Z20, Z4, Z5, Z6, Z7)
	ADDQ         $4, SI
	DECQ         CX
	JMP          wcol

wfinish:
	MOVQ    b+56(FP), BX
	VMOVUPD 0(BX)(R12*1), Z16
	VMOVUPD 64(BX)(R12*1), Z17
	VMOVUPD 128(BX)(R12*1), Z18
	VMOVUPD 192(BX)(R12*1), Z19
	FINISH4(Z0, Z1, Z2, Z3)
	VMOVUPD 256(BX)(R12*1), Z16
	VMOVUPD 320(BX)(R12*1), Z17
	VMOVUPD 384(BX)(R12*1), Z18
	VMOVUPD 448(BX)(R12*1), Z19
	FINISH4(Z4, Z5, Z6, Z7)
	CMPB    relu+64(FP), $0
	JEQ     wstore
	RELU4(Z0, Z1, Z2, Z3)
	RELU4(Z4, Z5, Z6, Z7)

wstore:
	MOVQ y+48(FP), BX
	STORE4(BX, Z0, Z1, Z2, Z3)
	ADDQ $256, R12
	STORE4(BX, Z4, Z5, Z6, Z7)
	ADDQ $256, R12
	JMP  wide

narrow:
	TESTQ  AX, AX
	JEQ    done1
	MOVQ   wt+0(FP), DI
	ADDQ   R12, DI
	MOVQ   cols_base+16(FP), SI
	MOVQ   cols_len+24(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

ncol:
	TESTQ        CX, CX
	JEQ          nfinish
	MOVL         (SI), AX
	MOVQ         AX, BX
	IMULQ        DX, BX
	VBROADCASTSD (R8)(AX*8), Z20
	VMOVUPD      0(DI)(BX*1), Z16
	VMOVUPD      64(DI)(BX*1), Z17
	VMOVUPD      128(DI)(BX*1), Z18
	VMOVUPD      192(DI)(BX*1), Z19
	MAC4(Z20, Z0, Z1, Z2, Z3)
	ADDQ         $4, SI
	DECQ         CX
	JMP          ncol

nfinish:
	MOVQ    b+56(FP), BX
	VMOVUPD 0(BX)(R12*1), Z16
	VMOVUPD 64(BX)(R12*1), Z17
	VMOVUPD 128(BX)(R12*1), Z18
	VMOVUPD 192(BX)(R12*1), Z19
	FINISH4(Z0, Z1, Z2, Z3)
	CMPB    relu+64(FP), $0
	JEQ     nstore
	RELU4(Z0, Z1, Z2, Z3)

nstore:
	MOVQ y+48(FP), BX
	STORE4(BX, Z0, Z1, Z2, Z3)

done1:
	VZEROUPPER
	RET
