//go:build !purego

#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 is OSXSAVE, bit 28 is AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(a float64, x, y []float64)
//
// Each element is x[i]·a, rounded, plus y[i], rounded, with the operands in
// the order Go's compiled loop uses (x first in the product, the product
// first in the sum), so even a NaN's payload is the pure-Go loop's.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI

loop16:
	CMPQ    CX, $16
	JLT     loop4
	VMOVUPD 0(SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  0(DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

loop4:
	CMPQ    CX, $4
	JLT     loop1
	VMOVUPD 0(SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  0(DI), Y1, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     loop4

loop1:
	TESTQ  CX, CX
	JEQ    done
	VMOVSD 0(SI), X1
	VMULSD X0, X1, X1
	VADDSD 0(DI), X1, X1
	VMOVSD X1, 0(DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    loop1

done:
	VZEROUPPER
	RET
