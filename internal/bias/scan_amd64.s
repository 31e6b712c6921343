//go:build amd64 && !race

#include "textflag.h"

// func scanFor(s []atomic.Uint64, key uint64) int
//
// X8 holds ^genMask in both lanes, X9 the key, X12 zero. A 16-word block is
// eight 16-byte loads: their OR, masked, is zero when no word in the block
// holds an identity, and the block is skipped. Otherwise each pair of words
// is masked and compared with the key one 32-bit half at a time, and the
// PSHUFD/PAND folds the halves so a lane matches only when both do. Only a
// block with a matching lane is searched, vector by vector, for the first.
TEXT ·scanFor(SB), NOSPLIT, $0-40
	MOVQ	s_base+0(FP), SI
	MOVQ	s_len+8(FP), CX
	MOVQ	key+24(FP), AX
	MOVQ	$0xFFFFFFFFFFFF0000, R8
	MOVQ	R8, X8
	PUNPCKLQDQ	X8, X8
	MOVQ	AX, X9
	PUNPCKLQDQ	X9, X9
	PXOR	X12, X12
	XORQ	DX, DX
	// Key zero is an empty slot's identity, which the filter skips.
	TESTQ	AX, AX
	JZ	tail

block:
	LEAQ	16(DX), BX
	CMPQ	BX, CX
	JA	tail
	LEAQ	(SI)(DX*8), DI
	MOVOU	0(DI), X0
	MOVOU	16(DI), X1
	MOVOU	32(DI), X2
	MOVOU	48(DI), X3
	MOVOU	64(DI), X4
	MOVOU	80(DI), X5
	MOVOU	96(DI), X6
	MOVOU	112(DI), X7
	MOVO	X0, X10
	POR	X1, X10
	MOVO	X2, X11
	POR	X3, X11
	POR	X4, X10
	POR	X5, X11
	POR	X6, X10
	POR	X7, X11
	POR	X11, X10
	PAND	X8, X10
	PCMPEQL	X12, X10
	PMOVMSKB	X10, R10
	CMPL	R10, $0xFFFF
	JEQ	next

	PAND	X8, X0
	PCMPEQL	X9, X0
	PSHUFD	$0xB1, X0, X13
	PAND	X13, X0
	PAND	X8, X1
	PCMPEQL	X9, X1
	PSHUFD	$0xB1, X1, X13
	PAND	X13, X1
	PAND	X8, X2
	PCMPEQL	X9, X2
	PSHUFD	$0xB1, X2, X13
	PAND	X13, X2
	PAND	X8, X3
	PCMPEQL	X9, X3
	PSHUFD	$0xB1, X3, X13
	PAND	X13, X3
	PAND	X8, X4
	PCMPEQL	X9, X4
	PSHUFD	$0xB1, X4, X13
	PAND	X13, X4
	PAND	X8, X5
	PCMPEQL	X9, X5
	PSHUFD	$0xB1, X5, X13
	PAND	X13, X5
	PAND	X8, X6
	PCMPEQL	X9, X6
	PSHUFD	$0xB1, X6, X13
	PAND	X13, X6
	PAND	X8, X7
	PCMPEQL	X9, X7
	PSHUFD	$0xB1, X7, X13
	PAND	X13, X7
	MOVO	X0, X10
	POR	X1, X10
	MOVO	X2, X11
	POR	X3, X11
	POR	X4, X10
	POR	X5, X11
	POR	X6, X10
	POR	X7, X11
	POR	X11, X10
	PMOVMSKB	X10, R10
	TESTL	R10, R10
	JNZ	match

next:
	MOVQ	BX, DX
	JMP	block

match:
	// Some lane of the block matched: find the first, two words a vector.
	PMOVMSKB	X0, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X1, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X2, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X3, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X4, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X5, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X6, R10
	TESTL	R10, R10
	JNZ	lane
	ADDQ	$2, DX
	PMOVMSKB	X7, R10

lane:
	// R10 has the low byte set when the vector's first word matched,
	// only the high byte when its second did.
	BSFL	R10, R10
	SHRL	$3, R10
	ADDQ	R10, DX
	JMP	found

tail:
	CMPQ	DX, CX
	JAE	found
	MOVQ	(SI)(DX*8), R11
	ANDQ	R8, R11
	CMPQ	R11, AX
	JEQ	found
	INCQ	DX
	JMP	tail

found:
	MOVQ	DX, ret+32(FP)
	RET
