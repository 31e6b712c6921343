//go:build amd64 && !race

#include "textflag.h"

// func loadWords(dst []byte, src []atomic.Uint64)
TEXT ·loadWords(SB), NOSPLIT, $0-48
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	src_base+24(FP), SI
blocks:
	CMPQ	CX, $16
	JB	word
	MOVOU	(SI), X0
	MOVOU	X0, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$16, CX
	JMP	blocks
word:
	CMPQ	CX, $8
	JB	tail
	MOVQ	(SI), AX
	MOVQ	AX, (DI)
	ADDQ	$8, SI
	ADDQ	$8, DI
	SUBQ	$8, CX
tail:
	// 1-7 bytes left: load their whole word and scatter it from the low
	// byte up, stopping at len(dst).
	TESTQ	CX, CX
	JZ	done
	MOVQ	(SI), AX
scatter:
	MOVB	AL, (DI)
	SHRQ	$8, AX
	INCQ	DI
	DECQ	CX
	JNZ	scatter
done:
	RET
