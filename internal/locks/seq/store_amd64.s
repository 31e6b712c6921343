//go:build amd64 && !race

#include "textflag.h"

// func Store(p *atomic.Uint64, v uint64)
TEXT ·Store(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), AX
	MOVQ	v+8(FP), BX
	MOVQ	BX, (AX)
	RET

// func storeWords(dst []atomic.Uint64, src []byte)
TEXT ·storeWords(SB), NOSPLIT, $0-48
	MOVQ	dst_base+0(FP), DI
	MOVQ	src_base+24(FP), SI
	MOVQ	src_len+32(FP), CX
words:
	CMPQ	CX, $8
	JB	tail
	MOVQ	(SI), AX
	MOVQ	AX, (DI)
	ADDQ	$8, SI
	ADDQ	$8, DI
	SUBQ	$8, CX
	JMP	words
tail:
	// 1-7 bytes left: gather them from the last down, so src[0] ends in
	// the low byte and the word's high bytes stay zero.
	TESTQ	CX, CX
	JZ	done
	XORQ	AX, AX
gather:
	SHLQ	$8, AX
	MOVBQZX	-1(SI)(CX*1), BX
	ORQ	BX, AX
	DECQ	CX
	JNZ	gather
	MOVQ	AX, (DI)
done:
	RET
