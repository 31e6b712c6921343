#include "textflag.h"

// func Prefetch(p unsafe.Pointer, n int)
TEXT ·Prefetch(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), AX
	MOVQ	n+8(FP), CX
	TESTQ	CX, CX
	JLE	done
	ADDQ	AX, CX
	ANDQ	$-64, AX
line:
	PREFETCHT0	(AX)
	ADDQ	$64, AX
	CMPQ	AX, CX
	JB	line
done:
	RET
