//go:build amd64 && !noasm

#include "textflag.h"

// func t0(p unsafe.Pointer)
TEXT ·t0(SB), NOSPLIT, $0-8
	MOVQ       p+0(FP), AX
	PREFETCHT0 (AX)
	RET
