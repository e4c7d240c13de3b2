//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 distance kernels. Every function mirrors its Go counterpart in
// kernel_generic.go exactly: two YMM accumulator banks fed 16 floats
// per iteration, an 8-wide cleanup loop on bank 0, separate VMULPS +
// VADDPS (no FMA), a VADDPS / VEXTRACTF128 / 2x VHADDPS reduction
// tree, and a sequential scalar tail folded in after the reduction.
// The parity tests assert bit-identical results against the Go mirror,
// so do not change the accumulation structure on one side only.
//
// The prefetches are the one thing with no counterpart in the mirror:
// hints, outside the bit-identity contract. A block kernel asks for the
// line blockAhead bytes beyond the one it is loading. A row kernel asks,
// once per 64 bytes it consumes, for the line at the same offset of its
// next argument, and before the remainder loops for next's remaining
// (at most two) lines, so next is requested exactly, whatever its
// alignment, and no line beyond it. A caller with no next row passes the
// row itself, and the kernel then runs its main loop without the
// requests: they are not free on operands already in cache (64 dot
// products of 960 floats, all in L1: 4.4 µs without, 4.7 with PREFETCHT0,
// 5.6 with PREFETCHT1 — measured when every hash function ran its own
// dotRowAVX2, 50 000 × 64 times a build). The hash functions now run
// dot4RowAVX2, four rows of their projection block per pass, which asks
// for nothing either: a PREFETCHT0 512 bytes ahead on each of its rows read
// the same in BenchmarkHashString/d=960,m=64/block (six alternating runs:
// 4.2–6.1 µs a row with, 4.5–5.7 without).
//
// The row kernels ask with PREFETCHT1 (into L2), not T0 (into L1): a
// row-long run of requests that each hold one of the core's ten or so L1
// fill buffers for a whole memory latency throttles itself.
// BenchmarkGather/random/dim=960 (2-vCPU Xeon @ 2.1 GHz, medians of 7 to 9
// alternating runs, two sessions): no prefetch 5.0 GB/s, NTA 6.0, T0 7.0
// and 9.8, T2 8.6, T1 8.7 and 11.1; at dim 128 either reads the same. The
// block kernels ask with PREFETCHT0: BenchmarkScan reads the same with
// either, and T0 is the cheap one when the block is in cache after all.

// blockAhead is how far ahead of its loads a block kernel prefetches: a
// page, which is where the hardware streamer stops and has to be taught
// the stream again. BenchmarkScan (128 MB block; 2-vCPU Xeon @ 2.1 GHz;
// medians of 3-6 runs; GB/s at dim 16 / 128 / 960): none 4.6 / 6.5 / 7.2,
// 256 B 5.2 / 7.2 / 8.2, 1 KB 6.5 / 8.9 / 9.4, 2 KB 7.5 / 10.1 / 10.8,
// 4 KB 8.2 / 10.9 / 11.8, 8 KB 7.1 / 10.8 / 11.5, 16 KB 7.4 / 10.7 / 11.7.
// A scan's last 4 KB of requests fall beyond its block and are wasted.
#define blockAhead 4096

// One step of each kernel's main loop: 16 elements at index R8 into the
// two accumulator banks, then R8 += 16. A macro each, because a row kernel
// has its main loop twice (with and without the requests for next) and
// shares the step with its block kernel.

// SQ16: acc += (a - b)^2.
#define SQ16 \
	VMOVUPS (SI)(R8*4), Y2; \
	VMOVUPS (DX)(R8*4), Y3; \
	VSUBPS  Y3, Y2, Y4; \
	VMULPS  Y4, Y4, Y4; \
	VADDPS  Y4, Y0, Y0; \
	VMOVUPS 32(SI)(R8*4), Y5; \
	VMOVUPS 32(DX)(R8*4), Y6; \
	VSUBPS  Y6, Y5, Y7; \
	VMULPS  Y7, Y7, Y7; \
	VADDPS  Y7, Y1, Y1; \
	ADDQ    $16, R8

// SQCHECK: the checkpoint of sqRowAVX2, at the end of each of its 64-element
// steps (boundStride). If elements remain, it reduces a copy of the banks
// through the tree of rsq_reduce, operand for operand, and leaves the row
// with that partial (in X2) if it exceeds the bound (in X8); otherwise, or
// at the row's end, it goes on at loop. VUCOMISS, not UCOMISS: a legacy
// SSE op here, with the banks' upper halves live, would pay the SSE/AVX
// transition on every checkpoint.
#define SQCHECK(loop) \
	CMPQ         R8, CX; \
	JGE          loop; \
	VADDPS       Y1, Y0, Y2; \
	VEXTRACTF128 $1, Y2, X3; \
	VADDPS       X3, X2, X2; \
	VHADDPS      X2, X2, X2; \
	VHADDPS      X2, X2, X2; \
	VUCOMISS     X8, X2; \
	JA           rsq_stop; \
	JMP          loop

// DOT16: acc += a * b.
#define DOT16 \
	VMOVUPS (SI)(R8*4), Y2; \
	VMOVUPS (DX)(R8*4), Y3; \
	VMULPS  Y3, Y2, Y4; \
	VADDPS  Y4, Y0, Y0; \
	VMOVUPS 32(SI)(R8*4), Y5; \
	VMOVUPS 32(DX)(R8*4), Y6; \
	VMULPS  Y6, Y5, Y7; \
	VADDPS  Y7, Y1, Y1; \
	ADDQ    $16, R8

// DOT4x16: each of four rows' two banks += row * v, the rows at SI, BX, DI
// and R10, row r's banks Y(2r) and Y(2r+1); v is loaded once for the four.
// Operand for operand each row is DOT16 with the row as a and v as b.
#define DOT4x16 \
	VMOVUPS (DX)(R8*4), Y8; \
	VMOVUPS 32(DX)(R8*4), Y9; \
	VMOVUPS (SI)(R8*4), Y10; \
	VMULPS  Y8, Y10, Y10; \
	VADDPS  Y10, Y0, Y0; \
	VMOVUPS 32(SI)(R8*4), Y11; \
	VMULPS  Y9, Y11, Y11; \
	VADDPS  Y11, Y1, Y1; \
	VMOVUPS (BX)(R8*4), Y12; \
	VMULPS  Y8, Y12, Y12; \
	VADDPS  Y12, Y2, Y2; \
	VMOVUPS 32(BX)(R8*4), Y13; \
	VMULPS  Y9, Y13, Y13; \
	VADDPS  Y13, Y3, Y3; \
	VMOVUPS (DI)(R8*4), Y10; \
	VMULPS  Y8, Y10, Y10; \
	VADDPS  Y10, Y4, Y4; \
	VMOVUPS 32(DI)(R8*4), Y11; \
	VMULPS  Y9, Y11, Y11; \
	VADDPS  Y11, Y5, Y5; \
	VMOVUPS (R10)(R8*4), Y12; \
	VMULPS  Y8, Y12, Y12; \
	VADDPS  Y12, Y6, Y6; \
	VMOVUPS 32(R10)(R8*4), Y13; \
	VMULPS  Y9, Y13, Y13; \
	VADDPS  Y13, Y7, Y7; \
	ADDQ    $16, R8

// DOT4x8: the 8-wide clean-up step of DOT4x16, on bank 0 of each row.
#define DOT4x8 \
	VMOVUPS (DX)(R8*4), Y8; \
	VMOVUPS (SI)(R8*4), Y10; \
	VMULPS  Y8, Y10, Y10; \
	VADDPS  Y10, Y0, Y0; \
	VMOVUPS (BX)(R8*4), Y11; \
	VMULPS  Y8, Y11, Y11; \
	VADDPS  Y11, Y2, Y2; \
	VMOVUPS (DI)(R8*4), Y12; \
	VMULPS  Y8, Y12, Y12; \
	VADDPS  Y12, Y4, Y4; \
	VMOVUPS (R10)(R8*4), Y13; \
	VMULPS  Y8, Y13, Y13; \
	VADDPS  Y13, Y6, Y6; \
	ADDQ    $8, R8

// REDUCE: fold banks lo and hi into the low lane of xlo, through the tree
// every kernel ends with (xlo and xhi name lo and hi's low halves).
#define REDUCE(lo, hi, xlo, xhi) \
	VADDPS       hi, lo, lo; \
	VEXTRACTF128 $1, lo, xhi; \
	VADDPS       xhi, xlo, xlo; \
	VHADDPS      xlo, xlo, xlo; \
	VHADDPS      xlo, xlo, xlo

// DOT4TAIL: one scalar tail element of row base into the sum in x, v's
// element being in X8.
#define DOT4TAIL(base, x) \
	MOVSS (base)(R8*4), X9; \
	MULSS X8, X9; \
	ADDSS X9, x

// DN16: dot += a * q, norm += a * a.
#define DN16 \
	VMOVUPS (SI)(R8*4), Y2; \
	VMOVUPS (DX)(R8*4), Y3; \
	VMULPS  Y3, Y2, Y4; \
	VADDPS  Y4, Y0, Y0; \
	VMULPS  Y2, Y2, Y5; \
	VADDPS  Y5, Y8, Y8; \
	VMOVUPS 32(SI)(R8*4), Y2; \
	VMOVUPS 32(DX)(R8*4), Y3; \
	VMULPS  Y3, Y2, Y4; \
	VADDPS  Y4, Y1, Y1; \
	VMULPS  Y2, Y2, Y5; \
	VADDPS  Y5, Y9, Y9; \
	ADDQ    $16, R8

// func sqBlockAVX2(block, q, out []float32)
// out[r] = sum_d (block[r*dim+d] - q[d])^2, dim = len(q), rows = len(out).
TEXT ·sqBlockAVX2(SB), NOSPLIT, $0-72
	MOVQ block_base+0(FP), SI
	MOVQ q_base+24(FP), DX
	MOVQ q_len+32(FP), CX
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX

sq_rowloop:
	TESTQ BX, BX
	JZ    sq_done
	XORQ  R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ  CX, R9
	SUBQ  $16, R9

sq_loop16:
	CMPQ    R8, R9
	JG      sq_loop8entry
	PREFETCHT0 blockAhead(SI)(R8*4)
	SQ16
	JMP     sq_loop16

sq_loop8entry:
	MOVQ CX, R9
	SUBQ $8, R9

sq_loop8:
	CMPQ    R8, R9
	JG      sq_reduce
	VMOVUPS (SI)(R8*4), Y2
	VMOVUPS (DX)(R8*4), Y3
	VSUBPS  Y3, Y2, Y4
	VMULPS  Y4, Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $8, R8
	JMP     sq_loop8

sq_reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VZEROUPPER

sq_tail:
	CMPQ  R8, CX
	JGE   sq_store
	MOVSS (SI)(R8*4), X2
	MOVSS (DX)(R8*4), X3
	SUBSS X3, X2
	MULSS X2, X2
	ADDSS X2, X0
	INCQ  R8
	JMP   sq_tail

sq_store:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	LEAQ  (SI)(CX*4), SI
	DECQ  BX
	JMP   sq_rowloop

sq_done:
	RET

// func dotNormBlockAVX2(block, q, outDot, outNorm []float32)
// outDot[r] = row . q, outNorm[r] = row . row, one pass per row.
TEXT ·dotNormBlockAVX2(SB), NOSPLIT, $0-96
	MOVQ block_base+0(FP), SI
	MOVQ q_base+24(FP), DX
	MOVQ q_len+32(FP), CX
	MOVQ outDot_base+48(FP), DI
	MOVQ outDot_len+56(FP), BX
	MOVQ outNorm_base+72(FP), R10

dn_rowloop:
	TESTQ BX, BX
	JZ    dn_done
	XORQ  R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ  CX, R9
	SUBQ  $16, R9

dn_loop16:
	CMPQ    R8, R9
	JG      dn_loop8entry
	PREFETCHT0 blockAhead(SI)(R8*4)
	DN16
	JMP     dn_loop16

dn_loop8entry:
	MOVQ CX, R9
	SUBQ $8, R9

dn_loop8:
	CMPQ    R8, R9
	JG      dn_reduce
	VMOVUPS (SI)(R8*4), Y2
	VMOVUPS (DX)(R8*4), Y3
	VMULPS  Y3, Y2, Y4
	VADDPS  Y4, Y0, Y0
	VMULPS  Y2, Y2, Y5
	VADDPS  Y5, Y8, Y8
	ADDQ    $8, R8
	JMP     dn_loop8

dn_reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VADDPS       Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X1
	VADDPS       X1, X8, X8
	VHADDPS      X8, X8, X8
	VHADDPS      X8, X8, X8
	VZEROUPPER

dn_tail:
	CMPQ  R8, CX
	JGE   dn_store
	MOVSS (SI)(R8*4), X2
	MOVSS (DX)(R8*4), X3
	MOVSS X2, X4
	MULSS X3, X4
	ADDSS X4, X0
	MULSS X2, X2
	ADDSS X2, X8
	INCQ  R8
	JMP   dn_tail

dn_store:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	MOVSS X8, (R10)
	ADDQ  $4, R10
	LEAQ  (SI)(CX*4), SI
	DECQ  BX
	JMP   dn_rowloop

dn_done:
	RET

// func sqRowAVX2(a, b, next []float32, bound float32) (sum float32, n int)
// Single-row squared Euclidean: same structure as one sqBlockAVX2 row,
// returned by value so pairwise callers need no out buffer, plus the
// checkpoints of sqRowGeneric. The main loop takes four SQ16 steps at a
// time while 64 elements remain, with a SQCHECK after each such step, and
// hands what is left under 64 to the plain 16-element loop, which can
// reach no further checkpoint. A bound of +Inf, which no checkpoint can
// act on, skips them all: the kernel then runs the loops it ran before it
// had a bound (see docs/PERFORMANCE.md, "Bounded verification", for what
// the checkpoints cost on rows in cache). n is how many elements were
// read: len(a), or the checkpoint the row stopped at.
TEXT ·sqRowAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ next_base+48(FP), R10
	VMOVSS bound+72(FP), X8
	XORQ R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ CX, R11
	SUBQ $64, R11
	MOVQ CX, R9
	SUBQ $16, R9
	MOVL bound+72(FP), AX
	CMPL AX, $0x7f800000
	JEQ  rsq_unbounded
	CMPQ R10, SI
	JEQ  rsq_loop64

rsq_ahead64:
	CMPQ       R8, R11
	JG         rsq_ahead16
	PREFETCHT1 (R10)(R8*4)
	SQ16
	PREFETCHT1 (R10)(R8*4)
	SQ16
	PREFETCHT1 (R10)(R8*4)
	SQ16
	PREFETCHT1 (R10)(R8*4)
	SQ16
	SQCHECK(rsq_ahead64)

rsq_unbounded:
	CMPQ R10, SI
	JEQ  rsq_loop16

rsq_ahead16:
	CMPQ       R8, R9
	JG         rsq_aheadrest
	PREFETCHT1 (R10)(R8*4)
	SQ16
	JMP        rsq_ahead16

rsq_aheadrest:
	PREFETCHT1 -4(R10)(CX*4)
	CMPQ       R8, CX
	JGE        rsq_reduce
	PREFETCHT1 (R10)(R8*4)
	JMP        rsq_loop8entry

rsq_loop64:
	CMPQ    R8, R11
	JG      rsq_loop16
	SQ16
	SQ16
	SQ16
	SQ16
	SQCHECK(rsq_loop64)

rsq_loop16:
	CMPQ    R8, R9
	JG      rsq_loop8entry
	SQ16
	JMP     rsq_loop16

rsq_loop8entry:
	MOVQ CX, R9
	SUBQ $8, R9

rsq_loop8:
	CMPQ    R8, R9
	JG      rsq_reduce
	VMOVUPS (SI)(R8*4), Y2
	VMOVUPS (DX)(R8*4), Y3
	VSUBPS  Y3, Y2, Y4
	VMULPS  Y4, Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $8, R8
	JMP     rsq_loop8

rsq_reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VZEROUPPER

rsq_tail:
	CMPQ  R8, CX
	JGE   rsq_done
	MOVSS (SI)(R8*4), X2
	MOVSS (DX)(R8*4), X3
	SUBSS X3, X2
	MULSS X2, X2
	ADDSS X2, X0
	INCQ  R8
	JMP   rsq_tail

rsq_done:
	MOVSS X0, sum+80(FP)
	MOVQ  CX, n+88(FP)
	RET

rsq_stop:
	VZEROUPPER
	MOVSS X2, sum+80(FP)
	MOVQ  R8, n+88(FP)
	RET

// func dotRowAVX2(a, b, next []float32) float32
TEXT ·dotRowAVX2(SB), NOSPLIT, $0-76
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ next_base+48(FP), R10
	XORQ R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ CX, R9
	SUBQ $16, R9
	CMPQ R10, SI
	JEQ  rdot_loop16

rdot_ahead16:
	CMPQ       R8, R9
	JG         rdot_aheadrest
	PREFETCHT1 (R10)(R8*4)
	DOT16
	JMP        rdot_ahead16

rdot_aheadrest:
	PREFETCHT1 -4(R10)(CX*4)
	CMPQ       R8, CX
	JGE        rdot_reduce
	PREFETCHT1 (R10)(R8*4)
	JMP        rdot_loop8entry

rdot_loop16:
	CMPQ    R8, R9
	JG      rdot_loop8entry
	DOT16
	JMP     rdot_loop16

rdot_loop8entry:
	MOVQ CX, R9
	SUBQ $8, R9

rdot_loop8:
	CMPQ    R8, R9
	JG      rdot_reduce
	VMOVUPS (SI)(R8*4), Y2
	VMOVUPS (DX)(R8*4), Y3
	VMULPS  Y3, Y2, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $8, R8
	JMP     rdot_loop8

rdot_reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VZEROUPPER

rdot_tail:
	CMPQ  R8, CX
	JGE   rdot_done
	MOVSS (SI)(R8*4), X2
	MOVSS (DX)(R8*4), X3
	MULSS X3, X2
	ADDSS X2, X0
	INCQ  R8
	JMP   rdot_tail

rdot_done:
	MOVSS X0, ret+72(FP)
	RET

// func dot4RowAVX2(block, v []float32) (d0, d1, d2, d3 float32)
// d_r = row r . v for the four rows of block, dim = len(v): dotRowAVX2's
// loops, reduction and tail on eight banks, so each d_r is dotRowAVX2(row
// r, v, row r) bit for bit, while each element of v is loaded once for the
// four rows and the four rows' add chains overlap. No prefetch: the rows
// are hash functions' projections, read again for every object hashed.
TEXT ·dot4RowAVX2(SB), NOSPLIT, $0-64
	MOVQ block_base+0(FP), SI
	MOVQ v_base+24(FP), DX
	MOVQ v_len+32(FP), CX
	LEAQ (SI)(CX*4), BX
	LEAQ (BX)(CX*4), DI
	LEAQ (DI)(CX*4), R10
	XORQ R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ CX, R9
	SUBQ $16, R9

d4_loop16:
	CMPQ R8, R9
	JG   d4_loop8entry
	DOT4x16
	JMP  d4_loop16

d4_loop8entry:
	MOVQ CX, R9
	SUBQ $8, R9

d4_loop8:
	CMPQ R8, R9
	JG   d4_reduce
	DOT4x8
	JMP  d4_loop8

d4_reduce:
	REDUCE(Y0, Y1, X0, X1)
	REDUCE(Y2, Y3, X2, X3)
	REDUCE(Y4, Y5, X4, X5)
	REDUCE(Y6, Y7, X6, X7)
	VZEROUPPER

d4_tail:
	CMPQ  R8, CX
	JGE   d4_done
	MOVSS (DX)(R8*4), X8
	DOT4TAIL(SI, X0)
	DOT4TAIL(BX, X2)
	DOT4TAIL(DI, X4)
	DOT4TAIL(R10, X6)
	INCQ  R8
	JMP   d4_tail

d4_done:
	MOVSS X0, d0+48(FP)
	MOVSS X2, d1+52(FP)
	MOVSS X4, d2+56(FP)
	MOVSS X6, d3+60(FP)
	RET

// func dotNormRowAVX2(a, q, next []float32) (dot, normSq float32)
TEXT ·dotNormRowAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ q_base+24(FP), DX
	MOVQ next_base+48(FP), R10
	XORQ R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ CX, R9
	SUBQ $16, R9
	CMPQ R10, SI
	JEQ  rdn_loop16

rdn_ahead16:
	CMPQ       R8, R9
	JG         rdn_aheadrest
	PREFETCHT1 (R10)(R8*4)
	DN16
	JMP        rdn_ahead16

rdn_aheadrest:
	PREFETCHT1 -4(R10)(CX*4)
	CMPQ       R8, CX
	JGE        rdn_reduce
	PREFETCHT1 (R10)(R8*4)
	JMP        rdn_loop8entry

rdn_loop16:
	CMPQ    R8, R9
	JG      rdn_loop8entry
	DN16
	JMP     rdn_loop16

rdn_loop8entry:
	MOVQ CX, R9
	SUBQ $8, R9

rdn_loop8:
	CMPQ    R8, R9
	JG      rdn_reduce
	VMOVUPS (SI)(R8*4), Y2
	VMOVUPS (DX)(R8*4), Y3
	VMULPS  Y3, Y2, Y4
	VADDPS  Y4, Y0, Y0
	VMULPS  Y2, Y2, Y5
	VADDPS  Y5, Y8, Y8
	ADDQ    $8, R8
	JMP     rdn_loop8

rdn_reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VADDPS       Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X1
	VADDPS       X1, X8, X8
	VHADDPS      X8, X8, X8
	VHADDPS      X8, X8, X8
	VZEROUPPER

rdn_tail:
	CMPQ  R8, CX
	JGE   rdn_done
	MOVSS (SI)(R8*4), X2
	MOVSS (DX)(R8*4), X3
	MOVSS X2, X4
	MULSS X3, X4
	ADDSS X4, X0
	MULSS X2, X2
	ADDSS X2, X8
	INCQ  R8
	JMP   rdn_tail

rdn_done:
	MOVSS X0, dot+72(FP)
	MOVSS X8, normSq+76(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
