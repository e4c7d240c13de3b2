package vec

// Unrolled pure-Go kernels. These are the portable implementations the
// dispatch layer falls back to on non-amd64 targets, under -tags noasm,
// or when the CPU lacks AVX2 — and the executable specification of the
// accumulation order the AVX2 assembly must reproduce bit-for-bit:
//
//   - two banks of 8 float32 accumulators (acc0/acc1 ↔ two YMM
//     registers), fed 16 elements per iteration, then an 8-wide loop on
//     bank 0, mirroring the assembly's main and half-width loops;
//   - multiply and add as separate operations (the assembly uses
//     VMULPS + VADDPS, never FMA, so lane arithmetic is identical);
//   - lane reduction as bank add, high/low half add, then two pairwise
//     horizontal adds — the VADDPS / VEXTRACTF128 / 2×VHADDPS tree;
//   - the scalar tail (dim mod 8) folded in sequentially after the
//     vector reduction;
//   - in sqRow alone, a checkpoint after every boundStride elements of
//     the main loop (while some remain) that reduces the banks by the
//     same tree and stops if that partial exceeds the bound.
//
// The amd64-only parity test asserts exact equality between these and
// the assembly across dims 1..67, 960 and 961 — for sqRow, under every
// bound it tries, the stopping point too — so any structural drift fails
// CI.
//
// The row kernels take a last argument, next, that these twins ignore:
// it is the row the caller will ask for next, which the assembly
// prefetches while it consumes this one (see kernel.go). Prefetching
// changes no value, so it is not part of the contract above.

func sqBlockGeneric(block, q, out []float32) {
	dim := len(q)
	for r := range out {
		out[r], _ = sqRowGeneric(block[r*dim:r*dim+dim], q, nil, posInf)
	}
}

// sqRowGeneric is the one kernel with a bound (see sqRow in kernel.go):
// each time the main loop has consumed a multiple of boundStride elements
// and some remain, it reduces the two banks as the end of the row does and
// stops with that partial if it exceeds bound.
func sqRowGeneric(a, b, _ []float32, bound float32) (float32, int) {
	var acc0, acc1 [8]float32
	j := 0
	for j+16 <= len(a) {
		for l := 0; l < 8; l++ {
			d0 := a[j+l] - b[j+l]
			acc0[l] += d0 * d0
			d1 := a[j+8+l] - b[j+8+l]
			acc1[l] += d1 * d1
		}
		j += 16
		if j%boundStride == 0 && j < len(a) {
			if s := reduce8(&acc0, &acc1); s > bound {
				return s, j
			}
		}
	}
	for ; j+8 <= len(a); j += 8 {
		for l := 0; l < 8; l++ {
			d := a[j+l] - b[j+l]
			acc0[l] += d * d
		}
	}
	s := reduce8(&acc0, &acc1)
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s += d * d
	}
	return s, len(a)
}

func dotRowGeneric(a, b, _ []float32) float32 {
	var acc0, acc1 [8]float32
	j := 0
	for ; j+16 <= len(a); j += 16 {
		for l := 0; l < 8; l++ {
			acc0[l] += a[j+l] * b[j+l]
			acc1[l] += a[j+8+l] * b[j+8+l]
		}
	}
	for ; j+8 <= len(a); j += 8 {
		for l := 0; l < 8; l++ {
			acc0[l] += a[j+l] * b[j+l]
		}
	}
	s := reduce8(&acc0, &acc1)
	for ; j < len(a); j++ {
		s += a[j] * b[j]
	}
	return s
}

// dot4RowGeneric is dotRowGeneric on each of block's four rows in turn:
// the assembly's single pass over eight banks computes the same four sums.
func dot4RowGeneric(block, v []float32) (d0, d1, d2, d3 float32) {
	d := len(v)
	return dotRowGeneric(block[:d], v, nil), dotRowGeneric(block[d:2*d], v, nil),
		dotRowGeneric(block[2*d:3*d], v, nil), dotRowGeneric(block[3*d:4*d], v, nil)
}

func dotNormBlockGeneric(block, q, outDot, outNorm []float32) {
	dim := len(q)
	for r := range outDot {
		outDot[r], outNorm[r] = dotNormRowGeneric(block[r*dim:r*dim+dim], q, nil)
	}
}

func dotNormRowGeneric(a, b, _ []float32) (dot, normSq float32) {
	var dacc0, dacc1, nacc0, nacc1 [8]float32
	j := 0
	for ; j+16 <= len(a); j += 16 {
		for l := 0; l < 8; l++ {
			av0 := a[j+l]
			dacc0[l] += av0 * b[j+l]
			nacc0[l] += av0 * av0
			av1 := a[j+8+l]
			dacc1[l] += av1 * b[j+8+l]
			nacc1[l] += av1 * av1
		}
	}
	for ; j+8 <= len(a); j += 8 {
		for l := 0; l < 8; l++ {
			av := a[j+l]
			dacc0[l] += av * b[j+l]
			nacc0[l] += av * av
		}
	}
	d := reduce8(&dacc0, &dacc1)
	n := reduce8(&nacc0, &nacc1)
	for ; j < len(a); j++ {
		av := a[j]
		d += av * b[j]
		n += av * av
	}
	return d, n
}

// reduce8 collapses the two 8-lane accumulator banks exactly as the
// assembly does: VADDPS of the banks, VEXTRACTF128 + VADDPS of the
// halves, then two VHADDPS pairwise folds.
func reduce8(acc0, acc1 *[8]float32) float32 {
	var lane [8]float32
	for l := 0; l < 8; l++ {
		lane[l] = acc0[l] + acc1[l]
	}
	var m [4]float32
	for l := 0; l < 4; l++ {
		m[l] = lane[l] + lane[l+4]
	}
	return (m[0] + m[1]) + (m[2] + m[3])
}
