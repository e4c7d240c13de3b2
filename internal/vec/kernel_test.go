package vec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"lccs/internal/pqueue"
)

// Parity property tests: every dispatched kernel against the naive
// float64 scalar references, across every dimensionality from 1 to 67
// (covering the 16-wide main loop, the 8-wide half loop, every scalar
// tail length and sqRow's first bound checkpoint) and two GIST-sized
// ones, plus empty blocks and non-finite inputs. The dispatched kernels
// accumulate in float32, so agreement with the float64 reference is to
// within a relative tolerance; agreement between the two dispatched
// implementations (asm and generic) is asserted exactly in
// kernel_amd64_test.go.

const kernelDimMax = 67

// kernelDims are the dimensionalities the kernel tests sweep: 1 to
// kernelDimMax, then 960 (the paper's GIST, fourteen checkpoints) and 961
// (the same with a scalar tail after the last one).
func kernelDims() []int {
	dims := make([]int, 0, kernelDimMax+2)
	for dim := 1; dim <= kernelDimMax; dim++ {
		dims = append(dims, dim)
	}
	return append(dims, 960, 961)
}

// nextUp32 and nextDown32 step a non-negative finite float32 by one ulp.
func nextUp32(v float32) float32   { return math.Float32frombits(math.Float32bits(v) + 1) }
func nextDown32(v float32) float32 { return math.Float32frombits(math.Float32bits(v) - 1) }

// testBounds are the bounds the bounded-kernel tests put to row against
// q: none (+Inf, and NaN, which compares false), the extremes (-Inf, ±0,
// the smallest subnormal, MaxFloat32), the unbounded sum and its ulp
// neighbours, every checkpoint's partial sum, at which the row must read
// on, and random fractions of the sum, which stop it all along its length.
func testBounds(g *rand.Rand, row, q []float32) []float32 {
	full, _ := sqRowGeneric(row, q, nil, posInf)
	bounds := []float32{posInf, float32(math.NaN()), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.MaxFloat32, full}
	for c := boundStride; c < len(row); c += boundStride {
		// Cut just past checkpoint c, the row stops there under -Inf.
		partial, _ := sqRowGeneric(row[:c+1], q[:c+1], nil, float32(math.Inf(-1)))
		bounds = append(bounds, partial)
	}
	if full > 0 && !math.IsInf(float64(full), 0) && !math.IsNaN(float64(full)) {
		bounds = append(bounds, nextDown32(full), nextUp32(full))
		for i := 0; i < 6; i++ {
			bounds = append(bounds, full*float32(g.Float64()))
		}
	}
	return bounds
}

// checkBoundedSq holds one bounded sqRow result (got, n) for row and q
// under bound to the kernel's contract, given the row's unbounded sum
// full: it read len(row) elements or stopped at a checkpoint; read to the
// end it is full bit for bit, which it must be when full does not exceed
// bound; stopped, it exceeds bound and, full being a number, not full.
func checkBoundedSq(t *testing.T, label string, row []float32, bound, full, got float32, n int) {
	t.Helper()
	dim := len(row)
	switch {
	case n == dim:
		if math.Float32bits(got) != math.Float32bits(full) {
			t.Fatalf("%s: bound %g: read the row to its end but returned %x, unbounded %x", label, bound, math.Float32bits(got), math.Float32bits(full))
		}
	case n <= 0 || n > dim || n%boundStride != 0:
		t.Fatalf("%s: bound %g: stopped after %d of %d elements, not at a checkpoint", label, bound, n, dim)
	case !(full > bound) && !math.IsNaN(float64(full)):
		t.Fatalf("%s: bound %g: stopped after %d of %d elements though the full sum %g does not exceed it", label, bound, n, dim, full)
	case !(got > bound):
		t.Fatalf("%s: bound %g: stopped after %d of %d elements with partial %g, which does not exceed it", label, bound, n, dim, got)
	case !math.IsNaN(float64(full)) && !(got <= full):
		t.Fatalf("%s: bound %g: partial %g after %d of %d elements exceeds the full sum %g", label, bound, got, n, dim, full)
	}
}

func kernelTestVec(g *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(g.NormFloat64() * 10)
	}
	return v
}

// relClose checks |got-want| ≤ tol·max(1, |want|, scaleHint) — an
// absolute floor of 1 keeps near-zero sums from demanding impossible
// relative precision after float32 cancellation.
func relClose(got, want, scaleHint, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(want), scaleHint))
	return math.Abs(got-want) <= tol*scale
}

func TestKernelParityAgainstReference(t *testing.T) {
	g := rand.New(rand.NewPCG(7, 7))
	const rows = 9
	const tol = 1e-4
	for _, dim := range kernelDims() {
		stopped := 0
		block := make([]float32, 0, rows*dim)
		rowsRef := make([][]float32, rows)
		for r := range rowsRef {
			rowsRef[r] = kernelTestVec(g, dim)
			block = append(block, rowsRef[r]...)
		}
		q := kernelTestVec(g, dim)
		outSq := make([]float32, rows)
		outDN := make([]float32, rows)
		outNorm := make([]float32, rows)
		sqBlock(block, q, outSq)
		dotNormBlock(block, q, outDN, outNorm)
		for r, row := range rowsRef {
			wantSq := refSquaredDistance(row, q)
			wantDot := refDot(row, q)
			wantNorm := refNormSq(row)
			// The dot can cancel to near zero while its terms are
			// large; scale the tolerance by the norms of the inputs.
			dotScale := math.Sqrt(refNormSq(row) * refNormSq(q))
			if !relClose(float64(outSq[r]), wantSq, wantSq, tol) {
				t.Fatalf("dim %d row %d: sq block %g, reference %g", dim, r, outSq[r], wantSq)
			}
			if got := dotRow(row, q, row); !relClose(float64(got), wantDot, dotScale, tol) {
				t.Fatalf("dim %d row %d: dotRow %g, reference %g", dim, r, got, wantDot)
			}
			if !relClose(float64(outDN[r]), wantDot, dotScale, tol) {
				t.Fatalf("dim %d row %d: dotnorm dot %g, reference %g", dim, r, outDN[r], wantDot)
			}
			if !relClose(float64(outNorm[r]), wantNorm, wantNorm, tol) {
				t.Fatalf("dim %d row %d: dotnorm norm %g, reference %g", dim, r, outNorm[r], wantNorm)
			}
			// Single-row variants must agree with the block kernels
			// bit for bit — they are the same accumulation structure.
			if sq, n := sqRow(row, q, row, posInf); sq != outSq[r] || n != dim {
				t.Fatalf("dim %d row %d: sqRow %g after %d elements != block %g", dim, r, sq, n, outSq[r])
			}
			for _, bound := range testBounds(g, row, q) {
				sq, n := sqRow(row, q, row, bound)
				checkBoundedSq(t, fmt.Sprintf("dim %d row %d", dim, r), row, bound, outSq[r], sq, n)
				if n < dim {
					stopped++
				}
			}
			if dotRow(row, q, row) != outDN[r] {
				t.Fatalf("dim %d row %d: dotRow %g != dotnorm block %g", dim, r, dotRow(row, q, row), outDN[r])
			}
			d, nrm := dotNormRow(row, q, row)
			if d != outDN[r] || nrm != outNorm[r] {
				t.Fatalf("dim %d row %d: dotNormRow (%g,%g) != block (%g,%g)", dim, r, d, nrm, outDN[r], outNorm[r])
			}
			if r+4 <= rows {
				checkDot4(t, fmt.Sprintf("dim %d rows %d..%d", dim, r, r+3), block[r*dim:(r+4)*dim], q)
			}
		}
		// A row with a checkpoint must stop under some bound below its sum.
		if dim > boundStride && stopped == 0 {
			t.Fatalf("dim %d: no bound stopped sqRow", dim)
		}
	}
}

// sqBound(w) must be the largest float32 squared distance whose distance
// is at most w: euclideanFromSq(b) ≤ w < euclideanFromSq(nextUp(b)). The
// bound is then exact in both directions — a row it stops is farther than
// w, and a row at distance w is never stopped.
func TestSqBound(t *testing.T) {
	g := rand.New(rand.NewPCG(5, 17))
	ws := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-300,
		float64(math.Float32frombits(1)), float64(math.Float32frombits(0x007fffff)), 1e-23, 3.7e-23, 4e-23,
		math.Sqrt(math.MaxFloat32), math.MaxFloat32, math.MaxFloat64}
	for _, root := range []float32{1, 2, 3, 10, 12345, math.Float32frombits(0x1f800000), float32(math.Sqrt(math.MaxFloat32))} {
		// An exact square's root and its ulp neighbours.
		ws = append(ws, float64(root), float64(nextUp32(root)), float64(nextDown32(root)))
	}
	for i := 0; i < 2000; i++ {
		ws = append(ws, float64(float32(g.ExpFloat64()*100)), g.ExpFloat64()*math.Pow(10, float64(g.IntN(40)-20)),
			float64(math.Float32frombits(g.Uint32()&0x7fffffff)))
	}
	for _, w := range ws {
		b := sqBound(w)
		if math.IsInf(w, 1) || math.IsNaN(w) {
			continue
		}
		if math.IsInf(float64(b), 0) || math.IsNaN(float64(b)) || b < 0 {
			t.Fatalf("sqBound(%g) = %g, want a finite non-negative bound", w, b)
		}
		if lo, hi := euclideanFromSq(b), euclideanFromSq(nextUp32(b)); !(lo <= w && w < hi) {
			t.Fatalf("sqBound(%g) = %g: distance %g there, %g one ulp up", w, b, lo, hi)
		}
	}
	for _, w := range []float64{math.Inf(1), math.NaN(), -1, -math.SmallestNonzeroFloat64, math.Inf(-1)} {
		if b := sqBound(w); !math.IsInf(float64(b), 1) {
			t.Fatalf("sqBound(%g) = %g, want +Inf", w, b)
		}
	}
}

func TestKernelEmptyBlock(t *testing.T) {
	q := []float32{1, 2, 3}
	sqBlock(nil, q, nil) // zero rows: must not touch memory
	dotNormBlock(nil, q, nil, nil)
}

// The block kernels take their sizes from Store.DistancesInto, their one
// caller: a short output buffer is refused before anything is written, and
// a row range beyond the store panics instead of reading past the block.
// Dot4 panics on a block that is not four rows of len(v).
func TestKernelPanicsOnMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	s, err := FromRows([][]float32{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{1, 1}
	mustPanic("Dot4: three rows", func() { Dot4(make([]float32, 6), q) })
	mustPanic("Dot4: five rows", func() { Dot4(make([]float32, 10), q) })
	for _, m := range []Metric{Euclidean, Angular} {
		out := []float32{-1}
		mustPanic(m.Name()+": short out", func() { s.DistancesInto(0, 2, q, m, out) })
		if out[0] != -1 {
			t.Fatalf("%s: short out was written to before the panic: %v", m.Name(), out)
		}
		mustPanic(m.Name()+": rows beyond the store", func() { s.DistancesInto(1, 3, q, m, make([]float32, 2)) })
	}
}

// Non-finite inputs must propagate through the kernels the way the
// scalar reference does: NaN anywhere poisons the row's sum, +Inf
// squared is +Inf. The kernels carry them lane-for-lane, so the result
// class (NaN / ±Inf) must match the reference's.
func TestKernelNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for dim := 1; dim <= 40; dim += 13 {
		for pos := 0; pos < dim; pos++ {
			for _, bad := range []float32{nan, inf} {
				row := make([]float32, dim)
				q := make([]float32, dim)
				for i := range row {
					row[i] = float32(i + 1)
					q[i] = float32(dim - i)
				}
				row[pos] = bad
				out := make([]float32, 1)
				sqBlock(row, q, out)
				if !math.IsNaN(float64(out[0])) && !math.IsInf(float64(out[0]), 1) {
					t.Fatalf("dim %d pos %d bad %g: sq %g is finite", dim, pos, bad, out[0])
				}
				want := refSquaredDistance(row, q)
				if math.IsNaN(want) != math.IsNaN(float64(out[0])) {
					t.Fatalf("dim %d pos %d bad %g: sq NaN-ness %g vs reference %g", dim, pos, bad, out[0], want)
				}
			}
		}
	}
}

// SQ8 parity: the quantized kernels against a scalar dequantize-and-
// measure reference, and the round-trip error of every code bounded by
// its dimension's affine step.
func TestSQ8KernelParity(t *testing.T) {
	g := rand.New(rand.NewPCG(11, 11))
	for dim := 1; dim <= kernelDimMax; dim++ {
		const rows = 7
		data := make([][]float32, rows)
		for i := range data {
			data[i] = kernelTestVec(g, dim)
		}
		s, err := FromRows(data)
		if err != nil {
			t.Fatal(err)
		}
		qs := QuantizeSQ8(s)
		min, scale, norms, codes := qs.Codebook()
		if len(codes) != rows*dim {
			t.Fatalf("dim %d: %d codes", dim, len(codes))
		}

		// Round-trip error bound: |v - decode(code(v))| ≤ scale[d]
		// (half a step from rounding, up to a full step from the
		// clamp at the range edge, where error stays within range).
		dec := make([]float32, dim)
		for i := 0; i < rows; i++ {
			qs.DecodeInto(i, dec)
			for d, v := range data[i] {
				if err := math.Abs(float64(v - dec[d])); err > float64(scale[d])+1e-6 {
					t.Fatalf("dim %d row %d coord %d: round-trip error %g > step %g", dim, i, d, err, scale[d])
				}
			}
			wantNorm := math.Sqrt(refNormSq(dec))
			if !relClose(float64(norms[i]), wantNorm, 1, 1e-4) {
				t.Fatalf("dim %d row %d: stored norm %g, reference %g", dim, i, norms[i], wantNorm)
			}
		}

		q := kernelTestVec(g, dim)
		ids := make([]int32, rows)
		for i := range ids {
			ids[i] = int32(i)
		}
		out := make([]float32, rows)

		// Euclidean scores = squared distance to the dequantized row.
		var eq SQ8Query
		qs.Prepare(Euclidean, q, &eq)
		qs.GatherScoresInto(ids, &eq, out)
		for i := range out {
			qs.DecodeInto(i, dec)
			want := refSquaredDistance(dec, q)
			if !relClose(float64(out[i]), want, want, 1e-3) {
				t.Fatalf("dim %d row %d: sq8 euclid score %g, reference %g", dim, i, out[i], want)
			}
			// The scalar expansion Σ(adj - scale·code)² must agree
			// with the dispatched kernel to float32 tolerance.
			var ref float64
			for d := 0; d < dim; d++ {
				r := float64(q[d]-min[d]) - float64(scale[d])*float64(codes[i*dim+d])
				ref += r * r
			}
			if !relClose(float64(out[i]), ref, ref, 1e-3) {
				t.Fatalf("dim %d row %d: sq8 kernel %g, scalar expansion %g", dim, i, out[i], ref)
			}
		}

		// Angular scores = −cos(q, dequantized row), up to the |q|
		// factor, which is constant per query and cancels in ranking.
		var aq SQ8Query
		qs.Prepare(Angular, q, &aq)
		qs.GatherScoresInto(ids, &aq, out)
		qn := math.Sqrt(refNormSq(q))
		for i := range out {
			qs.DecodeInto(i, dec)
			if norms[i] == 0 {
				continue
			}
			want := -refDot(dec, q) / float64(norms[i])
			if !relClose(float64(out[i]), want, qn, 1e-3) {
				t.Fatalf("dim %d row %d: sq8 angular score %g, reference %g", dim, i, out[i], want)
			}
		}
	}
}

func TestSQ8ConstantDimAndEmpty(t *testing.T) {
	// A constant dimension has scale 0: codes collapse to 0 and decode
	// back to the constant exactly.
	s, err := FromRows([][]float32{{5, 1}, {5, 2}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	qs := QuantizeSQ8(s)
	dec := make([]float32, 2)
	for i := 0; i < 3; i++ {
		qs.DecodeInto(i, dec)
		if dec[0] != 5 {
			t.Fatalf("row %d: constant dim decoded to %g", i, dec[0])
		}
	}
	empty, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if qs := QuantizeSQ8(empty); qs.Len() != 0 {
		t.Fatalf("empty store quantized to %d rows", qs.Len())
	}
}

func TestSQ8SupportedMetrics(t *testing.T) {
	if !SQ8Supported(Euclidean) || !SQ8Supported(Angular) {
		t.Fatal("euclidean/angular must support SQ8")
	}
	if SQ8Supported(Hamming) || SQ8Supported(Jaccard) {
		t.Fatal("set metrics must not support SQ8")
	}
}

// FuzzKernelParity drives the dispatched kernels with arbitrary bytes
// reinterpreted as float32 vectors — including NaN, Inf, denormals and
// extreme exponents — and cross-checks them against the float64 scalar
// references, plus the block/row bit-identity invariant (dot4Row on every
// run of four consecutive rows included, bit for bit), plus sqRow's
// bound contract under a fuzzed bound (checkBoundedSq), plus the gathers:
// the same bytes pick a list of row ids (repeats and all), and what
// GatherDistancesInto writes for each must be what the row kernels make of
// that row alone, whichever row they were given to prefetch, and
// GatherNearest must leave a k-best collector — filled beforehand with k
// rows at the distance the fuzzed bound stands for — holding exactly what
// GatherDistancesInto and an Add per row leave in it, having read no more
// bytes than that gather (and all of them at dims without a checkpoint).
func FuzzKernelParity(f *testing.F) {
	f.Add(uint16(4), uint32(0x7f800000), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint16(1), uint32(0), []byte{0x7f, 0x80, 0, 0, 0xff, 0x80, 0, 0})                       // ±Inf
	f.Add(uint16(3), uint32(1), []byte{0x7f, 0xc0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})                 // NaN, denormal
	f.Add(uint16(64), uint32(0x3f800000), bytes.Repeat([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0}, 80)) // dim 65: one checkpoint
	f.Add(uint16(len(kernelDims())-1), uint32(0x7f800000), dim961Seed())                          // dim 961: four rows for dot4Row
	f.Fuzz(func(t *testing.T, dimSeed uint16, boundBits uint32, raw []byte) {
		dims := kernelDims()
		dim := dims[int(dimSeed)%len(dims)]
		bound := math.Float32frombits(boundBits)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
			vals[i] = math.Float32frombits(bits)
		}
		if len(vals) < dim {
			return
		}
		q := vals[:dim]
		rows := (len(vals) - dim) / dim
		if rows == 0 {
			return
		}
		block := vals[dim : dim+rows*dim]
		outSq := make([]float32, rows)
		outDN := make([]float32, rows)
		outNorm := make([]float32, rows)
		sqBlock(block, q, outSq)
		dotNormBlock(block, q, outDN, outNorm)
		for r := 0; r < rows; r++ {
			row := block[r*dim : (r+1)*dim]
			if g, n := sqRow(row, q, row, posInf); (g != outSq[r] && !(math.IsNaN(float64(g)) && math.IsNaN(float64(outSq[r])))) || n != dim {
				t.Fatalf("row %d: sqRow %g after %d elements != block %g", r, g, n, outSq[r])
			}
			g, n := sqRow(row, q, row, bound)
			checkBoundedSq(t, fmt.Sprintf("row %d dim %d", r, dim), row, bound, outSq[r], g, n)
			if g := dotRow(row, q, row); g != outDN[r] && !(math.IsNaN(float64(g)) && math.IsNaN(float64(outDN[r]))) {
				t.Fatalf("row %d: dotRow %g != dotnorm block %g", r, g, outDN[r])
			}
			if r+4 <= rows {
				checkDot4(t, fmt.Sprintf("dim %d rows %d..%d", dim, r, r+3), block[r*dim:(r+4)*dim], q)
			}
			// Against the scalar reference only when everything stays
			// comfortably finite in float32.
			want := refSquaredDistance(row, q)
			if finite32(want) && finiteVec(row) && finiteVec(q) {
				scale := math.Max(refNormSq(row), refNormSq(q))
				if !relClose(float64(outSq[r]), want, scale, 1e-3) {
					t.Fatalf("row %d dim %d: sq %g, reference %g", r, dim, outSq[r], want)
				}
			}
		}

		s, err := FromBlock(dim, block)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int32, min(len(raw), 3*rows))
		for j := range ids {
			ids[j] = int32(int(raw[j]) % rows)
		}
		got := make([]float64, len(ids))
		qn2 := dotRow(q, q, q)
		for _, m := range []Metric{Euclidean, Angular} {
			s.GatherDistancesInto(ids, q, m, got)
			for j, id := range ids {
				row := s.Row(int(id))
				sq, _ := sqRow(row, q, row, posInf)
				want := euclideanFromSq(sq)
				if m == Angular {
					d, n2 := dotNormRow(row, q, row)
					want = angularFromParts(d, n2, qn2)
				}
				if got[j] != want && !(math.IsNaN(got[j]) && math.IsNaN(want)) {
					t.Fatalf("%s gather[%d] (row %d of %d, dim %d) = %g, row kernel %g", m.Name(), j, id, rows, dim, got[j], want)
				}
			}
		}

		k := 1 + int(dimSeed>>8)%4
		var bounded, oracle pqueue.KBest
		bounded.Reset(k)
		oracle.Reset(k)
		for i := 0; i < k; i++ {
			bounded.Add(-1-i, euclideanFromSq(bound))
			oracle.Add(-1-i, euclideanFromSq(bound))
		}
		s.GatherDistancesInto(ids, q, Euclidean, got)
		for j, id := range ids {
			oracle.Add(7+int(id), got[j])
		}
		read := s.GatherNearest(ids, q, 7, &bounded)
		if full := int64(len(ids)) * int64(dim) * 4; read > full || (dim <= boundStride && read != full) {
			t.Fatalf("dim %d: GatherNearest read %d bytes of %d", dim, read, full)
		}
		if b, o := bounded.Sorted(), oracle.Sorted(); !sameNeighbors(b, o) {
			t.Fatalf("dim %d k %d bound %g: GatherNearest kept %v, GatherDistancesInto and Add %v", dim, k, bound, b, o)
		}
	})
}

// checkDot4 holds dot4Row over the four rows of block to dotRow on each
// row alone, bit for bit: NaN payloads, signed zeros and all.
func checkDot4(t *testing.T, label string, block, q []float32) {
	t.Helper()
	dim := len(q)
	var got [4]float32
	got[0], got[1], got[2], got[3] = dot4Row(block, q)
	for r, g := range got {
		row := block[r*dim : (r+1)*dim]
		if want := dotRow(row, q, row); math.Float32bits(g) != math.Float32bits(want) {
			t.Fatalf("%s: dot4Row[%d] %x, dotRow %x", label, r, math.Float32bits(g), math.Float32bits(want))
		}
	}
}

// dot4Row must equal dotRow bit for bit on NaN payloads too, and a NaN
// times a NaN keeps the first operand's: so each case puts a NaN in the
// query and one of another payload in a single row, at elements of the main
// loop's low and high halves, the clean-up step and the tail, alone or
// twice in one lane. Only the product of the row's own NaN tells which
// operand came first, so every multiply and bank add of every row is
// exercised by some case.
func TestDot4NaNPayloads(t *testing.T) {
	qNaN, rowNaN := math.Float32frombits(0x7fc0000a), math.Float32frombits(0x7fc000b0)
	for _, c := range []struct {
		dim int
		at  []int
	}{
		{25, []int{3}}, {25, []int{10}}, {25, []int{18}}, {25, []int{24}},
		{41, []int{3, 19}}, {41, []int{10, 26}}, {41, []int{3, 35}}, {41, []int{3, 40}},
	} {
		for r := 0; r < 4; r++ {
			q := make([]float32, c.dim)
			block := make([]float32, 4*c.dim)
			for i := range q {
				q[i] = float32(i%5) - 1.5
			}
			for i := range block {
				block[i] = float32(i%7) * 0.25
			}
			for k, at := range c.at {
				q[at] = qNaN
				block[r*c.dim+at] = math.Float32frombits(math.Float32bits(rowNaN) + uint32(k))
			}
			checkDot4(t, fmt.Sprintf("dim %d NaN at %v in row %d", c.dim, c.at, r), block, q)
		}
	}
}

// dim961Seed is a fuzz input at dim 961 (the last of kernelDims): a query
// and four rows, every main loop, the clean-up step and a scalar tail
// element. The query and the first row hold NaNs of different payloads at
// one element, so a product's operand order shows in the bits; the second
// row holds a denormal, the third a NaN in its tail and the fourth a +Inf.
func dim961Seed() []byte {
	const dim = 961
	vals := make([]float32, 5*dim)
	for i := range vals {
		vals[i] = float32(i%13-6) * 0.375
	}
	vals[10] = math.Float32frombits(0x7fc00001)
	vals[dim+10] = math.Float32frombits(0x7fc00002)
	vals[2*dim+5] = math.Float32frombits(1)
	vals[4*dim-1] = float32(math.NaN())
	vals[4*dim+100] = float32(math.Inf(1))
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		bits := math.Float32bits(v)
		raw[4*i], raw[4*i+1], raw[4*i+2], raw[4*i+3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
	}
	return raw
}

// sameNeighbors reports whether a and b hold the same ids at the same
// distances, bit for bit.
func sameNeighbors(a, b []pqueue.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// finite32 reports whether v survives a round trip through float32
// without overflowing — the precondition for comparing a float64
// reference against the float32 kernels.
func finite32(v float64) bool {
	return math.Abs(v) <= math.MaxFloat32/2
}

func finiteVec(v []float32) bool {
	for _, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) || math.Abs(float64(x)) > 1e18 {
			return false
		}
	}
	return true
}
