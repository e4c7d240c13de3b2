package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Parity property tests: every dispatched kernel against the naive
// float64 scalar references, across every dimensionality from 1 to 67
// (covering the 16-wide main loop, the 8-wide half loop, and every
// scalar tail length), plus empty blocks and non-finite inputs. The
// dispatched kernels accumulate in float32, so agreement with the
// float64 reference is to within a relative tolerance; agreement
// between the two dispatched implementations (asm and generic) is
// asserted exactly in kernel_amd64_test.go.

const kernelDimMax = 67

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
	for dim := 1; dim <= kernelDimMax; dim++ {
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
			if sqRow(row, q, row) != outSq[r] {
				t.Fatalf("dim %d row %d: sqRow %g != block %g", dim, r, sqRow(row, q, row), outSq[r])
			}
			if dotRow(row, q, row) != outDN[r] {
				t.Fatalf("dim %d row %d: dotRow %g != dotnorm block %g", dim, r, dotRow(row, q, row), outDN[r])
			}
			d, nrm := dotNormRow(row, q, row)
			if d != outDN[r] || nrm != outNorm[r] {
				t.Fatalf("dim %d row %d: dotNormRow (%g,%g) != block (%g,%g)", dim, r, d, nrm, outDN[r], outNorm[r])
			}
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
// references, plus the block/row bit-identity invariant, plus the gather:
// the same bytes pick a list of row ids (repeats and all), and what
// GatherDistancesInto writes for each must be what the row kernels make of
// that row alone, whichever row they were given to prefetch.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint16(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint16(1), []byte{0x7f, 0x80, 0, 0, 0xff, 0x80, 0, 0})       // ±Inf
	f.Add(uint16(3), []byte{0x7f, 0xc0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}) // NaN, denormal
	f.Fuzz(func(t *testing.T, dimSeed uint16, raw []byte) {
		dim := int(dimSeed)%kernelDimMax + 1
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
			if g := sqRow(row, q, row); g != outSq[r] && !(math.IsNaN(float64(g)) && math.IsNaN(float64(outSq[r]))) {
				t.Fatalf("row %d: sqRow %g != block %g", r, g, outSq[r])
			}
			if g := dotRow(row, q, row); g != outDN[r] && !(math.IsNaN(float64(g)) && math.IsNaN(float64(outDN[r]))) {
				t.Fatalf("row %d: dotRow %g != dotnorm block %g", r, g, outDN[r])
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
				want := euclideanFromSq(sqRow(row, q, row))
				if m == Angular {
					d, n2 := dotNormRow(row, q, row)
					want = angularFromParts(d, n2, qn2)
				}
				if got[j] != want && !(math.IsNaN(got[j]) && math.IsNaN(want)) {
					t.Fatalf("%s gather[%d] (row %d of %d, dim %d) = %g, row kernel %g", m.Name(), j, id, rows, dim, got[j], want)
				}
			}
		}
	})
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
