//go:build amd64 && !noasm

package vec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// Exact asm/generic parity: the AVX2 kernels promise bit-identical
// results to the unrolled Go kernels (same lane structure, same
// reduction tree, no FMA), so every distance is independent of which
// implementation the dispatcher picked. This test holds that promise to
// exact float32 equality across dims 1..67 — every combination of main
// loop, half-width loop, and scalar tail — and 960 and 961, including
// negative zeros and denormals, and a row whose squares overflow to +Inf
// part way. sqRow is held to it under every bound of testBounds, with and
// without a row to prefetch: value, stopping point and all, and dot4Row
// on every run of four consecutive rows.
func TestKernelAsmGenericBitIdentity(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	g := rand.New(rand.NewPCG(3, 9))
	for _, dim := range kernelDims() {
		const rows = 6
		block := make([]float32, rows*dim)
		for i := range block {
			block[i] = float32(g.NormFloat64() * 100)
		}
		// Sprinkle exact values and denormals into deterministic spots.
		block[g.IntN(len(block))] = 0
		block[g.IntN(len(block))] = float32(math.Copysign(0, -1))
		block[g.IntN(len(block))] = math.Float32frombits(1) // smallest denormal
		// The last row's second half overflows its lanes to +Inf.
		for i := (rows-1)*dim + dim/2; i < rows*dim; i++ {
			block[i] = 3e19
		}
		q := make([]float32, dim)
		for i := range q {
			q[i] = float32(g.NormFloat64() * 100)
		}

		outA := make([]float32, rows)
		outG := make([]float32, rows)
		sqBlockAVX2(block, q, outA)
		sqBlockGeneric(block, q, outG)
		for r := range outA {
			if math.Float32bits(outA[r]) != math.Float32bits(outG[r]) {
				t.Fatalf("dim %d row %d: sq asm %x generic %x", dim, r, math.Float32bits(outA[r]), math.Float32bits(outG[r]))
			}
		}
		nA := make([]float32, rows)
		nG := make([]float32, rows)
		dotNormBlockAVX2(block, q, outA, nA)
		dotNormBlockGeneric(block, q, outG, nG)
		for r := range outA {
			if math.Float32bits(outA[r]) != math.Float32bits(outG[r]) || math.Float32bits(nA[r]) != math.Float32bits(nG[r]) {
				t.Fatalf("dim %d row %d: dotnorm asm (%x,%x) generic (%x,%x)", dim, r,
					math.Float32bits(outA[r]), math.Float32bits(nA[r]), math.Float32bits(outG[r]), math.Float32bits(nG[r]))
			}
		}

		for r := 0; r < rows; r++ {
			row := block[r*dim : (r+1)*dim]
			next := block[((r+1)%rows)*dim : ((r+1)%rows+1)*dim]
			full, _ := sqRowGeneric(row, q, row, posInf)
			for _, bound := range testBounds(g, row, q) {
				for _, ahead := range [][]float32{row, next} {
					a, an := sqRowAVX2(row, q, ahead, bound)
					gg, gn := sqRowGeneric(row, q, ahead, bound)
					if math.Float32bits(a) != math.Float32bits(gg) || an != gn {
						t.Fatalf("dim %d row %d bound %g: sqRow asm %x after %d elements, generic %x after %d", dim, r, bound,
							math.Float32bits(a), an, math.Float32bits(gg), gn)
					}
					checkBoundedSq(t, fmt.Sprintf("dim %d row %d", dim, r), row, bound, full, a, an)
				}
			}
			if a, g := dotRowAVX2(row, q, row), dotRowGeneric(row, q, row); math.Float32bits(a) != math.Float32bits(g) {
				t.Fatalf("dim %d row %d: dotRow asm %x generic %x", dim, r, math.Float32bits(a), math.Float32bits(g))
			}
			if r+4 <= rows {
				a0, a1, a2, a3 := dot4RowAVX2(block[r*dim:(r+4)*dim], q)
				g0, g1, g2, g3 := dot4RowGeneric(block[r*dim:(r+4)*dim], q)
				a := [4]uint32{math.Float32bits(a0), math.Float32bits(a1), math.Float32bits(a2), math.Float32bits(a3)}
				g := [4]uint32{math.Float32bits(g0), math.Float32bits(g1), math.Float32bits(g2), math.Float32bits(g3)}
				if a != g {
					t.Fatalf("dim %d rows %d..%d: dot4Row asm %x generic %x", dim, r, r+3, a, g)
				}
			}
			ad, an := dotNormRowAVX2(row, q, row)
			gd, gn := dotNormRowGeneric(row, q, row)
			if math.Float32bits(ad) != math.Float32bits(gd) || math.Float32bits(an) != math.Float32bits(gn) {
				t.Fatalf("dim %d row %d: dotNormRow asm (%x,%x) generic (%x,%x)", dim, r,
					math.Float32bits(ad), math.Float32bits(an), math.Float32bits(gd), math.Float32bits(gn))
			}
		}
	}
}
