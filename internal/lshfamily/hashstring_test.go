package lshfamily

import (
	"fmt"
	"math"
	"testing"

	"lccs/internal/rng"
)

// hashOneByOne is the reference for HashString: every function's own Hash,
// in order.
func hashOneByOne(funcs []Func, v []float32) []int32 {
	out := make([]int32, len(funcs))
	for i, f := range funcs {
		out[i] = f.Hash(v)
	}
	return out
}

func checkHashString(t *testing.T, label string, funcs []Func, v []float32) {
	t.Helper()
	got := HashString(funcs, v, nil)
	want := hashOneByOne(funcs, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: HashString[%d] = %d, function's Hash %d", label, i, got[i], want[i])
		}
	}
}

// boundaryRows returns rows t·e_j whose projection under fs[i] crosses a
// bucket boundary: t steps one float32 ulp at a time through the value at
// which (a_j·t + b)/w is an integer, so a_j·t, the only non-zero term of
// the dot product, straddles it. It reports whether the rows' hashes under
// fs[i] do differ, which a crossing makes them.
func boundaryRows(fs []Func, i, j, dim int) ([][]float32, bool) {
	h := fs[i].(*rpFunc)
	aj := float64(h.a[j])
	if aj == 0 {
		return nil, false
	}
	k := math.Floor(h.b/h.w) + 3
	t0 := float32((k*h.w - h.b) / aj)
	var rows [][]float32
	t := t0
	for s := 0; s < 40; s++ {
		t = math.Float32frombits(math.Float32bits(t) - 1)
	}
	crossed := false
	for s := 0; s < 80; s++ {
		v := make([]float32, dim)
		v[j] = t
		rows = append(rows, v)
		if len(rows) > 1 && fs[i].Hash(v) != fs[i].Hash(rows[len(rows)-2]) {
			crossed = true
		}
		t = math.Float32frombits(math.Float32bits(t) + 1)
	}
	return rows, crossed
}

// A NewFuncs set of random projections is hashed four functions per kernel
// pass from its block; every value must be the function's own Hash, bit
// for bit, at every dimension the kernel's loops and tail can split and
// every set size with and without a remainder: on Gaussian rows, on rows of
// extreme magnitude (whose dot products overflow to ±Inf or vanish into
// denormals), and on rows stepped across a bucket boundary one ulp at a time.
func TestHashStringMatchesHash(t *testing.T) {
	for _, dim := range []int{1, 7, 8, 15, 16, 17, 31, 128, 960, 961} {
		for _, m := range []int{1, 3, 4, 5, 32, 64} {
			label := fmt.Sprintf("dim %d m %d", dim, m)
			g := rng.New(uint64(dim*100 + m))
			fam := NewRandomProjection(dim, 4)
			funcs := NewFuncs(fam, m, g)
			var rows [][]float32
			for r := 0; r < 8; r++ {
				rows = append(rows, g.GaussianVector(dim))
			}
			for _, mag := range []float32{1e-30, 1e-20, 1e15, 1e19, 3e38} {
				v := g.GaussianVector(dim)
				for j := range v {
					v[j] *= mag
				}
				rows = append(rows, v)
			}
			crossed := false
			for _, i := range []int{0, m / 2, m - 1} {
				b, c := boundaryRows(funcs, i, (i*7)%dim, dim)
				rows = append(rows, b...)
				crossed = crossed || c
			}
			if !crossed {
				t.Fatalf("%s: no boundary row crossed a bucket boundary", label)
			}
			for r, v := range rows {
				checkHashString(t, fmt.Sprintf("%s row %d", label, r), funcs, v)
			}
		}
	}
}

// NewFuncs must draw a random-projection set exactly as m calls of New on
// the same generator would: same vectors, offsets and width, bit for bit.
func TestNewFuncsDrawsAsNew(t *testing.T) {
	for _, dim := range []int{1, 17, 960} {
		fam := NewRandomProjection(dim, 2.5)
		set := NewFuncs(fam, 9, rng.New(5))
		g := rng.New(5)
		for i, f := range set {
			got, want := f.(*rpFunc), fam.New(g).(*rpFunc)
			if got.b != want.b || got.w != want.w || len(got.a) != len(want.a) {
				t.Fatalf("dim %d function %d: (b %g, w %g, %d dims), New draws (b %g, w %g, %d dims)",
					dim, i, got.b, got.w, len(got.a), want.b, want.w, len(want.a))
			}
			for j := range want.a {
				if math.Float32bits(got.a[j]) != math.Float32bits(want.a[j]) {
					t.Fatalf("dim %d function %d: a[%d] = %g, New draws %g", dim, i, j, got.a[j], want.a[j])
				}
			}
		}
	}
}

// Slices that are not runs of one set's rows go function by function: a
// set reversed, one element of a set replaced in place, functions drawn by
// New, a set's tail slice, two sets interleaved, and families mixed.
func TestHashStringHandAssembled(t *testing.T) {
	const dim = 19
	g := rng.New(11)
	fam := NewRandomProjection(dim, 3)
	set := NewFuncs(fam, 12, g)
	other := NewFuncs(fam, 12, g)
	reversed := make([]Func, len(set))
	for i, f := range set {
		reversed[len(set)-1-i] = f
	}
	replaced := NewFuncs(fam, 12, rng.New(11))
	replaced[5] = fam.New(g)
	var drawn, interleaved []Func
	for i := 0; i < 9; i++ {
		drawn = append(drawn, fam.New(g))
		interleaved = append(interleaved, set[i], other[i])
	}
	mixed := []Func{set[0], set[1], NewSimHash(dim).New(g), set[3], set[4], set[5], set[6], NewCrossPolytope(dim).New(g)}
	cases := map[string][]Func{
		"reversed": reversed, "replaced": replaced, "drawn": drawn,
		"tail": set[3:], "interleaved": interleaved, "mixed": mixed,
	}
	for r := 0; r < 20; r++ {
		v := g.GaussianVector(dim)
		for name, funcs := range cases {
			checkHashString(t, fmt.Sprintf("%s row %d", name, r), funcs, v)
		}
	}
}

// HashString panics, as a function's Hash does, on a vector of the wrong
// dimension, whether it reaches the four-row kernel or not.
func TestHashStringDimensionMismatch(t *testing.T) {
	for _, m := range []int{3, 4} {
		funcs := NewFuncs(NewRandomProjection(8, 1), m, rng.New(1))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("m %d: no panic on a vector of dimension 7", m)
				}
			}()
			HashString(funcs, make([]float32, 7), nil)
		}()
	}
}

var benchSink int32

// BenchmarkHashString hashes rows at the benchmark's build shapes
// (static-d16's m = 32, a d128 index's and static-d960's m = 64), one row
// per op: "block" is HashString over a NewFuncs set, four functions per
// kernel pass; "per-function" is every function's own Hash in turn, as
// HashString hashed every set before the block.
func BenchmarkHashString(b *testing.B) {
	for _, shape := range []struct{ d, m int }{{16, 32}, {128, 64}, {960, 64}} {
		g := rng.New(8)
		funcs := NewFuncs(NewRandomProjection(shape.d, 4), shape.m, g)
		rows := make([][]float32, 256)
		for i := range rows {
			rows[i] = g.GaussianVector(shape.d)
		}
		dst := make([]int32, shape.m)
		b.Run(fmt.Sprintf("d=%d,m=%d/block", shape.d, shape.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += HashString(funcs, rows[i%len(rows)], dst)[0]
			}
		})
		b.Run(fmt.Sprintf("d=%d,m=%d/per-function", shape.d, shape.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := rows[i%len(rows)]
				for j, f := range funcs {
					dst[j] = f.Hash(v)
				}
				benchSink += dst[0]
			}
		})
	}
}
