package lshfamily

import (
	"math"
	"sort"
	"testing"

	"lccs/internal/rng"
	"lccs/internal/vec"
)

func TestHashStringAndNewFuncs(t *testing.T) {
	g := rng.New(1)
	fam := NewRandomProjection(8, 4)
	funcs := NewFuncs(fam, 16, g)
	if len(funcs) != 16 {
		t.Fatalf("NewFuncs returned %d", len(funcs))
	}
	v := g.GaussianVector(8)
	h := HashString(funcs, v, nil)
	if len(h) != 16 {
		t.Fatalf("hash string length %d", len(h))
	}
	h2 := HashString(funcs, v, make([]int32, 16))
	for i := range h {
		if h[i] != h2[i] {
			t.Fatal("HashString not deterministic")
		}
	}
	// Different functions should not all agree (i.i.d. draws).
	allSame := true
	for i := 1; i < len(h); i++ {
		if h[i] != h[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("all 16 i.i.d. hash functions produced identical values")
	}
}

func TestProbeFuncsConversion(t *testing.T) {
	g := rng.New(2)
	fam := NewRandomProjection(4, 2)
	funcs := NewFuncs(fam, 3, g)
	pfs, ok := ProbeFuncs(funcs)
	if !ok || len(pfs) != 3 {
		t.Fatal("random projection funcs should support probing")
	}
}

// empiricalCollision estimates Pr[h(o) = h(q)] over fresh functions for a
// pair at controlled distance.
func empiricalCollision(t *testing.T, fam Family, makePair func(g *rng.RNG) ([]float32, []float32), trials int) (prob float64, dist float64) {
	t.Helper()
	g := rng.New(42)
	coll := 0
	var sumDist float64
	for i := 0; i < trials; i++ {
		o, q := makePair(g)
		h := fam.New(g)
		if h.Hash(o) == h.Hash(q) {
			coll++
		}
		sumDist += fam.Metric().Distance(o, q)
	}
	return float64(coll) / float64(trials), sumDist / float64(trials)
}

func TestRandomProjectionCollisionMatchesEq2(t *testing.T) {
	d := 16
	fam := NewRandomProjection(d, 4.0)
	for _, tau := range []float64{1.0, 4.0, 12.0} {
		makePair := func(g *rng.RNG) ([]float32, []float32) {
			o := g.GaussianVector(d)
			// Offset along a random unit direction by exactly tau.
			dir := vec.Normalize(g.GaussianVector(d))
			q := vec.Clone(o)
			for i := range q {
				q[i] += float32(tau) * dir[i]
			}
			return o, q
		}
		emp, avgDist := empiricalCollision(t, fam, makePair, 4000)
		if math.Abs(avgDist-tau) > 1e-3 {
			t.Fatalf("pair construction wrong: dist %v want %v", avgDist, tau)
		}
		want := fam.CollisionProb(tau)
		if math.Abs(emp-want) > 0.03 {
			t.Errorf("tau=%v: empirical %v vs analytic %v", tau, emp, want)
		}
	}
}

func TestCrossPolytopeBasics(t *testing.T) {
	fam := NewCrossPolytope(100)
	if fam.PaddedDim() != 128 {
		t.Fatalf("padded dim = %d, want 128", fam.PaddedDim())
	}
	g := rng.New(7)
	h := fam.New(g)
	v := vec.Normalize(g.GaussianVector(100))
	val := h.Hash(v)
	if val == 0 || val > 128 || val < -128 {
		t.Fatalf("hash value %d out of vertex range", val)
	}
	// Deterministic.
	if h.Hash(v) != val {
		t.Fatal("hash not deterministic")
	}
	// Scale invariance: the cross-polytope hash depends only on
	// direction.
	v2 := vec.Clone(v)
	vec.Scale(v2, 3.5)
	if h.Hash(v2) != val {
		t.Fatal("hash not scale invariant")
	}
}

func TestCrossPolytopeCloserPairsCollideMore(t *testing.T) {
	d := 64
	fam := NewCrossPolytope(d)
	pairAt := func(theta float64) func(g *rng.RNG) ([]float32, []float32) {
		return func(g *rng.RNG) ([]float32, []float32) {
			o := vec.Normalize(g.GaussianVector(d))
			r := g.GaussianVector(d)
			dot := vec.Dot(r, o)
			for i := range r {
				r[i] -= float32(dot) * o[i]
			}
			vec.NormalizeInPlace(r)
			q := make([]float32, d)
			for i := range q {
				q[i] = float32(math.Cos(theta))*o[i] + float32(math.Sin(theta))*r[i]
			}
			return o, q
		}
	}
	pClose, _ := empiricalCollision(t, fam, pairAt(0.4), 3000)
	pFar, _ := empiricalCollision(t, fam, pairAt(1.4), 3000)
	if pClose <= pFar {
		t.Fatalf("close pairs (%v) should collide more than far pairs (%v)", pClose, pFar)
	}
	if pClose < 0.3 {
		t.Errorf("pairs at θ=0.4 collide too rarely: %v", pClose)
	}
	if pFar > 0.2 {
		t.Errorf("pairs at θ=1.4 collide too often: %v", pFar)
	}
}

func TestFWHTOrthonormal(t *testing.T) {
	g := rng.New(3)
	v := g.GaussianVector(64)
	before := vec.Norm(v)
	buf := vec.Clone(v)
	fwht(buf)
	after := vec.Norm(buf)
	if math.Abs(before-after) > 1e-3 {
		t.Fatalf("FWHT changed norm: %v -> %v", before, after)
	}
	// Applying twice recovers the input (H is an involution up to
	// normalization; with 1/√n scaling, H² = I).
	fwht(buf)
	for i := range v {
		if math.Abs(float64(v[i]-buf[i])) > 1e-4 {
			t.Fatalf("FWHT² != identity at %d: %v vs %v", i, v[i], buf[i])
		}
	}
}

func TestCrossPolytopeRotationPreservesDistance(t *testing.T) {
	// The pseudo-random rotation must preserve inner products between
	// two vectors — this is what makes the family angle-sensitive.
	d := 48
	fam := NewCrossPolytope(d)
	g := rng.New(9)
	h := fam.New(g).(*cpFunc)
	a := vec.Normalize(g.GaussianVector(d))
	b := vec.Normalize(g.GaussianVector(d))
	ra, rb := h.rotate(a), h.rotate(b)
	got := vec.Dot((*ra)[:h.D], (*rb)[:h.D])
	want := vec.Dot(a, b)
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("rotation changed inner product: %v vs %v", got, want)
	}
}

func TestBitSampling(t *testing.T) {
	d := 32
	fam := NewBitSampling(d)
	if fam.Metric().Name() != "hamming" {
		t.Fatal("wrong metric")
	}
	g := rng.New(5)
	o := make([]float32, d)
	q := make([]float32, d)
	for i := range o {
		o[i] = float32(g.IntN(2))
		q[i] = o[i]
	}
	// Flip r bits; empirical collision should be ≈ 1 − r/d.
	r := 8
	for _, i := range g.Perm(d)[:r] {
		q[i] = 1 - q[i]
	}
	if got := vec.Hamming.Distance(o, q); got != float64(r) {
		t.Fatalf("hamming distance %v, want %d", got, r)
	}
	trials := 6000
	coll := 0
	for i := 0; i < trials; i++ {
		h := fam.New(g)
		if h.Hash(o) == h.Hash(q) {
			coll++
		}
	}
	emp := float64(coll) / float64(trials)
	want := fam.CollisionProb(float64(r))
	if math.Abs(emp-want) > 0.03 {
		t.Fatalf("empirical %v vs analytic %v", emp, want)
	}
	if fam.CollisionProb(float64(2*d)) != 0 {
		t.Error("collision prob should clamp at 0")
	}
}

func TestRandomProjectionAlternatives(t *testing.T) {
	g := rng.New(11)
	fam := NewRandomProjection(8, 4)
	h := fam.New(g).(*rpFunc)
	v := g.GaussianVector(8)
	primary := h.Hash(v)
	alts := h.Alternatives(v, 6, nil)
	if len(alts) != 6 {
		t.Fatalf("got %d alternatives", len(alts))
	}
	seen := map[int32]bool{primary: true}
	for i, a := range alts {
		if seen[a.Value] {
			t.Fatalf("duplicate alternative %d", a.Value)
		}
		seen[a.Value] = true
		if i > 0 && alts[i-1].Score > a.Score {
			t.Fatalf("alternatives not score-sorted at %d", i)
		}
		if a.Score < 0 {
			t.Fatalf("negative score")
		}
	}
	// The ±1 buckets must appear before ±3 buckets.
	pos := map[int32]int{}
	for i, a := range alts {
		pos[a.Value] = i
	}
	if p1, ok := pos[primary+1]; ok {
		if p3, ok3 := pos[primary+3]; ok3 && p3 < p1 {
			t.Error("bucket +3 ranked before +1")
		}
	}
}

func TestCrossPolytopeAlternatives(t *testing.T) {
	g := rng.New(13)
	fam := NewCrossPolytope(16)
	h := fam.New(g).(*cpFunc)
	v := vec.Normalize(g.GaussianVector(16))
	primary := h.Hash(v)
	alts := h.Alternatives(v, 10, nil)
	if len(alts) != 10 {
		t.Fatalf("got %d alternatives", len(alts))
	}
	if !sort.SliceIsSorted(alts, func(a, b int) bool { return alts[a].Score < alts[b].Score }) {
		t.Fatal("alternatives not sorted")
	}
	for _, a := range alts {
		if a.Value == primary {
			t.Fatal("primary vertex listed as alternative")
		}
		if a.Value == 0 || a.Value > 16 || a.Value < -16 {
			t.Fatalf("invalid vertex %d", a.Value)
		}
	}
	// The opposite vertex of the primary is the worst possible single
	// coordinate flip; it should score higher (worse) than the best
	// alternative.
	if alts[0].Value == -primary {
		t.Error("antipodal vertex ranked as best alternative")
	}
}

func TestBitSamplingAlternatives(t *testing.T) {
	g := rng.New(19)
	fam := NewBitSampling(8)
	h := fam.New(g).(bsFunc)
	v := []float32{1, 0, 1, 0, 1, 0, 1, 0}
	primary := h.Hash(v)
	alts := h.Alternatives(v, 3, nil)
	if len(alts) != 1 || alts[0].Value == primary {
		t.Fatalf("bad alternatives %+v", alts)
	}
}

func TestFamilyConstructorsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"rp dim": func() { NewRandomProjection(0, 1) },
		"rp w":   func() { NewRandomProjection(4, 0) },
		"cp":     func() { NewCrossPolytope(0) },
		"bits":   func() { NewBitSampling(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFamilyMetadata(t *testing.T) {
	cases := []struct {
		fam    Family
		name   string
		metric string
	}{
		{NewRandomProjection(4, 2), "randproj", "euclidean"},
		{NewCrossPolytope(4), "crosspolytope", "angular"},
		{NewBitSampling(4), "bitsampling", "hamming"},
	}
	for _, c := range cases {
		if c.fam.Name() != c.name {
			t.Errorf("Name = %s, want %s", c.fam.Name(), c.name)
		}
		if c.fam.Dim() != 4 {
			t.Errorf("%s: Dim = %d", c.name, c.fam.Dim())
		}
		if c.fam.Metric().Name() != c.metric {
			t.Errorf("%s: metric %s, want %s", c.name, c.fam.Metric().Name(), c.metric)
		}
	}
}
