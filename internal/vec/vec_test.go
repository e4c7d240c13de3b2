package vec

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Errorf("Dot = %v, want 12", got)
	}
}

func TestDistance(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := Distance(a, b); got != 5 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := SquaredDistance(a, b); got != 25 {
		t.Errorf("SquaredDistance = %v, want 25", got)
	}
}

func TestNormAndNormalize(t *testing.T) {
	a := []float32{3, 4}
	if got := Norm(a); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	u := Normalize(a)
	if math.Abs(Norm(u)-1) > 1e-6 {
		t.Errorf("normalized norm = %v", Norm(u))
	}
	if a[0] != 3 {
		t.Errorf("Normalize mutated input")
	}
	NormalizeInPlace(a)
	if math.Abs(Norm(a)-1) > 1e-6 {
		t.Errorf("in-place normalized norm = %v", Norm(a))
	}
	z := []float32{0, 0}
	NormalizeInPlace(z)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero vector changed by normalize")
	}
}

func TestAngularDistance(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := AngularDistance(a, b); math.Abs(got-math.Pi/2) > 1e-6 {
		t.Errorf("orthogonal angle = %v, want π/2", got)
	}
	if got := AngularDistance(a, a); got != 0 {
		t.Errorf("self angle = %v, want 0", got)
	}
	c := []float32{-2, 0}
	if got := AngularDistance(a, c); math.Abs(got-math.Pi) > 1e-6 {
		t.Errorf("opposite angle = %v, want π", got)
	}
}

func TestCosineSimilarityClamps(t *testing.T) {
	// Nearly identical vectors can produce cos slightly above 1 in
	// floating point; the clamp keeps Acos defined.
	a := []float32{1e-3, 1e-3, 1e-3}
	if got := CosineSimilarity(a, a); got != 1 {
		t.Errorf("self similarity = %v, want exactly 1 after clamp", got)
	}
	if got := CosineSimilarity(a, []float32{0, 0, 0}); got != 0 {
		t.Errorf("zero-vector similarity = %v, want 0", got)
	}
}

func TestMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	gen := func() []float32 {
		v := make([]float32, 8)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		return v
	}
	for _, m := range []Metric{Euclidean, Angular} {
		f := func(uint8) bool {
			a, b, c := gen(), gen(), gen()
			dab, dba := m.Distance(a, b), m.Distance(b, a)
			if math.Abs(dab-dba) > 1e-9 {
				return false
			}
			if dab < 0 {
				return false
			}
			if m.Distance(a, a) > 1e-6 {
				return false
			}
			// Triangle inequality (both metrics satisfy it; angular
			// distance is a metric on the sphere).
			return m.Distance(a, c) <= dab+m.Distance(b, c)+1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestScaleAddClone(t *testing.T) {
	a := []float32{1, 2}
	Scale(a, 2)
	if a[0] != 2 || a[1] != 4 {
		t.Errorf("Scale: %v", a)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Errorf("Clone aliases input")
	}
	if !Equal(a, []float32{2, 4}) || Equal(a, c) || Equal(a, []float32{2}) {
		t.Errorf("Equal misbehaves")
	}
}

func TestMetricByName(t *testing.T) {
	if MetricByName("euclidean") != Euclidean || MetricByName("l2") != Euclidean {
		t.Error("euclidean lookup failed")
	}
	if MetricByName("angular") != Angular || MetricByName("cosine") != Angular {
		t.Error("angular lookup failed")
	}
	if MetricByName("nope") != nil {
		t.Error("unknown metric should be nil")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dot":  func() { Dot([]float32{1}, []float32{1, 2}) },
		"dist": func() { SquaredDistance([]float32{1}, []float32{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
