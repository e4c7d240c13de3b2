// Package vec provides the small dense-vector toolkit that every other
// package in this repository builds on: float32 vectors, the distance
// metrics evaluated in the paper (Euclidean and Angular), and a handful of
// in-place kernels used by the LSH families.
//
// Vectors are plain []float32 slices. All binary operations require equal
// lengths and panic otherwise; length mismatches are programming errors,
// not runtime conditions.
package vec

import "math"

// Dot returns the inner product of a and b, accumulated in float32 by
// the dispatched kernel and widened to float64 (see kernel.go: every
// distance-bearing value in this package is float32-valued so pairwise
// calls and block scans agree bitwise).
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return float64(dotRow(a, b, a))
}

// Dot4 returns the inner products of v with the four consecutive rows of
// block, each len(v) long: element r is Dot(block[r·d:(r+1)·d], v) bit for
// bit, computed in one pass that reads v once for the four rows.
func Dot4(block, v []float32) [4]float64 {
	if len(block) != 4*len(v) {
		panic("vec: dimension mismatch")
	}
	d0, d1, d2, d3 := dot4Row(block, v)
	return [4]float64{float64(d0), float64(d1), float64(d2), float64(d3)}
}

// SquaredDistance returns the squared Euclidean distance between a and
// b (float32-accumulated, widened to float64).
func SquaredDistance(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s, _ := sqRow(a, b, a, posInf)
	return float64(s)
}

// Distance returns the Euclidean distance between a and b. The sum of
// squares is taken in float32, and the value is exactly representable in
// float32, so block scans handing out float32 buffers reproduce it bit for
// bit when widened. A float32 sum of finite rows reaches +Inf only by
// overflowing (rows beyond about 1e19 apart): such a pair is scored again
// by Distance64, so every distance between finite rows is finite.
func Distance(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s, _ := sqRow(a, b, a, posInf)
	if s == posInf {
		return Distance64(a, b)
	}
	return euclideanFromSq(s)
}

// Distance64 is Distance with the sum of squares taken in float64: slower,
// but no pair of finite rows overflows it. It is what every Euclidean path
// scores a pair whose float32 sum overflowed with.
func Distance64(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	return math.Sqrt(refSquaredDistance(a, b))
}

// Norm returns the Euclidean norm of a (float32-accumulated square sum,
// float64 square root).
func Norm(a []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	return math.Sqrt(float64(dotRow(a, a, a)))
}

// Normalize returns a unit-norm copy of a. The zero vector is returned
// unchanged (there is no direction to normalize onto).
func Normalize(a []float32) []float32 {
	out := make([]float32, len(a))
	n := Norm(a)
	if n == 0 {
		copy(out, a)
		return out
	}
	inv := 1 / n
	for i, av := range a {
		out[i] = float32(float64(av) * inv)
	}
	return out
}

// NormalizeInPlace scales a to unit norm. The zero vector is left unchanged.
func NormalizeInPlace(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] = float32(float64(a[i]) * inv)
	}
}

// CosineSimilarity returns a·b / (|a||b|), clamped to [-1, 1].
// Either argument being the zero vector yields similarity 0. The dot
// product and squared norms come from the float32 kernels, combined in
// float64 exactly as the block scans do.
func CosineSimilarity(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	na2 := dotRow(a, a, a)
	nb2 := dotRow(b, b, b)
	if na2 == 0 || nb2 == 0 {
		return 0
	}
	c := float64(dotRow(a, b, a)) / (math.Sqrt(float64(na2)) * math.Sqrt(float64(nb2)))
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// AngularDistance returns the angle between a and b in radians, i.e.
// arccos of their cosine similarity, as used by the cross-polytope LSH
// family evaluation in the paper (θ(o,q) = cos⁻¹(o·q / |o||q|)). Like
// Distance, the value is float32-representable so pairwise and block
// paths agree bitwise.
func AngularDistance(a, b []float32) float64 {
	return float64(float32(math.Acos(CosineSimilarity(a, b))))
}

// Scale multiplies every entry of a by s, in place.
func Scale(a []float32, s float64) {
	for i := range a {
		a[i] = float32(float64(a[i]) * s)
	}
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Equal reports whether a and b have identical lengths and entries.
func Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Metric is a distance metric over float32 vectors. The two metrics the
// paper evaluates, Euclidean and Angular, are provided; LCCS-LSH itself is
// metric-agnostic and works with any metric that admits an LSH family.
type Metric interface {
	// Distance returns the distance between a and b. It must be
	// symmetric and non-negative, and zero for identical inputs.
	Distance(a, b []float32) float64
	// Name returns a short lowercase identifier ("euclidean", "angular").
	Name() string
}

type euclidean struct{}

func (euclidean) Distance(a, b []float32) float64 { return Distance(a, b) }
func (euclidean) Name() string                    { return "euclidean" }

type angular struct{}

func (angular) Distance(a, b []float32) float64 { return AngularDistance(a, b) }
func (angular) Name() string                    { return "angular" }

// HammingDistance counts coordinates where a and b differ; entries are
// treated as discrete symbols (any float mismatch counts as 1).
func HammingDistance(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	var d float64
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

type hamming struct{}

func (hamming) Distance(a, b []float32) float64 { return HammingDistance(a, b) }
func (hamming) Name() string                    { return "hamming" }

// JaccardDistance is 1 − |A∩B|/|A∪B| over sets encoded as binary
// indicator vectors (coordinate j nonzero ⇔ j ∈ set). Two empty sets are
// at distance 0.
func JaccardDistance(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	var inter, union float64
	for i := range a {
		x, y := a[i] != 0, b[i] != 0
		if x && y {
			inter++
		}
		if x || y {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return 1 - inter/union
}

type jaccard struct{}

func (jaccard) Distance(a, b []float32) float64 { return JaccardDistance(a, b) }
func (jaccard) Name() string                    { return "jaccard" }

// Euclidean is the l2 metric.
var Euclidean Metric = euclidean{}

// Angular is the angle metric θ(o,q) = cos⁻¹(o·q/|o||q|).
var Angular Metric = angular{}

// Hamming is the Hamming distance metric (bit-sampling LSH family).
var Hamming Metric = hamming{}

// Jaccard is the Jaccard set distance metric (MinHash LSH family).
var Jaccard Metric = jaccard{}

// MetricByName returns the metric registered under name, or nil if unknown.
func MetricByName(name string) Metric {
	switch name {
	case "euclidean", "l2":
		return Euclidean
	case "angular", "cosine":
		return Angular
	case "hamming":
		return Hamming
	case "jaccard", "minhash":
		return Jaccard
	}
	return nil
}
