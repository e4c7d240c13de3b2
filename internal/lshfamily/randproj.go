package lshfamily

import (
	"math"

	"lccs/internal/rng"
	"lccs/internal/stats"
	"lccs/internal/vec"
)

// RandomProjection is the p-stable LSH family for Euclidean distance
// (Datar et al., Eq. 1 of the paper):
//
//	h_{a,b}(o) = ⌊(a·o + b) / w⌋
//
// with a ~ N(0, I_d) and b uniform in [0, w).
type RandomProjection struct {
	dim int
	w   float64
}

// NewRandomProjection returns the family for dimension dim with bucket
// width w. w must be positive.
func NewRandomProjection(dim int, w float64) *RandomProjection {
	if dim <= 0 || !(w > 0) || math.IsInf(w, 1) {
		panic("lshfamily: NewRandomProjection requires dim > 0 and a finite w > 0")
	}
	return &RandomProjection{dim: dim, w: w}
}

// Name implements Family.
func (f *RandomProjection) Name() string { return "randproj" }

// Dim implements Family.
func (f *RandomProjection) Dim() int { return f.dim }

// W returns the bucket width.
func (f *RandomProjection) W() float64 { return f.w }

// Metric implements Family: Euclidean distance.
func (f *RandomProjection) Metric() vec.Metric { return vec.Euclidean }

// CollisionProb implements Family using Eq. 2 of the paper.
func (f *RandomProjection) CollisionProb(dist float64) float64 {
	return stats.RandomProjectionCollisionProb(f.w, dist)
}

// New implements Family.
func (f *RandomProjection) New(g *rng.RNG) Func {
	return &rpFunc{
		a: g.GaussianVector(f.dim),
		b: g.Float64() * f.w,
		w: f.w,
	}
}

type rpFunc struct {
	a []float32
	b float64
	w float64
}

// project returns (a·v + b)/w, whose floor is the hash value and whose
// fractional part drives the multi-probe scores.
func (h *rpFunc) project(v []float32) float64 {
	return (vec.Dot(h.a, v) + h.b) / h.w
}

// Hash implements Func.
func (h *rpFunc) Hash(v []float32) int32 {
	return int32(math.Floor(h.project(v)))
}

// Memory implements Memorier: the projection vector plus scalars.
func (h *rpFunc) Memory() int64 { return int64(len(h.a))*4 + 16 }

// Alternatives implements ProbeFunc. The candidate buckets are
// hash ± 1, hash ± 2, ..., ordered by the squared distance (in bucket-width
// units) between the projection and the boundary of the candidate bucket,
// exactly the x_i(δ)² score of Multi-Probe LSH: for the projection at
// fractional offset f within its bucket, bucket +δ costs (δ − f)² and
// bucket −δ costs (δ − 1 + f)².
func (h *rpFunc) Alternatives(v []float32, max int, dst []Alternative) []Alternative {
	dst = dst[:0]
	x := h.project(v)
	base := int32(math.Floor(x))
	f := x - math.Floor(x) // in [0,1)
	up, down := 1, 1       // next candidate offsets in each direction
	for len(dst) < max {
		// Distance from the projection to the near boundary of the
		// candidate bucket.
		upDist := float64(up) - f
		downDist := float64(down) - 1 + f
		if upDist*upDist <= downDist*downDist {
			dst = append(dst, Alternative{Value: base + int32(up), Score: upDist * upDist})
			up++
		} else {
			dst = append(dst, Alternative{Value: base - int32(down), Score: downDist * downDist})
			down++
		}
	}
	return dst
}
