// Package lshfamily implements the locality-sensitive hash families used
// by the paper (§2.2) and the probing hooks needed by MP-LCCS-LSH (§4.2):
//
//   - the p-stable random-projection family of Datar et al. for Euclidean
//     distance (Eq. 1, collision probability Eq. 2);
//   - the cross-polytope family of Andoni et al. for Angular distance
//     (Eq. 3, collision probability Eq. 4), with FALCONN-style fast
//     pseudo-random rotations;
//   - the bit-sampling family of Indyk–Motwani for Hamming distance;
//   - the MinHash family of Broder for Jaccard distance.
//
// LCCS-LSH is family-independent: it consumes only the Func interface, so
// any (R, cR, p1, p2)-sensitive family plugs in unchanged.
package lshfamily

import (
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// Func is a single LSH function h: R^d → Z. Implementations must be safe
// for concurrent use by multiple goroutines (index construction hashes
// data points in parallel).
type Func interface {
	// Hash returns the hash symbol of v.
	Hash(v []float32) int32
}

// Alternative is a candidate replacement hash value for one position of a
// query's hash string, with the score used to order perturbation vectors
// (lower score = more promising, as in Multi-Probe LSH and FALCONN).
type Alternative struct {
	Value int32
	Score float64
}

// ProbeFunc is a Func that can enumerate alternative hash values for
// multi-probe querying. Alternatives returns up to max alternatives in
// ascending score order, excluding the primary hash value; dst is an
// optional reusable buffer.
type ProbeFunc interface {
	Func
	Alternatives(v []float32, max int, dst []Alternative) []Alternative
}

// Family describes an LSH family: a generator of i.i.d. hash functions
// together with its metric and analytic collision probability.
type Family interface {
	// Name returns a short identifier ("randproj", "crosspolytope", ...).
	Name() string
	// Dim returns the input dimensionality.
	Dim() int
	// Metric returns the distance metric this family is sensitive to.
	Metric() vec.Metric
	// New draws a fresh i.i.d. hash function using g.
	New(g *rng.RNG) Func
	// CollisionProb returns the analytic probability that two points at
	// the given distance (in Metric units) collide under one hash
	// function.
	CollisionProb(dist float64) float64
}

// NewFuncs draws m i.i.d. hash functions from the family: the functions
// m calls of f.New(g) would draw. From a RandomProjection they share one
// m×d projection block, which HashString scores four functions at a time.
func NewFuncs(f Family, m int, g *rng.RNG) []Func {
	if rp, ok := f.(*RandomProjection); ok {
		return rp.newFuncs(m, g)
	}
	fs := make([]Func, m)
	for i := range fs {
		fs[i] = f.New(g)
	}
	return fs
}

// HashString computes H(o) = [h_1(o), ..., h_m(o)] into dst (allocated if
// nil or too short) and returns it. Wherever four consecutive functions are
// consecutive rows of one RandomProjection block — every run of four in a
// NewFuncs set — it scores them in one kernel pass over v (vec.Dot4); it
// hashes every other function, and the remainder of a set, one at a time.
// Either way dst[i] is funcs[i].Hash(v) bit for bit.
func HashString(funcs []Func, v []float32, dst []int32) []int32 {
	if cap(dst) < len(funcs) {
		dst = make([]int32, len(funcs))
	}
	dst = dst[:len(funcs)]
	for i := 0; i < len(funcs); {
		if i+4 <= len(funcs) && hash4(funcs[i:i+4], v, dst[i:i+4]) {
			i += 4
			continue
		}
		dst[i] = funcs[i].Hash(v)
		i++
	}
	return dst
}

// Memorier is implemented by hash functions that can report their memory
// footprint; used by the index-size accounting of the evaluation harness.
type Memorier interface {
	Memory() int64
}

// FuncsBytes sums the memory footprint of the given hash functions.
// Functions that do not implement Memorier count as 0.
func FuncsBytes(funcs []Func) int64 {
	var total int64
	for _, f := range funcs {
		if m, ok := f.(Memorier); ok {
			total += m.Memory()
		}
	}
	return total
}

// ProbeFuncs converts a slice of Funcs to ProbeFuncs, returning ok=false
// if any function does not support probing.
func ProbeFuncs(funcs []Func) ([]ProbeFunc, bool) {
	out := make([]ProbeFunc, len(funcs))
	for i, f := range funcs {
		pf, ok := f.(ProbeFunc)
		if !ok {
			return nil, false
		}
		out[i] = pf
	}
	return out, true
}
