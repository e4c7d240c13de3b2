package vec

import "math"

// Kernel dispatch.
//
// The distance hot path is built on a small set of batched kernels that
// accumulate in float32 over the contiguous SoA block. Each kernel has
// two interchangeable implementations selected once at init through the
// function pointers below: hand-written AVX2 assembly on amd64 (unless
// built with -tags noasm or the CPU lacks AVX2) and an unrolled pure-Go
// mirror everywhere else.
//
// The two implementations are bit-identical by construction, not by
// accident: both accumulate into the same 2×8 float32 lane structure,
// reduce lanes with the same tree (lane pair add, high/low half add,
// two horizontal adds), use separate multiply and add (never FMA), and
// fold the scalar tail in sequentially after the vector reduction. A
// distance therefore does not depend on which implementation produced
// it, and the parity tests assert exact equality between the two. The
// assembly also prefetches (a fixed distance ahead in the block kernels,
// the caller's next row in the row kernels); that moves when memory is
// read, never what is computed, and is outside the contract.
//
// Everything above this layer — the exported pairwise helpers, the
// Metric singletons, Store.DistancesInto — routes through the same
// kernels, so a pairwise Distance call and a block scan agree bitwise.
// Distances are consequently float32-valued (widened to float64 at the
// API boundary); the Hamming and Jaccard metrics count in float64 but
// their values are small integers, exactly representable either way.
var (
	// sqBlock writes out[r] = Σ_d (block[r*dim+d] - q[d])² for each of
	// len(out) rows, dim = len(q), in float32.
	sqBlock func(block, q, out []float32) = sqBlockGeneric
	// dotNormBlock writes outDot[r] = Σ_d row·q and outNorm[r] = Σ_d row²
	// in a single pass over the block.
	dotNormBlock func(block, q, outDot, outNorm []float32) = dotNormBlockGeneric
	// sq8SqRow returns Σ_d (adj[d] - scale[d]·codes[d])², the asymmetric
	// int8×float32 squared-Euclidean kernel (adj[d] = q[d] - min[d]).
	sq8SqRow func(codes []uint8, scale, adj []float32, next []uint8) float32 = sq8SqRowGeneric
	// sq8DotRow returns Σ_d adj[d]·codes[d], the asymmetric dot kernel
	// (adj[d] = q[d]·scale[d]; caller adds the Σ q·min base term).
	sq8DotRow func(codes []uint8, adj []float32, next []uint8) float32 = sq8DotRowGeneric

	// Single-row variants returning by value. These exist (rather than
	// calling the block kernels with a one-element out slice) because a
	// call through a function pointer cannot be proven noescape, so a
	// stack out-buffer would be forced to the heap on every pairwise
	// distance — the hot verification path must stay at 0 allocs/op.
	//
	// Each, like the SQ8 kernels above, takes last the row its caller
	// will ask for next. A gather reads scattered rows, every one of
	// which would otherwise begin with cache misses no hardware
	// prefetcher can predict; the assembly requests next line by line as
	// it consumes the current row, so the misses overlap the arithmetic.
	// A caller with no next row — the pairwise helpers, the last row of a
	// gather — passes the row itself, and nothing is requested. next is
	// never read and changes no result; the pure-Go kernels ignore it.
	//
	// sqRow alone also takes a bound, and returns with the sum how many
	// elements it read. Every boundStride elements, while some remain, it
	// reduces a copy of its two banks through the same tree as the end of
	// the row and returns that partial at once if it exceeds bound. A bound
	// of +Inf (or NaN) never stops it, and the sum is then the unbounded
	// sum bit for bit: the pairwise helpers and GatherDistancesInto pass +Inf,
	// and rows of at most boundStride elements have no checkpoint at all.
	// A stopped partial never exceeds the full sum, so a caller whose bound
	// is the largest squared distance it would still accept (sqBound) loses
	// no row it wants by the stop:
	//
	//   - every lane adds squares, which are ≥ 0, and round-to-nearest
	//     addition of a non-negative never decreases a sum, so each lane
	//     only grows;
	//   - the reduction tree is monotone in each of its inputs, and the
	//     scalar tail adds only non-negatives, so a checkpoint's partial is
	//     ≤ the final sum (an overflow to +Inf stays +Inf; a NaN, from a
	//     NaN input or ∞−∞, compares false and so never stops the row);
	//   - euclideanFromSq is monotone, so partial > sqBound(w) means the
	//     final distance is > w, which a k-best collector whose worst is w
	//     rejects before any id tie-break.
	//
	// Both implementations check at the same elements with the same tree,
	// so they agree on the stopping point as well as on the value.
	sqRow      func(a, b, next []float32, bound float32) (float32, int) = sqRowGeneric
	dotRow     func(a, b, next []float32) float32                       = dotRowGeneric
	dotNormRow func(a, q, next []float32) (float32, float32)            = dotNormRowGeneric

	// dot4Row returns the dot products of v with the four consecutive
	// rows of block, len(block) = 4·len(v): each is dotRow(row, v, row)
	// bit for bit. It is the hash functions' kernel (Dot4): one pass that
	// loads each element of v once for four rows, on eight banks, where
	// four dotRow calls would load it four times and wait on two banks'
	// add chains each.
	dot4Row func(block, v []float32) (d0, d1, d2, d3 float32) = dot4RowGeneric

	// kernelImpl names the selected implementation ("avx2" or "generic").
	kernelImpl = "generic"
)

// KernelImpl reports which kernel implementation init selected:
// "avx2" on amd64 with AVX2 available (and not built with -tags noasm),
// "generic" otherwise.
func KernelImpl() string { return kernelImpl }

// angularFromParts turns a float32 dot product and the two squared
// norms into the angular distance. It is the single combine step shared
// by the pairwise AngularDistance and the block/gather scans, so both
// produce bit-identical float64 distances. Zero-norm inputs yield π/2
// (cosine 0), matching CosineSimilarity's convention.
func angularFromParts(dot, na2, nb2 float32) float64 {
	if na2 == 0 || nb2 == 0 {
		return float64(float32(math.Acos(0)))
	}
	c := float64(dot) / (math.Sqrt(float64(na2)) * math.Sqrt(float64(nb2)))
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return float64(float32(math.Acos(c)))
}

// boundStride is how many elements sqRow consumes between two looks at
// its bound; the assembly hard-codes it as its 64-element step (four
// SQ16s and a SQCHECK). It is a multiple of the 16-element main-loop step,
// so a checkpoint always falls between two steps. See docs/PERFORMANCE.md,
// "Bounded verification", for the sweep that chose it.
const boundStride = 64

// posInf is the bound that never stops sqRow.
var posInf = float32(math.Inf(1))

// sqBound returns the largest float32 squared distance s whose Euclidean
// distance euclideanFromSq(s) is at most worst: a row whose squared sum
// exceeds it is farther than worst. It is +Inf for a worst of +Inf, NaN
// or below zero, none of which a finite bound can serve.
func sqBound(worst float64) float32 {
	if !(worst >= 0 && worst < math.Inf(1)) {
		return posInf
	}
	s := float32(worst * worst)
	for s > 0 && euclideanFromSq(s) > worst {
		s = math.Float32frombits(math.Float32bits(s) - 1)
	}
	for s < math.MaxFloat32 && euclideanFromSq(math.Float32frombits(math.Float32bits(s)+1)) <= worst {
		s = math.Float32frombits(math.Float32bits(s) + 1)
	}
	return s
}

// euclideanFromSq widens a float32 squared distance to the float64
// Euclidean distance. The square root is taken in float64 and rounded
// back to float32 so block scans can hand out float32 buffers whose
// widened values equal the pairwise Distance exactly.
func euclideanFromSq(sq float32) float64 {
	return float64(float32(math.Sqrt(float64(sq))))
}

// Naive scalar references. These are the float64-accumulating textbook
// loops the optimized kernels are validated against in the parity tests
// and the fuzz target. They are not used on any query path.

func refSquaredDistance(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func refDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func refNormSq(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return s
}
