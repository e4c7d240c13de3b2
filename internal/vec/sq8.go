package vec

import "math"

// SQ8Store is a scalar-quantized mirror of a Store: each dimension d is
// affinely mapped onto 0..255 with code = round((v - min[d]) / scale[d]),
// cutting the scan bandwidth of candidate verification 4x. Distances
// computed against it are approximations — the index uses them only to
// rank candidates, then re-ranks the survivors against the exact
// float32 store — so the asymmetric kernels trade precision for one
// byte per dimension without touching recall after the re-rank.
//
// The query side never dequantizes rows. Per query, Prepare folds the
// codebook into a dim-sized adjusted vector (pooled by the caller):
//
//	euclidean: adj[d] = q[d] - min[d]
//	           dist² ≈ Σ_d (adj[d] - scale[d]·code)²
//	angular:   adj[d] = q[d]·scale[d], base = Σ_d q[d]·min[d]
//	           o·q ≈ base + Σ_d adj[d]·code, combined with the stored
//	           per-row norm of the dequantized vector
//
// so the inner loop is a pure int8×float32 kernel (AVX2: VPMOVZXBD +
// VCVTDQ2PS + VMULPS/VSUBPS/VADDPS) with no per-element branches.
type SQ8Store struct {
	codes []uint8 // n*dim codes, row-major, same layout as Store.data
	dim   int
	min   []float32 // per-dimension offset (dim entries)
	scale []float32 // per-dimension step (max-min)/255; 0 for constant dims
	norms []float32 // per-row Euclidean norm of the dequantized vector
}

// QuantizeSQ8 builds the quantized mirror of every row of s. The
// codebook is computed from s itself (per-dimension min/max), so a
// per-shard store gets a codebook matched to its own value range.
func QuantizeSQ8(s *Store) *SQ8Store {
	n, dim := s.Len(), s.Dim()
	qs := &SQ8Store{
		codes: make([]uint8, n*dim),
		dim:   dim,
		min:   make([]float32, dim),
		scale: make([]float32, dim),
		norms: make([]float32, n),
	}
	if n == 0 {
		return qs
	}
	maxv := make([]float32, dim)
	copy(qs.min, s.Row(0))
	copy(maxv, s.Row(0))
	for i := 1; i < n; i++ {
		row := s.Row(i)
		for d, v := range row {
			if v < qs.min[d] {
				qs.min[d] = v
			}
			if v > maxv[d] {
				maxv[d] = v
			}
		}
	}
	for d := range qs.scale {
		qs.scale[d] = (maxv[d] - qs.min[d]) / 255
	}
	dec := make([]float32, dim)
	for i := 0; i < n; i++ {
		row := s.Row(i)
		out := qs.row(i)
		for d, v := range row {
			if qs.scale[d] == 0 {
				out[d] = 0
				continue
			}
			c := math.RoundToEven(float64((v - qs.min[d]) / qs.scale[d]))
			if c < 0 {
				c = 0
			} else if c > 255 {
				c = 255
			}
			out[d] = uint8(c)
		}
		qs.DecodeInto(i, dec)
		qs.norms[i] = float32(math.Sqrt(float64(dotRow(dec, dec, dec))))
	}
	return qs
}

// RestoreSQ8 reassembles a quantized store from its persisted parts
// (the container loader). Slices are adopted, not copied.
func RestoreSQ8(dim int, min, scale, norms []float32, codes []uint8) *SQ8Store {
	return &SQ8Store{codes: codes, dim: dim, min: min, scale: scale, norms: norms}
}

// Len returns the number of quantized rows.
func (qs *SQ8Store) Len() int {
	if qs.dim == 0 {
		return 0
	}
	return len(qs.codes) / qs.dim
}

// Dim returns the vector dimensionality.
func (qs *SQ8Store) Dim() int { return qs.dim }

// Bytes returns the memory footprint of the codes plus codebook.
func (qs *SQ8Store) Bytes() int64 {
	return int64(len(qs.codes)) + 4*int64(len(qs.min)+len(qs.scale)+len(qs.norms))
}

// Codebook exposes the persisted parts for the container writer.
func (qs *SQ8Store) Codebook() (min, scale, norms []float32, codes []uint8) {
	return qs.min, qs.scale, qs.norms, qs.codes
}

// DecodeInto dequantizes row i into dst (len >= dim).
func (qs *SQ8Store) DecodeInto(i int, dst []float32) {
	for d, c := range qs.row(i) {
		dst[d] = qs.min[d] + qs.scale[d]*float32(c)
	}
}

// SQ8Supported reports whether m can be approximated by the quantized
// kernels. Euclidean and Angular are; the set metrics (Hamming,
// Jaccard) are not — quantization would change their values outright.
func SQ8Supported(m Metric) bool {
	switch m.(type) {
	case euclidean, angular:
		return true
	}
	return false
}

// SQ8Query holds the per-query quantized-scan state: the adjusted
// query vector and the affine base term. Callers keep one in their
// pooled search context so Prepare and the gather loop allocate
// nothing in steady state.
type SQ8Query struct {
	adj     []float32
	base    float32
	angular bool
}

// Prepare folds q and the codebook into the query state. It must be
// called once per query before GatherScoresInto; m must satisfy
// SQ8Supported.
func (qs *SQ8Store) Prepare(m Metric, q []float32, st *SQ8Query) {
	if cap(st.adj) < qs.dim {
		st.adj = make([]float32, qs.dim)
	}
	st.adj = st.adj[:qs.dim]
	st.base = 0
	switch m.(type) {
	case euclidean:
		st.angular = false
		for d, v := range q {
			st.adj[d] = v - qs.min[d]
		}
	case angular:
		st.angular = true
		var base float32
		for d, v := range q {
			st.adj[d] = v * qs.scale[d]
			base += v * qs.min[d]
		}
		st.base = base
	default:
		panic("vec: metric not supported by SQ8")
	}
}

// GatherScoresInto writes an approximate score for every id into
// out[:len(ids)] (out must be at least that long). Scores are monotone
// in the metric distance — smaller is closer — but are not distances:
// euclidean scores are squared distances against the dequantized rows,
// angular scores are negated cosines. The caller ranks by score and
// re-ranks the winners exactly. As in Store.GatherDistancesInto, the
// kernel that scores one row prefetches the next.
func (qs *SQ8Store) GatherScoresInto(ids []int32, st *SQ8Query, out []float32) {
	if len(out) < len(ids) {
		panic("vec: distance output buffer too short")
	}
	if len(ids) == 0 {
		return
	}
	row := qs.row(int(ids[0]))
	for j, id := range ids {
		next := row
		if j+1 < len(ids) {
			next = qs.row(int(ids[j+1]))
		}
		if !st.angular {
			out[j] = sq8SqRow(row, qs.scale, st.adj, next)
		} else if norm := qs.norms[id]; norm == 0 {
			out[j] = 0
		} else {
			out[j] = -(st.base + sq8DotRow(row, st.adj, next)) / norm
		}
		row = next
	}
}

// row returns the codes of row i as a capped view.
func (qs *SQ8Store) row(i int) []uint8 {
	off := i * qs.dim
	return qs.codes[off : off+qs.dim : off+qs.dim]
}

// PrefetchRow is Store.PrefetchRow for the quantized rows.
func (qs *SQ8Store) PrefetchRow(i int) { prefetchHead(qs.row(i), lineBytes) }
