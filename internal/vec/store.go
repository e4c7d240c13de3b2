package vec

import (
	"fmt"
	"math"
	"sync"

	"lccs/internal/pqueue"
	"lccs/internal/prefetch"
)

// Store is a flat structure-of-arrays vector store: n vectors of one
// fixed dimensionality packed back to back in a single contiguous
// []float32 block. Compared to a [][]float32 it removes one pointer
// indirection per vector access and keeps sequential scans (candidate
// verification, buffer scans) on a single cache-friendly stride, which
// is what the memory-bound query path needs.
//
// A Store is either owning (built with NewStore/FromRows, grown with
// Append) or a view (returned by Slice) that shares the owner's block.
// Vectors are immutable once stored; views therefore stay valid across
// later Appends to the owner (growth copies to a new block, and in-place
// growth writes only beyond the view's range). A view is capped at its
// last row, so an Append to a view copies it out to a block of its own.
type Store struct {
	data []float32
	dim  int
}

// NewStore returns an empty owning store. dim may be 0, in which case
// the first Append fixes the dimensionality.
func NewStore(dim int) *Store {
	if dim < 0 {
		panic("vec: negative dimension")
	}
	return &Store{dim: dim}
}

// FromRows packs rows into a fresh owning store, validating that every
// row has the same dimensionality.
func FromRows(rows [][]float32) (*Store, error) {
	if len(rows) == 0 {
		return &Store{}, nil
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, fmt.Errorf("vec: zero-dimensional row 0")
	}
	s := &Store{dim: dim, data: make([]float32, 0, len(rows)*dim)}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("vec: row %d has dimension %d, want %d", i, len(r), dim)
		}
		s.data = append(s.data, r...)
	}
	return s, nil
}

// FromBlock adopts an already-flat block of n·dim float32s as an owning
// store without copying it. The caller must not write through block
// afterwards.
func FromBlock(dim int, block []float32) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vec: non-positive dimension %d", dim)
	}
	if len(block)%dim != 0 {
		return nil, fmt.Errorf("vec: block of %d floats is not a multiple of dimension %d", len(block), dim)
	}
	return &Store{dim: dim, data: block[:len(block):len(block)]}, nil
}

// Block returns the store's contiguous float32 block as a read-only,
// capped view — the bulk-I/O counterpart of Row.
func (s *Store) Block() []float32 {
	return s.data[:len(s.data):len(s.data)]
}

// Len returns the number of stored vectors.
func (s *Store) Len() int {
	if s.dim == 0 {
		return 0
	}
	return len(s.data) / s.dim
}

// Dim returns the vector dimensionality (0 while the store is empty and
// was created with dim 0).
func (s *Store) Dim() int { return s.dim }

// Row returns a read-only view of vector i. The view is capped, so an
// append through it cannot clobber the following vector.
func (s *Store) Row(i int) []float32 {
	off := i * s.dim
	return s.data[off : off+s.dim : off+s.dim]
}

// Append copies v into the store and returns its index. The first
// Append on a dim-0 store fixes the dimensionality; afterwards a length
// mismatch is a programming error and panics, matching the package's
// vector-length contract.
func (s *Store) Append(v []float32) int {
	if s.dim == 0 {
		if len(v) == 0 {
			panic("vec: empty vector")
		}
		s.dim = len(v)
	}
	if len(v) != s.dim {
		panic(fmt.Sprintf("vec: appending %d-dimensional vector to %d-dimensional store", len(v), s.dim))
	}
	s.data = append(s.data, v...)
	return len(s.data)/s.dim - 1
}

// Slice returns a view over vectors [lo, hi) sharing this store's block.
func (s *Store) Slice(lo, hi int) *Store {
	return &Store{data: s.data[lo*s.dim : hi*s.dim : hi*s.dim], dim: s.dim}
}

// Copy returns a fresh owning store holding vectors [lo, hi): unlike a
// Slice, it keeps nothing of the receiver's block alive.
func (s *Store) Copy(lo, hi int) *Store {
	out := &Store{dim: s.dim}
	if hi > lo {
		out.data = append([]float32(nil), s.data[lo*s.dim:hi*s.dim]...)
	}
	return out
}

// Rows materializes per-vector views (headers only; the block is
// shared). Used by snapshot paths that hand data back through the
// public [][]float32 API.
func (s *Store) Rows() [][]float32 {
	out := make([][]float32, s.Len())
	for i := range out {
		out[i] = s.Row(i)
	}
	return out
}

// Bytes returns the memory footprint of the stored block.
func (s *Store) Bytes() int64 { return int64(len(s.data)) * 4 }

// CompactCopy returns a fresh owning store holding every row for which
// dead reports false, in order. The receiver's block is never mutated, so
// outstanding views (index shards, snapshot rows) stay exactly what they
// were; the caller adopts the returned store and the old block is
// released once the last view over it dies.
func (s *Store) CompactCopy(dead func(i int) bool) *Store {
	n := s.Len()
	live := 0
	for i := 0; i < n; i++ {
		if !dead(i) {
			live++
		}
	}
	out := &Store{dim: s.dim, data: make([]float32, 0, live*s.dim)}
	for i := 0; i < n; i++ {
		if !dead(i) {
			out.data = append(out.data, s.Row(i)...)
		}
	}
	return out
}

// scanChunk is the number of rows a chunked scan pushes through the
// block kernels per pass.
const scanChunk = 256

// scanBufPool recycles the chunk buffers of Scan and DistancesInto.
// The block kernels are invoked through function pointers (AVX2 vs
// generic, chosen at init), which escape analysis cannot see through —
// a stack buffer would be moved to the heap on every call, costing an
// allocation per buffer scan. Each pooled block holds two scanChunk
// halves so the angular path's dot/norm pair shares one Get.
var scanBufPool = sync.Pool{New: func() any { return new([2 * scanChunk]float32) }}

// Scan walks vectors [lo, hi) and calls visit with each vector's metric
// distance to q. For the kernel-backed metrics (Euclidean, Angular) the
// rows are processed in blocks of scanChunk through DistancesInto and
// the float32 results widened — bit-identical to m.Distance by the
// kernel-layer contract; a Euclidean row whose float32 sum overflowed to
// +Inf is scored again by m.Distance, which takes it in float64. Other
// metrics take the per-row scalar path.
// It is the backing for exact buffer scans and brute-force verification.
func (s *Store) Scan(lo, hi int, q []float32, m Metric, visit func(id int, d float64)) {
	switch m.(type) {
	case euclidean, angular:
		bp := scanBufPool.Get().(*[2 * scanChunk]float32)
		buf := bp[:scanChunk]
		for base := lo; base < hi; base += scanChunk {
			c := hi - base
			if c > scanChunk {
				c = scanChunk
			}
			s.DistancesInto(base, base+c, q, m, buf[:c])
			for i := 0; i < c; i++ {
				d := float64(buf[i])
				if buf[i] == posInf {
					d = m.Distance(s.Row(base+i), q)
				}
				visit(base+i, d)
			}
		}
		scanBufPool.Put(bp)
	default:
		base := lo * s.dim
		for i := lo; i < hi; i++ {
			row := s.data[base : base+s.dim : base+s.dim]
			visit(i, m.Distance(row, q))
			base += s.dim
		}
	}
}

// DistancesInto is the block distance API: it computes the metric
// distance from q to every row in [lo, hi) and writes them into
// out[:hi-lo], which the caller provides (out must be at least that
// long). For Euclidean and Angular the whole range goes through the
// batched float32 kernels and the written values, widened to float64,
// equal m.Distance bit for bit, except a Euclidean row whose float32 sum
// of squares overflowed, written +Inf (Scan scores it again). Hamming
// distances are integral counts, also exact in float32. Jaccard and
// foreign metrics are computed per row in float64 and rounded to float32
// — use Scan where those must stay exact.
func (s *Store) DistancesInto(lo, hi int, q []float32, m Metric, out []float32) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if len(out) < n {
		panic("vec: distance output buffer too short")
	}
	out = out[:n]
	switch m.(type) {
	case euclidean:
		sqBlock(s.data[lo*s.dim:hi*s.dim], q, out)
		for i, v := range out {
			out[i] = float32(math.Sqrt(float64(v)))
		}
	case angular:
		qn2 := dotRow(q, q, q)
		bp := scanBufPool.Get().(*[2 * scanChunk]float32)
		dbuf, nbuf := bp[:scanChunk], bp[scanChunk:]
		for base := 0; base < n; base += scanChunk {
			c := n - base
			if c > scanChunk {
				c = scanChunk
			}
			blk := s.data[(lo+base)*s.dim : (lo+base+c)*s.dim]
			dotNormBlock(blk, q, dbuf[:c], nbuf[:c])
			for i := 0; i < c; i++ {
				out[base+i] = float32(angularFromParts(dbuf[i], nbuf[i], qn2))
			}
		}
		scanBufPool.Put(bp)
	default:
		for i := 0; i < n; i++ {
			out[i] = float32(m.Distance(s.Row(lo+i), q))
		}
	}
}

// GatherDistancesInto computes m.Distance(s.Row(ids[j]), q) for every
// id and writes the results into out[:len(ids)] (out must be at least
// that long). It is the candidate-verification primitive: ids come
// scattered from the CSA stream, so rows are gathered individually, but
// each one runs through the same float32 kernels as the block scans and
// the float64 results are exact for every built-in metric (Jaccard
// included — it never leaves float64 here). The kernel that scores row
// ids[j] is handed row ids[j+1] to prefetch.
func (s *Store) GatherDistancesInto(ids []int32, q []float32, m Metric, out []float64) {
	if len(out) < len(ids) {
		panic("vec: distance output buffer too short")
	}
	if len(ids) == 0 {
		return
	}
	switch m.(type) {
	case euclidean:
		row := s.Row(int(ids[0]))
		for j := range ids {
			next := s.rowAfter(ids, j, row)
			sq, _ := sqRow(row, q, next, posInf)
			out[j] = euclideanFromSq(sq)
			if sq == posInf {
				out[j] = Distance64(row, q)
			}
			row = next
		}
	case angular:
		qn2 := dotRow(q, q, q)
		row := s.Row(int(ids[0]))
		for j := range ids {
			next := s.rowAfter(ids, j, row)
			d, n2 := dotNormRow(row, q, next)
			out[j] = angularFromParts(d, n2, qn2)
			row = next
		}
	default:
		for j, id := range ids {
			out[j] = m.Distance(s.Row(int(id)), q)
		}
	}
}

// GatherNearest offers every row ids[j], in order, to best under id
// off+ids[j] at its Euclidean distance to q — what GatherDistancesInto
// followed by an Add per row would offer — and returns the vector bytes it
// read. It reads less than all of them: each row is scored under the
// bound sqBound of the worst distance best keeps, refreshed after every
// Add best retains, and a row whose partial sum passes that bound is
// abandoned at its checkpoint. Such a row is offered at its partial
// distance, which is already farther than best's worst, so best rejects
// it exactly as it would have rejected the full distance: what best holds
// afterwards does not depend on the bound (see sqRow in kernel.go). A best
// that is not full, or whose worst is +Inf, gives the bound +Inf.
func (s *Store) GatherNearest(ids []int32, q []float32, off int, best *pqueue.KBest) int64 {
	if len(ids) == 0 {
		return 0
	}
	// A row of at most boundStride elements has no checkpoint to use a
	// bound at, so none is worked out for it.
	bounded := len(q) > boundStride
	bound := posInf
	if bounded {
		bound = boundOf(best)
	}
	read := 0
	row := s.Row(int(ids[0]))
	for j, id := range ids {
		next := s.rowAfter(ids, j, row)
		sq, n := sqRow(row, q, next, bound)
		d := euclideanFromSq(sq)
		if sq == posInf {
			// Only an overflow takes a sum of finite rows to +Inf: the
			// row is scored again in float64, and read in full.
			d, n = Distance64(row, q), len(q)
		}
		read += n
		if best.Add(off+int(id), d) && bounded {
			bound = boundOf(best)
		}
		row = next
	}
	return int64(read) * 4
}

// boundOf is the sqRow bound a row must not exceed to enter best.
func boundOf(best *pqueue.KBest) float32 {
	if w, ok := best.Worst(); ok {
		return sqBound(w)
	}
	return posInf
}

// rowAfter returns the row a gather over ids reads after the one at
// position j, or cur, the row at j itself, when that is the last.
func (s *Store) rowAfter(ids []int32, j int, cur []float32) []float32 {
	if j+1 < len(ids) {
		return s.Row(int(ids[j+1]))
	}
	return cur
}

// headLines is how much of a row PrefetchRow asks for, in cache lines:
// a whole dim-16 row, and the start of a longer one, whose other lines the
// gather's own look-ahead (a row kernel's next argument) requests in
// time. One search of internal/core (n = 50 000, λ = 1 000; medians of 5)
// at dim 960 with 1 / 2 / 4 / 8 lines: 540 / 521 / 538 / 563 µs; whole
// rows overrun the L1, 64 candidates × 3 840 bytes to a batch.
const headLines = 2

// lineBytes is the cache-line size the prefetch strides assume.
const lineBytes = 64

// PrefetchRow hints that row i is about to be read by a gather: the
// caller names a candidate as soon as it knows the id, and the row's
// first lines travel while it finds the rest of the batch.
func (s *Store) PrefetchRow(i int) { prefetchHead(s.Row(i), lineBytes/4) }

// prefetchHead asks for the first headLines cache lines of row, whose
// elements go perLine to a line.
func prefetchHead[T any](row []T, perLine int) {
	for off := 0; off < len(row) && off < headLines*perLine; off += perLine {
		prefetch.T0(&row[off])
	}
}
