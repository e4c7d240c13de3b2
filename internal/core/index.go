// Package core implements the paper's primary contribution: the LCCS-LSH
// scheme (§4.1) and its multi-probe variant MP-LCCS-LSH (§4.2).
//
// Indexing phase: draw m i.i.d. LSH functions h_1..h_m from any LSH
// family, hash every data object o into the length-m hash string
// H(o) = [h_1(o), ..., h_m(o)], and build a Circular Shift Array over the
// n hash strings. Query phase: hash q the same way, retrieve the λ+k−1
// strings with the longest LCCS against H(q) from the CSA, verify them
// with exact distances, and return the k nearest.
//
// The scheme is LSH-family-independent: it supports any distance metric
// that admits an LSH family, and it exposes a single capacity parameter m
// (plus the per-query candidate budget λ).
//
// The data plane is flat: vectors live in a vec.Store (one contiguous
// float32 block) and every per-query scratch object — the CSA searcher,
// the hash-string buffer, the k-best collector, the multi-probe
// perturbation state — lives in one pooled searchCtx, so a steady-state
// SearchInto performs no heap allocations.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lccs/internal/csa"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// verifyBatch is the number of candidate ids drained from the CSA
// stream per batched distance gather. Large enough to amortize the
// per-batch dispatch, small enough that the id/distance scratch lives
// comfortably inside the pooled searchCtx.
const verifyBatch = 64

// Params configures an LCCS-LSH index.
type Params struct {
	// M is the hash-string length — the paper's single tunable indexing
	// parameter (§4, "it requires to tune only a single parameter m").
	M int
	// Seed drives all randomness (hash function draws); equal seeds
	// yield identical indexes.
	Seed uint64
	// Probes is the number of probing sequences per query of MP-LCCS-LSH
	// (§4.2), the unperturbed one included; the family's hash functions
	// must implement lshfamily.ProbeFunc. The paper evaluates
	// #probes ∈ {1, m+1, 2m+1, 4m+1, 8m+1}; Probes ≤ 1 is single-probe
	// LCCS-LSH.
	Probes int
	// MaxGap bounds the gap between adjacent modified positions in a
	// perturbation vector. The paper sets MAX_GAP = 2 in practice; 0
	// selects that default.
	MaxGap int
}

// defaultMaxGap is the paper's practical MAX_GAP setting.
const defaultMaxGap = 2

// maxAlt bounds the per-position alternative list length of a probe —
// ample: a position is rarely re-perturbed more than a few times before
// the score outgrows other positions.
const maxAlt = 16

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 {
		return fmt.Errorf("core: M must be positive, got %d", p.M)
	}
	if p.Probes < 0 || p.MaxGap < 0 {
		return fmt.Errorf("core: Probes and MaxGap must be non-negative, got %d and %d", p.Probes, p.MaxGap)
	}
	return nil
}

// SearchStats describes the work done by one query, used by the
// experiment harness.
type SearchStats struct {
	// Candidates is the number of distinct data objects verified with
	// an exact distance computation.
	Candidates int
	// Probes is the number of probing sequences issued (1 for
	// single-probe LCCS-LSH).
	Probes int
	// Comparisons is the number of hash-string comparisons performed by
	// the CSA's circular binary searches — the "rows touched" of the
	// retrieval phase, as opposed to the Candidates verified exactly.
	Comparisons int
	// BytesScanned is the vector-block memory traffic of the
	// verification phase, the bytes the kernels read: 4 bytes per
	// dimension a gather reads — all of a row, or, Euclidean, as far as the
	// checkpoint at which it could no longer enter the k-best collector
	// (vec.Store.GatherNearest).
	BytesScanned int64
	// FilterRejected counts candidates the accept predicate discarded
	// before any distance work (filtered searches only).
	FilterRejected int
}

// Index is an LCCS-LSH index over a fixed dataset, or an MP-LCCS-LSH one
// when built with Params.Probes > 1. It is safe for concurrent queries.
type Index struct {
	family lshfamily.Family
	funcs  []lshfamily.Func
	metric vec.Metric
	store  *vec.Store
	csa    *csa.CSA
	m      int
	seed   uint64

	// pfuncs, when non-nil, are the probing hooks of funcs on an
	// MP-LCCS-LSH index: every search then begins with the probes−1
	// perturbed probes of Algorithm 3, under the maxGap limit.
	pfuncs         []lshfamily.ProbeFunc
	probes, maxGap int

	buildTime time.Duration
	// ctxs pools searchCtx values: all per-query scratch in one object,
	// one Get/Put per query.
	ctxs sync.Pool
}

// searchCtx is the pooled per-query state: everything a search touches
// besides the immutable index, reused across queries so the steady-state
// hot path performs no heap allocations.
type searchCtx struct {
	s    *csa.Searcher
	hq   []int32      // hash-string buffer, H(q)
	best pqueue.KBest // k-best verification collector
	// batched-verification scratch: candidate ids drained from the CSA
	// stream and their gathered distances.
	ids   [verifyBatch]int32
	dists [verifyBatch]float64
	// multi-probe scratch (unused, zero-cost for single-probe indexes)
	alts     [][]lshfamily.Alternative
	probeStr []int32
	modPos   []int
	affected []int
	// bytes accumulates the vector-block bytes one query's verification
	// touched; reset on entry and read into the returned SearchStats.
	bytes int64
	// st is the query's candidate stream, Open's.
	st Stream
	// h scores every batch, or every other one, of a query whose
	// estimated work is large (split); made by the first such query, nil
	// until then.
	h *helper
}

// initPool installs the searchCtx pool; called once per constructed or
// decoded index.
func (ix *Index) initPool() {
	m := ix.m
	ix.ctxs.New = func() any {
		return &searchCtx{
			s:        ix.csa.NewSearcher(),
			hq:       make([]int32, m),
			alts:     make([][]lshfamily.Alternative, m),
			probeStr: make([]int32, m),
		}
	}
}

// Build constructs an LCCS-LSH index over data using the given LSH
// family. It is the row-slice convenience wrapper around BuildStore:
// the rows are packed once into a flat vec.Store, which the index
// retains.
func Build(data [][]float32, family lshfamily.Family, p Params) (*Index, error) {
	store, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return BuildStore(store, family, p)
}

// BuildStore constructs an LCCS-LSH index over the vectors of a flat
// store. The store is retained by reference and must not be mutated
// afterwards. Appends to an owning store the index got a Slice view of
// are fine — views are stable — which is how a DynamicIndex indexes the
// frozen prefix of its insert buffer while writers keep appending to it.
func BuildStore(store *vec.Store, family lshfamily.Family, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := store.Len()
	if n == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if store.Dim() != family.Dim() {
		return nil, fmt.Errorf("core: store has dimension %d, family expects %d", store.Dim(), family.Dim())
	}
	start := time.Now()
	g := rng.New(p.Seed)
	funcs := lshfamily.NewFuncs(family, p.M, g)
	var pfuncs []lshfamily.ProbeFunc
	if p.Probes > 1 {
		var ok bool
		if pfuncs, ok = lshfamily.ProbeFuncs(funcs); !ok {
			return nil, fmt.Errorf("core: family %q does not support multi-probe", family.Name())
		}
	}
	maxGap := p.MaxGap
	if maxGap == 0 {
		maxGap = defaultMaxGap
	}

	// Hash all objects in parallel; the flat block is handed straight to
	// the CSA. A random-projection set from NewFuncs shares one projection
	// block, which HashString scores four functions per kernel pass.
	m := p.M
	flat := make([]int32, n*m)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				lshfamily.HashString(funcs, store.Row(id), flat[id*m:(id+1)*m])
			}
		}(lo, hi)
	}
	wg.Wait()

	ix := &Index{
		family: family,
		funcs:  funcs,
		metric: family.Metric(),
		store:  store,
		csa:    csa.NewFromFlat(flat, n, m),
		m:      m,
		seed:   p.Seed,
		pfuncs: pfuncs,
		probes: p.Probes,
		maxGap: maxGap,
	}
	ix.initPool()
	ix.buildTime = time.Since(start)
	return ix, nil
}

// M returns the hash-string length.
func (ix *Index) M() int { return ix.m }

// Seed returns the seed the hash functions were drawn from.
func (ix *Index) Seed() uint64 { return ix.seed }

// N returns the number of indexed objects.
func (ix *Index) N() int { return ix.store.Len() }

// Metric returns the index's distance metric.
func (ix *Index) Metric() vec.Metric { return ix.metric }

// BuildTime returns the wall-clock indexing time.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Bytes returns the approximate memory footprint of the index: the CSA
// plus the hash functions (the dataset itself is not counted, matching the
// paper's index-size metric).
func (ix *Index) Bytes() int64 {
	return ix.csa.Bytes() + lshfamily.FuncsBytes(ix.funcs)
}

// HashQuery appends H(q) to dst[:0] and returns it; with cap(dst) ≥ M
// nothing is allocated. Indexes built with the same family, M and seed
// hash alike, so one H(q) serves every segment of a set.
func (ix *Index) HashQuery(q []float32, dst []int32) []int32 {
	return lshfamily.HashString(ix.funcs, q, dst)
}

// Search answers a c-k-ANNS query: it performs a (λ+k−1)-LCCS search of
// H(q) (§4.1) — plus, on a multi-probe index, the Probes−1 perturbed
// probes of Algorithm 3 merged into the same deduplicated candidate
// stream (§4.2) — verifies the candidates with exact distances, and
// returns the k nearest in ascending distance order. lambda is the
// candidate budget λ; larger values trade time for recall.
func (ix *Index) Search(q []float32, k, lambda int) []pqueue.Neighbor {
	return ix.SearchInto(q, k, lambda, nil)
}

// SearchInto is Search appending into dst (reset to dst[:0] first): the
// zero-allocation path for callers that reuse a result buffer. H(q) and
// the k-best collector come from the index's own pooled scratch.
func (ix *Index) SearchInto(q []float32, k, lambda int, dst []pqueue.Neighbor) []pqueue.Neighbor {
	dst = dst[:0]
	if k <= 0 || lambda <= 0 {
		return dst
	}
	ctx := ix.ctxs.Get().(*searchCtx)
	ctx.hq = ix.HashQuery(q, ctx.hq)
	ctx.best.Reset(k)
	ix.open(ctx, q, ctx.hq, 0, nil).verify(lambda+k-1, &ctx.best)
	dst = ctx.best.AppendSorted(dst)
	ix.ctxs.Put(ctx)
	return dst
}

// Stream is one query's candidate stream over one index, the paper's
// k-LCCS stream (§4.1, Algorithm 2), kept in the pooled searchCtx so that
// opening one allocates nothing. next yields what csa.Searcher.Next does,
// ids in non-increasing LCCS Length, less the rows dropped inside the
// stream: a tombstoned row, by an inlined word probe, then a row Filter's
// predicate rejects. It yields at most the candidate count that Verify,
// its one consumer, gives it; each row it yields uses up one unit, and so
// does, under ChargeDead, each dead row it drops.
type Stream struct {
	ix  *Index
	ctx *searchCtx
	q   []float32
	// The index covers ids [off, off+N) of a larger dataset whose
	// tombstones dead holds, one bit per id; ids past its end are live.
	off    uint
	dead   []uint64
	charge int // what a dropped dead row uses up of the count: 1 under ChargeDead
	accept func(local int) bool
	left   int // the count not yet used up
	// rejected counts the rows accept discarded, probes the probing
	// sequences Open issued.
	rejected, probes int
}

// Open runs Begin over the caller's H(q) = hq on pooled scratch, and on a
// multi-probe index issues the perturbed probes, returning the stream of a
// query that offers each verified row under id off+id and sees no row
// tombstoned in dead: a dead row is not prefetched, gathered or offered to
// the predicate, and counts neither as a candidate nor as filter-rejected.
func (ix *Index) Open(q []float32, hq []int32, off int, dead []uint64) *Stream {
	return ix.open(ix.ctxs.Get().(*searchCtx), q, hq, off, dead)
}

// open is Open on a drawn scratch.
func (ix *Index) open(ctx *searchCtx, q []float32, hq []int32, off int, dead []uint64) *Stream {
	ctx.s.Begin(hq)
	probes := 1
	if ix.pfuncs != nil { // the one place single- and multi-probe differ
		probes += ix.issueProbes(ctx, q, hq)
	}
	ctx.st = Stream{ix: ix, ctx: ctx, q: q, off: uint(off), dead: dead, probes: probes}
	return &ctx.st
}

// ChargeDead makes each dead row the stream drops use up one unit of its
// count, as facades do on unfiltered one-shot queries, whose count carries
// an allowance for the index's tombstones; otherwise a dead row is free.
func (st *Stream) ChargeDead() { st.charge = 1 }

// Filter restricts the stream to the rows accept (given index-local ids)
// admits. A rejected row costs no distance work and none of the count, so
// the stream drains on in LCCS order until the count is verified or the
// CSA exhausted; a count covering every row gives the brute-force answer
// over the matching rows.
func (st *Stream) Filter(accept func(local int) bool) { st.accept = accept }

// next yields the stream's next row, or false once the CSA or the count is
// exhausted.
func (st *Stream) next() (r csa.Result, ok bool) {
	for st.left > 0 {
		if r, ok = st.ctx.s.Next(); !ok {
			break // and an exhausted csa.Searcher stays so, at no cost
		}
		if g := uint(r.ID) + st.off; g>>6 < uint(len(st.dead)) && st.dead[g>>6]>>(g&63)&1 != 0 {
			st.left -= st.charge
			continue
		}
		if st.accept != nil && !st.accept(r.ID) {
			st.rejected++
			continue
		}
		st.left--
		return r, true
	}
	return csa.Result{}, false
}

// Verify consumes the stream: it verifies the first n candidates the
// stream yields into best (Reset by the caller, and perhaps shared with
// other indexes' streams), returns the scratch to the pool and the query's
// work counters.
func (st *Stream) Verify(n int, best *pqueue.KBest) SearchStats {
	stats := st.verify(n, best)
	st.ix.ctxs.Put(st.ctx)
	return stats
}

// verify is the one verification loop. It drains up to n candidates from
// the stream in batches of verifyBatch and feeds best under ids shifted by
// the stream's offset, scoring each batch with exact float32 distances. A
// query whose estimated work is large (split) starts ctx.h's goroutine,
// which scores every batch when the query is pipelined, the caller only
// draining, or else the odd batches, into a collector of its own merged
// into best at the end. Which batches are handed off depends only on n,
// the index's shape and the batch's index, so results, counts and bytes do
// not depend on scheduling and equal per-row verification in stream order,
// bit for bit (the argument is on helper). Each row is hinted to the cache
// a batch ahead of its scoring, on the core that scores it: here as its id
// leaves the stream, or by the helper as it takes the batch.
func (st *Stream) verify(n int, best *pqueue.KBest) SearchStats {
	ix, ctx, q, off := st.ix, st.ctx, st.q, int(st.off)
	st.left = n
	split, pipelined := ix.split(n)
	if split {
		if ctx.h == nil {
			ctx.h = newHelper(ix)
		}
		ctx.h.start(q, off, best, pipelined)
		defer ctx.h.stop()
	}
	ctx.bytes = 0
	verified := 0
	for batch := 0; ; batch++ {
		mine := !split || !pipelined && batch&1 == 0 // scored on this goroutine
		b := 0
		for r, ok := st.next(); ok; r, ok = st.next() {
			ctx.ids[b] = int32(r.ID)
			b++
			// Scored once the batch is full: the row's first lines
			// travel while the CSA finds the rest of the batch.
			if mine {
				ix.store.PrefetchRow(r.ID)
			}
			if b == verifyBatch {
				break
			}
		}
		if b == 0 {
			break // the stream or its count ran out
		}
		if mine {
			ctx.bytes += ix.scoreExact(ctx.ids[:b], ctx.dists[:], q, off, best)
		} else {
			ctx.h.hand(ctx.ids[:b], best)
		}
		verified += b
	}
	if split {
		ctx.bytes += ctx.h.merge(best)
	}
	stats := SearchStats{Candidates: verified, Probes: st.probes, Comparisons: ctx.s.Comparisons(), BytesScanned: ctx.bytes, FilterRejected: st.rejected}
	*st = Stream{ix: ix, ctx: ctx} // the pool keeps no caller's query, bitset or predicate
	return stats
}

// scoreExact gathers the exact float32 distances of ids, using dists (at
// least as long) as scratch, adds them to best under ids shifted by off
// and returns the bytes it read. A Euclidean row stops being read once it
// cannot enter best (vec.Store.GatherNearest), which changes what best
// keeps in nothing, only the bytes charged.
func (ix *Index) scoreExact(ids []int32, dists []float64, q []float32, off int, best *pqueue.KBest) int64 {
	if ix.metric == vec.Euclidean {
		return ix.store.GatherNearest(ids, q, off, best)
	}
	ix.store.GatherDistancesInto(ids, q, ix.metric, dists[:len(ids)])
	for i, id := range ids {
		best.Add(off+int(id), dists[i])
	}
	return int64(len(ids)) * int64(ix.store.Dim()) * 4
}

// Store returns the flat vector store backing the index (read-only).
func (ix *Index) Store() *vec.Store { return ix.store }
