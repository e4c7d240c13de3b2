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
	"lccs/internal/obs"
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
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 {
		return fmt.Errorf("core: M must be positive, got %d", p.M)
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
	// Reranked is the number of candidates re-ranked with exact float32
	// distances after the quantized (SQ8) scan; 0 on exact indexes.
	Reranked int
	// BytesScanned is the vector-block memory traffic of the
	// verification phase, the bytes the kernels read: SQ8 score gathers
	// cost 1 byte per dimension per candidate; float32 gathers, and the
	// exact re-rank of the SQ8 survivors, 4 bytes per dimension they read
	// — all of a row, or, Euclidean, as far as the checkpoint at which it
	// could no longer enter the k-best collector (vec.Store.GatherNearest).
	BytesScanned int64
	// FilterRejected counts candidates the accept predicate discarded
	// before any distance work (filtered searches only).
	FilterRejected int
}

// Add accumulates o into s (facades fold per-shard stats into one query
// record with it).
func (s *SearchStats) Add(o SearchStats) {
	s.Candidates += o.Candidates
	s.Probes += o.Probes
	s.Comparisons += o.Comparisons
	s.Reranked += o.Reranked
	s.BytesScanned += o.BytesScanned
	s.FilterRejected += o.FilterRejected
}

// Index is an LCCS-LSH index over a fixed dataset: single-probe as
// built, multi-probe once WrapMP has installed probe state on it.
// It is safe for concurrent queries.
type Index struct {
	family lshfamily.Family
	funcs  []lshfamily.Func
	metric vec.Metric
	store  *vec.Store
	csa    *csa.CSA
	m      int
	seed   uint64

	// sq8, when non-nil, is the scalar-quantized mirror of store:
	// candidate verification ranks by approximate quantized scores and
	// re-ranks the best rerank of them with exact distances.
	sq8    *vec.SQ8Store
	rerank int

	// mp, when non-nil, is the multi-probe state WrapMP installed: every
	// search then begins with its perturbed probes.
	mp *MPIndex

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
	// stream and their gathered distances / quantized scores.
	ids    [verifyBatch]int32
	dists  [verifyBatch]float64
	scores [verifyBatch]float32
	// quantized-path scratch: per-query SQ8 state, the approx-score
	// collector, and the sorted winners buffer for the exact re-rank.
	sq8q  vec.SQ8Query
	rr    pqueue.KBest
	rrBuf []pqueue.Neighbor
	// multi-probe scratch (unused, zero-cost for single-probe indexes)
	alts     [][]lshfamily.Alternative
	probeStr []int32
	modPos   []int
	affected []int
	// bytes accumulates the vector-block bytes one query's verification
	// touched; reset on entry and read into the returned SearchStats.
	bytes int64
	// h scores every other batch of a query whose candidates are large
	// (splitBytes); made by the first such query, nil until then.
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

	// Hash all objects in parallel; the flat block is handed straight to
	// the CSA.
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

// Family returns the LSH family backing the index.
func (ix *Index) Family() lshfamily.Family { return ix.family }

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

// Scan narrows one search for shard-local use; the zero value is the
// plain query.
type Scan struct {
	// Offset is added to every id offered to the collector: the index
	// covers a contiguous slice of a larger dataset starting at this
	// global id, so several shards verify into one collector without
	// remapping.
	Offset int
	// Dead is the tombstone bitset of that larger dataset, one bit per
	// global id (bit Offset+id for index-local id; ids past its end are
	// live). A candidate whose bit is set is dropped the moment it leaves
	// the CSA stream: no predicate call, no prefetch, no gather, and it
	// is counted neither as a candidate nor as filter-rejected.
	Dead []uint64
	// ChargeDead makes a dropped dead candidate use one slot of the
	// λ+k−1 verification budget; when false it is free, like a candidate
	// Accept rejects. Facades set it on unfiltered one-shot queries, whose
	// budget carries an allowance for the shard's tombstones.
	ChargeDead bool
	// Accept, when non-nil, restricts the search to the candidates it
	// admits. It receives index-local ids (before the Offset shift).
	// Rejected candidates are discarded before any distance work and do
	// not count toward the λ+k−1 verification budget, so the CSA stream
	// keeps draining (in LCCS order) until enough matching candidates are
	// verified or the stream is exhausted — the over-fetch ladder for
	// selective filters is built in. With an exhaustive budget (λ ≥ n)
	// every matching row is verified, making the result exactly the
	// brute-force answer over matching vectors.
	Accept func(id int) bool
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
	ix.scan(ctx, q, ctx.hq, k, lambda, &Scan{}, &ctx.best)
	dst = ctx.best.AppendSorted(dst)
	ix.ctxs.Put(ctx)
	return dst
}

// SearchScan is the one query path: Search narrowed by sc over the
// caller's H(q) = hq, offering each verified candidate to best (which
// the caller has Reset) under id sc.Offset+id, and returning the query's
// work counters. k sets the λ+k−1 candidate count and the SQ8 re-rank
// floor; best may hold more than k, as when several shards share it. All
// other scratch is pooled.
func (ix *Index) SearchScan(q []float32, hq []int32, k, lambda int, sc Scan, best *pqueue.KBest) SearchStats {
	if k <= 0 || lambda <= 0 {
		return SearchStats{}
	}
	ctx := ix.ctxs.Get().(*searchCtx)
	stats := ix.scan(ctx, q, hq, k, lambda, &sc, best)
	ix.ctxs.Put(ctx)
	return stats
}

// scan is SearchScan on a drawn scratch. A query whose candidates are
// large in full rows (splitBytes) starts ctx.h's goroutine first, so that
// it is running by the time verify hands it a batch.
func (ix *Index) scan(ctx *searchCtx, q []float32, hq []int32, k, lambda int, sc *Scan, best *pqueue.KBest) SearchStats {
	split := ix.sq8 == nil && int64(lambda+k-1)*int64(ix.store.Dim())*4 >= splitBytes
	if split {
		if ctx.h == nil {
			ctx.h = newHelper(ix)
		}
		ctx.h.start(q, sc.Offset, best.Cap())
	}
	ctx.s.Begin(hq)
	probes := 1
	if ix.mp != nil { // the one place single- and multi-probe differ
		probes += ix.mp.issueProbes(ctx, q, hq)
	}
	ctx.bytes = 0
	var start time.Time
	if sc.Accept != nil {
		start = time.Now()
	}
	verified, rejected, reranked := ix.verify(ctx, q, k, lambda+k-1, split, sc, best)
	if sc.Accept != nil {
		obs.ObserveDur(obs.StageFilter, time.Since(start))
	}
	return SearchStats{Candidates: verified, Probes: probes, Comparisons: ctx.s.Comparisons(), Reranked: reranked, BytesScanned: ctx.bytes, FilterRejected: rejected}
}

// EnableSQ8 attaches a scalar-quantized mirror of the index's store.
// Candidate verification then scans qs instead of the float32 store —
// one byte per dimension of memory traffic — collects the best rerank
// candidates by approximate score, and re-ranks those with exact
// distances, so returned distances are always exact. rerank values
// below the query's k are raised to k at query time. The metric must
// satisfy vec.SQ8Supported and qs must mirror the full store.
func (ix *Index) EnableSQ8(qs *vec.SQ8Store, rerank int) {
	if qs == nil {
		ix.sq8, ix.rerank = nil, 0
		return
	}
	if !vec.SQ8Supported(ix.metric) {
		panic(fmt.Sprintf("core: metric %q not supported by SQ8", ix.metric.Name()))
	}
	if qs.Len() != ix.store.Len() {
		panic("core: SQ8 store length mismatch")
	}
	if rerank <= 0 {
		rerank = defaultRerank(ix.store.Len())
	}
	ix.sq8 = qs
	ix.rerank = rerank
}

// SQ8 returns the attached quantized store, or nil (persistence hook).
func (ix *Index) SQ8() *vec.SQ8Store { return ix.sq8 }

// Rerank returns the configured exact re-rank depth (0 when exact).
func (ix *Index) Rerank() int {
	if ix.sq8 == nil {
		return 0
	}
	return ix.rerank
}

// defaultRerank picks a re-rank depth when the caller didn't: deep
// enough that SQ8 ranking noise around the cut line is overwhelmingly
// unlikely to evict a true neighbor, shallow enough to stay a small
// fraction of the verification budget.
func defaultRerank(n int) int {
	r := 64
	if n < r {
		r = n
	}
	if r < 1 {
		r = 1
	}
	return r
}

// verify is the one verification loop. It drains ctx.s in batches of
// verifyBatch until the budget of nCand candidates is spent or the stream
// is exhausted, and feeds best under ids shifted by sc.Offset. A candidate
// tombstoned in sc.Dead is dropped first, by an inlined word probe (free,
// or for one budget slot under sc.ChargeDead); one sc.Accept (when
// non-nil) rejects is dropped next, at the cost of one predicate call.
// An exact index scores each batch with float32 distances straight into
// best; an SQ8 index ranks by approximate quantized score into
// ctx.rr and then re-ranks the winners exactly (timed into the obs
// "rerank" stage histogram). When split (an exact query whose candidates
// are large, splitBytes), the odd batches go to ctx.h, whose goroutine
// scores them into a collector of its own, merged into best before verify
// returns. The hand-off points are fixed by batch parity, so results,
// counts and bytes do not depend on scheduling, and best ends holding
// what per-row verification in stream order would leave in it, bit for
// bit (the argument is on helper). Each candidate's row is hinted to the
// cache a batch ahead of its scoring, on the core that scores it: by this
// loop the moment its id leaves the stream, or by the helper as it takes
// the batch.
func (ix *Index) verify(ctx *searchCtx, q []float32, k, nCand int, split bool, sc *Scan, best *pqueue.KBest) (verified, rejected, reranked int) {
	quantized := ix.sq8 != nil
	if quantized {
		rr := ix.rerank
		if rr < k {
			rr = k
		}
		ix.sq8.Prepare(ix.metric, q, &ctx.sq8q)
		ctx.rr.Reset(rr)
	}
	if split {
		defer ctx.h.stop()
	}
	dead, off, charge, accept := sc.Dead, uint(sc.Offset), sc.ChargeDead, sc.Accept
	for batch, drained := 0, false; !drained && nCand > 0; batch++ {
		mine := !split || batch&1 == 0 // scored on this goroutine
		b := 0
		for b < verifyBatch && nCand > 0 {
			r, ok := ctx.s.Next()
			if !ok {
				drained = true
				break
			}
			if g := uint(r.ID) + off; g>>6 < uint(len(dead)) && dead[g>>6]>>(g&63)&1 != 0 {
				if charge {
					nCand--
				}
				continue
			}
			if accept != nil && !accept(r.ID) {
				rejected++
				continue
			}
			ctx.ids[b] = int32(r.ID)
			b++
			nCand--
			// Scored once the batch is full: the row's first lines
			// travel while the CSA finds the rest of the batch.
			if quantized {
				ix.sq8.PrefetchRow(r.ID)
			} else if mine {
				ix.store.PrefetchRow(r.ID)
			}
		}
		if b == 0 {
			break // the stream or the budget ran out on dropped rows
		}
		switch {
		case quantized:
			ix.sq8.GatherScoresInto(ctx.ids[:b], &ctx.sq8q, ctx.scores[:b])
			ctx.bytes += int64(b) * int64(ix.store.Dim())
			for i := 0; i < b; i++ {
				ctx.rr.Add(int(ctx.ids[i]), float64(ctx.scores[i]))
			}
		case !mine:
			ctx.h.hand(ctx.ids[:b], best)
		default:
			ctx.bytes += ix.scoreExact(ctx.ids[:b], ctx.dists[:], q, sc.Offset, best)
		}
		verified += b
	}
	if split {
		ctx.bytes += ctx.h.merge(best)
	}
	if !quantized {
		return verified, rejected, 0
	}
	start := time.Now()
	ctx.rrBuf = ctx.rr.AppendSorted(ctx.rrBuf[:0])
	for base := 0; base < len(ctx.rrBuf); base += verifyBatch {
		c := len(ctx.rrBuf) - base
		if c > verifyBatch {
			c = verifyBatch
		}
		for i := 0; i < c; i++ {
			ctx.ids[i] = int32(ctx.rrBuf[base+i].ID)
		}
		ctx.bytes += ix.scoreExact(ctx.ids[:c], ctx.dists[:], q, sc.Offset, best)
	}
	obs.ObserveDur(obs.StageRerank, time.Since(start))
	return verified, rejected, len(ctx.rrBuf)
}

// scoreExact gathers the exact float32 distances of ids, using dists (at
// least as long) as scratch, adds them to best under ids shifted by off
// and returns the bytes it read: the scoring step of an exact index and
// the re-rank step of a quantized one. A Euclidean row stops being read once it cannot
// enter best (vec.Store.GatherNearest), which changes what best keeps in
// nothing, only the bytes charged.
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

// Data returns the indexed vector with the given id (a view into the
// flat store; treat it as read-only).
func (ix *Index) Data(id int) []float32 { return ix.store.Row(id) }

// Store returns the flat vector store backing the index (read-only).
func (ix *Index) Store() *vec.Store { return ix.store }
