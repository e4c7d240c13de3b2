package lccs

import (
	"cmp"
	"sync"

	"lccs/internal/core"
	"lccs/internal/idmap"
	"lccs/internal/obs"
	"lccs/internal/pqueue"
	"lccs/internal/vec"
)

// The segment set is the one state value behind every facade, and the one
// place the query procedure of the paper (§4.1) is written down.
//
// A segment is an immutable CSA index over a contiguous run of rows of the
// set's flat vector store. The segments tile the slots [0, indexed); the
// rows [indexed, store.Len()) are the tail, which no CSA covers and every
// query scans exactly. Index is the immutable S-segment, empty-tail case;
// DynamicIndex a lock and write bookkeeping around a set whose tail is the
// insert buffer.
//
// The budget rule. A query's candidate budget λ is divided across the
// segments, ⌈λ/S⌉ each, so a given budget means comparable verification
// work on every facade — except that a λ covering every live indexed row
// is not divided: segments are uneven once a DynamicIndex has built a few
// in the background, and an exhaustive budget must reach the largest of
// them whole for "λ ≥ n equals brute force" to hold. Before any of that
// arithmetic, Query.resolve caps k, a cursor's page size and λ at the
// set's row count: a value above it asks for nothing more.
//
// The merge. Every segment of a set is built under the set's one
// resolved configuration, so all hash with the same functions and q is
// hashed once. Every segment's verified rows and the tail's exact scan
// are offered, one source after another, to one k-best collector under
// the (Dist, slot) order; only then are slots translated to external ids.
// The top k of all verified rows under that total order is the top k of
// the per-segment top-k runs, so the answer is the one a merge of those
// runs would give.
//
// A cursor page is the same query fetched deeper (cursor.go): each
// segment still verifies the candidates of the first page's k, so every
// page ranks one fixed candidate set and a page is a range of ranks of
// that one (Dist, slot) order.
//
// Snapshot. freeze shares what never changes (segment indexes, store and
// attribute rows behind capped views) and clones what the source keeps
// mutating (the id map, the tombstone bitset, the segment table), so a
// snapshot answers its own point in time forever.
type segSet struct {
	// dynamic marks the set of a DynamicIndex: its tail is a result source
	// of every query and cursor (empty or not) and its id map is
	// materialised.
	dynamic bool
	// cfg is the fully resolved configuration (auto-derived bucket width
	// and the default budget filled in) every segment is built with, so a
	// set is seed-equivalent to one index over the same rows.
	cfg    Config
	metric vec.Metric
	// store holds every row, slot-ordered; segments index capped views.
	store   *vec.Store
	segs    []segment
	indexed int // slots [0, indexed) are covered by segs
	// ids maps store slots to the stable external ids results are
	// reported in; nil is the identity.
	ids *idmap.Map
	// dead is the tombstone set, keyed by slot: every scan drops these
	// rows as they leave the candidate stream.
	dead slotSet
	// attrs holds per-slot metadata; nil before any row carries some.
	attrs *vec.MetaStore
}

// segment is one immutable index over slots [off, off+core.N()).
type segment struct {
	core *core.Index
	off  int
	// dead counts the tombstones inside the segment: its budget allowance
	// on unfiltered one-shot queries.
	dead int
}

// setCtx is the pooled scratch of one query: H(q), computed once for
// every segment, and the one k-best collector every source verifies
// into.
type setCtx struct {
	hq   []int32
	best pqueue.KBest
}

var setCtxs = sync.Pool{New: func() any { return new(setCtx) }}

// adopt makes the set the state of a DynamicIndex (dynamic) or an Index:
// the id map is materialised for a DynamicIndex, which allocates from it,
// and nil while it is the identity on an Index; every segment's tombstone
// count is taken from the bitset.
func (s *segSet) adopt(dynamic bool) {
	s.dynamic = dynamic
	if dynamic && s.ids == nil {
		s.ids = idmap.New(s.store.Len())
	} else if !dynamic && s.ids.Identity() {
		s.ids = nil
	}
	for i := range s.segs {
		seg := &s.segs[i]
		seg.dead = s.dead.CountRange(seg.off, seg.off+seg.core.N())
	}
}

// freeze returns an independent copy of the set as it is now (see the
// Snapshot paragraph above), for the caller to adopt.
func (s *segSet) freeze() segSet {
	n := s.store.Len()
	f := *s
	f.store = s.store.Slice(0, n)
	f.segs = append([]segment(nil), s.segs...)
	f.attrs = s.attrs.Slice(n)
	f.dead = s.dead.Clone()
	if s.ids != nil {
		f.ids = s.ids.Clone()
	}
	return f
}

// The accessors every facade answers alike are the set's, promoted;
// DynamicIndex shadows the ones that read what its writers replace.

// Len returns the number of live (searchable) vectors: tombstoned rows
// are not counted.
func (s *segSet) Len() int { return s.store.Len() - s.dead.Count() }

// Dim returns the dimensionality of the vectors (0 before a DynamicIndex
// has seen its first).
func (s *segSet) Dim() int { return s.store.Dim() }

// Distance returns the configured metric's distance between two vectors.
func (s *segSet) Distance(a, b []float32) float64 { return s.metric.Distance(a, b) }

// Attrs returns the metadata of the live vector with the given external
// id, or nil.
func (s *segSet) Attrs(id int) Attrs {
	slot, ok := id, id >= 0 && id < s.store.Len()
	if s.ids != nil {
		slot, ok = s.ids.Slot(id)
	}
	if !ok || s.dead.Has(slot) {
		return nil
	}
	return s.attrs.Row(slot)
}

// Quantization reports the scan-time compression in effect ("" = none,
// QuantizeSQ8) and the first segment's effective per-query re-rank depth
// (0 when unquantized). A set with no segment yet verifies nothing through
// a quantized store, so it reports none.
func (s *segSet) Quantization() (kind string, rerank int) {
	if len(s.segs) == 0 || s.segs[0].core.SQ8() == nil {
		return "", 0
	}
	return s.cfg.Quantize, s.segs[0].core.Rerank()
}

// segBudget is the budget rule: one segment's share of λ.
func (s *segSet) segBudget(lambda int) int {
	n := len(s.segs)
	live := s.indexed
	for i := range s.segs {
		live -= s.segs[i].dead
	}
	if n <= 1 || lambda >= live {
		return lambda
	}
	return (lambda + n - 1) / n
}

// scan is the one per-segment step of every query: it runs segment i's
// core search over H(q) = hq for the k nearest under budget lambda,
// offering every verified row to best under its slot, and records a
// shard_scan span with rows-compared, candidates-verified, and
// bytes-scanned counters when traced. Tombstoned rows are dropped inside
// the candidate stream on every path (core.Scan.Dead), so the results
// are all live and a dead row is neither a candidate nor filter-rejected.
// What differs is the budget. inStream — every filtered query — drops
// dead rows (and rows failing f) for free. Otherwise a dropped dead row
// uses one slot of a budget widened by the segment's tombstone count,
// never past what the segment holds: the scan consumes the stream prefix
// λ + min(k0+dead, len) − 1 it always has. The candidates are always
// those of a k0-nearest query; k > k0 (a cursor's later page) verifies
// more of them, never others.
func (s *segSet) scan(i int, q []float32, hq []int32, k, k0, lambda int, f *Filter, inStream bool, best *pqueue.KBest, tr *Trace, parent int) core.SearchStats {
	seg := &s.segs[i]
	sc := core.Scan{Offset: seg.off, Dead: s.dead.words}
	if !inStream {
		// The allowance, and the one bit that tells the two paths apart:
		// ROADMAP's λ-pinning follow-up deletes these lines together with
		// the per-segment dead counters.
		n := seg.core.N()
		k, k0 = min(k, n), min(k0, n)
		lambda += min(seg.dead, n-k0)
		sc.ChargeDead = true
	} else if !f.Empty() {
		sc.Accept = func(local int) bool { return f.Matches(s.attrs.Row(local + seg.off)) }
	}
	if k > k0 {
		// The core verifies λ+k−1 candidates: trade budget for fetch size.
		nCand := lambda + k0 - 1
		k = min(k, nCand)
		lambda = nCand - k + 1
	}
	sp := tr.StartShardSpan(obs.StageShardScan, parent, i)
	stats := seg.core.SearchScan(q, hq, k, lambda, sc, best)
	if tr != nil {
		obs.ObserveDur(obs.StageShardScan, tr.FinishSpanCost(sp, int64(stats.Comparisons), int64(stats.Candidates), stats.BytesScanned))
	}
	return stats
}

// scanTail is the tail's step: an exact scan of the live rows matching f
// — one bulk kernel pass over the flat block — offered to best. The
// kernel reads every tail row's full float32 payload exactly once, dead
// or rejected rows included (Comparisons, BytesScanned); only live rows
// that pass the predicate count as candidates, matching the core
// accounting.
func (s *segSet) scanTail(q []float32, f *Filter, best *pqueue.KBest) core.SearchStats {
	lo, hi := s.indexed, s.store.Len()
	filtered := !f.Empty()
	stats := core.SearchStats{Comparisons: hi - lo, BytesScanned: int64(hi-lo) * int64(s.store.Dim()) * 4}
	s.store.Scan(lo, hi, q, s.metric, func(slot int, dist float64) {
		if s.dead.Has(slot) {
			return
		}
		if filtered && !f.Matches(s.attrs.Row(slot)) {
			stats.FilterRejected++
			return
		}
		stats.Candidates++
		best.Add(slot, dist)
	})
	return stats
}

// searchQuery is the one query of every facade: qr validated and
// clamped, H(q) computed once, each segment's verified rows under its
// share of the budget and the tail's exact scan offered to one k-best
// collector, its (Dist, slot) order appended into dst (reset first; dst
// may be nil), and external ids. Each segment verifies the candidates of
// a k0-nearest query, k0 being first capped at k: a cursor passes its
// first page size, a one-shot 0, which means k. The sources run in
// sequence on pooled scratch, so the unmetered path allocates nothing.
func (s *segSet) searchQuery(q []float32, qr Query, first int, dst []Neighbor) ([]Neighbor, error) {
	k, lambda, err := qr.resolve(q, s)
	if err != nil {
		return nil, err
	}
	k0 := min(cmp.Or(first, k), k)
	if s.store.Len() == 0 {
		return nil, nil
	}
	f, tr := qr.Filter, qr.Trace
	inStream := !f.Empty()
	root := tr.StartSpan(obs.StageQuery, -1) // nil-safe: -1 when untraced
	ctx := setCtxs.Get().(*setCtx)
	ctx.best.Reset(k)
	if len(s.segs) > 0 {
		// Every segment hashes with the set's one configuration.
		ctx.hq = s.segs[0].core.HashQuery(q, ctx.hq)
	}
	lamSeg := s.segBudget(lambda)
	for i := range s.segs {
		qr.Cost.addStats(s.scan(i, q, ctx.hq, k, k0, lamSeg, f, inStream, &ctx.best, tr, root)) // nil-safe
	}
	sources := len(s.segs)
	if s.dynamic {
		sp := tr.StartSpan(obs.StageBufferScan, root)
		st := s.scanTail(q, f, &ctx.best)
		qr.Cost.addStats(st)
		if tr != nil {
			obs.ObserveDur(obs.StageBufferScan, tr.FinishSpanCost(sp, int64(st.Comparisons), int64(st.Candidates), st.BytesScanned))
		}
		sources++
	}
	mergeSpan := -1
	if sources > 1 {
		mergeSpan = tr.StartSpan(obs.StageMerge, root)
	}
	dst = ctx.best.AppendSorted(dst[:0])
	setCtxs.Put(ctx)
	if s.ids != nil {
		// Results leave in the stable external id space.
		for i := range dst {
			dst[i].ID = s.ids.Ext(dst[i].ID)
		}
	}
	if tr != nil {
		if mergeSpan >= 0 {
			obs.ObserveDur(obs.StageMerge, tr.FinishSpanN(mergeSpan, int64(len(dst)), 0))
		}
		obs.ObserveDur(obs.StageQuery, tr.FinishSpan(root))
	}
	return dst, nil
}
