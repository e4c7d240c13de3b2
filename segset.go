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
// A segment is an immutable CSA index over a contiguous run of slots,
// verifying against the rows it was built over: a view of the block a
// dataset was packed or loaded into, or the frozen prefix of the insert
// buffer a background build indexed. The segments tile the slots
// [0, indexed); the rows after them are the tail, a block of its own that
// no CSA covers and every query scans exactly. Every row lives in exactly
// one block — only the tail grows, and only the tail is rewritten when
// its tombstoned rows are dropped — so a slot finds its row through the
// segment offsets (row, attrRow). Index is the immutable S-segment,
// empty-tail case; DynamicIndex a lock and write bookkeeping around a set
// whose tail is the insert buffer.
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
// Snapshot. freeze shares what never changes (segment indexes with their
// rows and attributes, the tail's rows and attributes behind capped views)
// and clones what the source keeps mutating (the id map, the tombstone
// bitset, the segment table), so a snapshot answers its own point in time
// forever.
type segSet struct {
	// dynamic marks the set of a DynamicIndex: its tail is a result source
	// of every query and cursor (empty or not) and its id map is
	// materialised.
	dynamic bool
	// cfg is the fully resolved configuration (auto-derived bucket width
	// and the default budget filled in) every segment is built with, so a
	// set is seed-equivalent to one index over the same rows.
	cfg     Config
	metric  vec.Metric
	segs    []segment
	indexed int // slots [0, indexed) are covered by segs
	// tail holds the rows of slots [indexed, indexed+tail.Len()), which no
	// segment covers; its dimensionality is the set's (0 before a
	// DynamicIndex has seen its first row).
	tail *vec.Store
	// tailAttrs holds the tail's per-row metadata by tail position; nil
	// before any tail row carries some.
	tailAttrs *vec.MetaStore
	// ids maps store slots to the stable external ids results are
	// reported in; nil is the identity.
	ids *idmap.Map
	// dead is the tombstone set, keyed by slot: every scan drops these
	// rows as they leave the candidate stream.
	dead slotSet
}

// segment is one immutable index over slots [off, off+core.N()); its rows
// are core.Store().
type segment struct {
	core *core.Index
	off  int
	// dead counts the tombstones inside the segment: its budget allowance
	// on unfiltered one-shot queries.
	dead int
	// attrs holds the metadata of the segment's rows by local slot; nil
	// when the set carried none as the segment was made.
	attrs *vec.MetaStore
}

// setCtx is the pooled scratch of one query: H(q), computed once for
// every segment, and the one k-best collector every source verifies
// into. accept is a filtered scan's predicate, bound once per context: it
// tests the scanned segment's row against the query's filter (f, attrs),
// so that a scan allocates no closure for it.
type setCtx struct {
	hq     []int32
	best   pqueue.KBest
	f      *Filter
	attrs  *vec.MetaStore
	accept func(local int) bool
}

var setCtxs = sync.Pool{New: func() any {
	c := new(setCtx)
	c.accept = func(local int) bool { return c.f.Matches(c.attrs.Row(local)) }
	return c
}}

// adopt makes the set the state of a DynamicIndex (dynamic) or an Index:
// the id map is materialised for a DynamicIndex, which allocates from it,
// and nil while it is the identity on an Index; every segment's tombstone
// count is taken from the bitset.
func (s *segSet) adopt(dynamic bool) {
	s.dynamic = dynamic
	if dynamic && s.ids == nil {
		s.ids = idmap.New(s.slots())
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
	n := s.tail.Len()
	f := *s
	f.tail = s.tail.Slice(0, n)
	f.tailAttrs = s.tailAttrs.Range(0, n)
	f.segs = append([]segment(nil), s.segs...)
	f.dead = s.dead.Clone()
	if s.ids != nil {
		f.ids = s.ids.Clone()
	}
	return f
}

// slots returns the number of rows the set holds, tombstoned ones
// included.
func (s *segSet) slots() int { return s.indexed + s.tail.Len() }

// segAt returns the segment covering an indexed slot: the last one
// starting at or before it.
func (s *segSet) segAt(slot int) *segment {
	lo, hi := 0, len(s.segs)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); s.segs[mid].off <= slot {
			lo = mid
		} else {
			hi = mid
		}
	}
	return &s.segs[lo]
}

// row returns the vector of a slot, a read-only view into the block that
// holds it.
func (s *segSet) row(slot int) []float32 {
	if slot >= s.indexed {
		return s.tail.Row(slot - s.indexed)
	}
	seg := s.segAt(slot)
	return seg.core.Store().Row(slot - seg.off)
}

// attrRow returns the metadata of a slot, nil when it carries none.
func (s *segSet) attrRow(slot int) Attrs {
	if slot >= s.indexed {
		return s.tailAttrs.Row(slot - s.indexed)
	}
	seg := s.segAt(slot)
	return seg.attrs.Row(slot - seg.off)
}

// source is one block of the set's rows: the slot of its first row, the
// rows and their metadata.
type source struct {
	off   int
	rows  *vec.Store
	attrs *vec.MetaStore
}

// sources returns every block of rows in slot order: each segment's, then
// the tail's.
func (s *segSet) sources() []source {
	out := make([]source, 0, len(s.segs)+1)
	for i := range s.segs {
		seg := &s.segs[i]
		out = append(out, source{seg.off, seg.core.Store(), seg.attrs})
	}
	return append(out, source{s.indexed, s.tail, s.tailAttrs})
}

// blocks returns the blocks of the set's rows in slot order.
func (s *segSet) blocks() []*vec.Store {
	var out []*vec.Store
	for _, src := range s.sources() {
		out = append(out, src.rows)
	}
	return out
}

// rowViews returns one read-only view per slot, in slot order; the blocks
// are shared, not copied.
func (s *segSet) rowViews() [][]float32 {
	out := make([][]float32, 0, s.slots())
	for _, src := range s.sources() {
		out = append(out, src.rows.Rows()...)
	}
	return out
}

// attrRows returns the attribute column's row count, 0 when the set keeps
// none. Each segment and the tail hold the metadata of their own rows, so
// attributes share their rows' lifetime; the container records one row
// count for the column, which trailing rows without metadata may or may
// not reach, depending on how the rows arrived. Every attribute store is a
// view of that column clamped to its own slots, so its end slot never
// passes the count, and the last store's end is the count.
func (s *segSet) attrRows() int {
	n := 0
	for _, src := range s.sources() {
		if src.attrs != nil {
			n = max(n, src.off+src.attrs.Len())
		}
	}
	return n
}

// setAttrs installs one attribute column over the set's segments, each
// segment a view of its own rows; a nil column clears it.
func (s *segSet) setAttrs(ms *vec.MetaStore) {
	for i := range s.segs {
		seg := &s.segs[i]
		seg.attrs = nil
		if seg.off < ms.Len() {
			seg.attrs = ms.Range(seg.off, seg.off+seg.core.N())
		}
	}
}

// compacted returns the set's live rows, in slot order, in one block, and
// their attribute column (nil when the set keeps none). The rows are
// gathered into a fresh block unless one block already holds them all,
// with no tombstone and no attribute column to rewrite.
func (s *segSet) compacted() (*vec.Store, *vec.MetaStore) {
	live, dim := s.Len(), s.tail.Dim()
	var attrs *vec.MetaStore
	if s.attrRows() > 0 {
		attrs = vec.NewMetaStore(live)
	}
	if dim == 0 {
		return vec.NewStore(0), attrs // never written: nothing to gather
	}
	srcs := s.sources()
	if attrs == nil && live == s.slots() {
		var whole *vec.Store
		for _, src := range srcs {
			if src.rows.Len() == live {
				whole = src.rows
			}
		}
		if whole != nil {
			return whole, nil
		}
	}
	block := make([]float32, 0, live*dim)
	for _, src := range srcs {
		for i := 0; i < src.rows.Len(); i++ {
			if !s.dead.Has(src.off + i) {
				block = append(block, src.rows.Row(i)...)
				if attrs != nil {
					attrs.Append(src.attrs.Row(i))
				}
			}
		}
	}
	store, _ := vec.FromBlock(dim, block)
	return store, attrs
}

// The accessors every facade answers alike are the set's, promoted;
// DynamicIndex shadows the ones that read what its writers replace.

// Len returns the number of live (searchable) vectors: tombstoned rows
// are not counted.
func (s *segSet) Len() int { return s.slots() - s.dead.Count() }

// Dim returns the dimensionality of the vectors (0 before a DynamicIndex
// has seen its first).
func (s *segSet) Dim() int { return s.tail.Dim() }

// Distance returns the configured metric's distance between two vectors.
func (s *segSet) Distance(a, b []float32) float64 { return s.metric.Distance(a, b) }

// Attrs returns the metadata of the live vector with the given external
// id, or nil.
func (s *segSet) Attrs(id int) Attrs {
	slot, ok := id, id >= 0 && id < s.slots()
	if s.ids != nil {
		slot, ok = s.ids.Slot(id)
	}
	if !ok || s.dead.Has(slot) {
		return nil
	}
	return s.attrRow(slot)
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

// scan is the one per-segment step of every query: it opens segment i's
// candidate stream over H(q) = ctx.hq and verifies its first λ + k0 − 1
// candidates into ctx.best under their slots, recording a shard_scan span
// with rows-compared, candidates-verified, and bytes-scanned counters when
// traced. Tombstoned rows are dropped inside the stream on every path, so
// the results are all live and a dead row is neither a candidate nor
// filter-rejected. What differs is the count. A filtered query drops dead
// rows (and rows failing f) for free. Otherwise each dropped dead row uses
// one unit of a count widened by the segment's tombstone count, never past
// what the segment holds: the scan consumes the stream prefix
// λ + min(k0+dead, len) − 1 it always has. The candidates are always those
// of a k0-nearest query; a collector deeper than k0 (a cursor's later
// page) ranks more of them, never others.
func (s *segSet) scan(i int, q []float32, ctx *setCtx, k0, lambda int, f *Filter, tr *Trace, parent int) core.SearchStats {
	seg := &s.segs[i]
	sp := tr.StartShardSpan(obs.StageShardScan, parent, i)
	st := seg.core.Open(q, ctx.hq, seg.off, s.dead.words)
	allowance := 0
	if f.Empty() {
		// The stream's allowance: ROADMAP item 6 deletes these lines,
		// ChargeDead and the per-segment dead counters together.
		k0 = min(k0, seg.core.N())
		allowance = min(seg.dead, seg.core.N()-k0)
		st.ChargeDead()
	} else {
		ctx.f, ctx.attrs = f, seg.attrs
		st.Filter(ctx.accept)
	}
	stats := st.Verify(lambda+k0-1+allowance, &ctx.best)
	if tr != nil {
		obs.ObserveDur(obs.StageShardScan, tr.FinishSpanCost(sp, int64(stats.Comparisons), int64(stats.Candidates), stats.BytesScanned))
	}
	return stats
}

// scanTail is the tail's step: an exact scan of the live rows matching f
// — one bulk kernel pass over the tail's block — offered to best. The
// kernel reads every tail row's full float32 payload exactly once, dead
// or rejected rows included (Comparisons, BytesScanned); only live rows
// that pass the predicate count as candidates, matching the core
// accounting.
func (s *segSet) scanTail(q []float32, f *Filter, best *pqueue.KBest) core.SearchStats {
	lo, n := s.indexed, s.tail.Len()
	filtered := !f.Empty()
	stats := core.SearchStats{Comparisons: n, BytesScanned: int64(n) * int64(s.tail.Dim()) * 4}
	s.tail.Scan(0, n, q, s.metric, func(i int, dist float64) {
		if s.dead.Has(lo + i) {
			return
		}
		if filtered && !f.Matches(s.tailAttrs.Row(i)) {
			stats.FilterRejected++
			return
		}
		stats.Candidates++
		best.Add(lo+i, dist)
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
	if s.slots() == 0 {
		return nil, nil
	}
	f, tr := qr.Filter, qr.Trace
	root := tr.StartSpan(obs.StageQuery, -1) // nil-safe: -1 when untraced
	ctx := setCtxs.Get().(*setCtx)
	ctx.best.Reset(k)
	if len(s.segs) > 0 {
		// Every segment hashes with the set's one configuration.
		ctx.hq = s.segs[0].core.HashQuery(q, ctx.hq)
	}
	lamSeg := s.segBudget(lambda)
	for i := range s.segs {
		qr.Cost.addStats(s.scan(i, q, ctx, k0, lamSeg, f, tr, root)) // nil-safe
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
	ctx.f, ctx.attrs = nil, nil
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
