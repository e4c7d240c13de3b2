package lccs

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lccs/internal/core"
	"lccs/internal/idmap"
	"lccs/internal/obs"
	"lccs/internal/pqueue"
	"lccs/internal/vec"
)

// ShardedIndex partitions a dataset across S shards, each an independent
// LCCS-LSH Index over a contiguous slice of the data. All shards share one
// fully resolved configuration — the same seed, hash-string length m, and
// bucket width (derived once from the full dataset) — so a sharded index
// is seed-equivalent to a single Index over the same data. The vectors
// live in one flat store shared by every shard (each shard holds a
// contiguous view), so sharding adds no per-shard copies.
//
// Sharding serves two purposes. Construction: the orders of one CSA are
// induced from one another, shift by shift, on one core, and S shards
// build S independent problems of size n/S in parallel, each over an S×
// smaller working set. Queries: a search fans out across all
// shards — concurrently when cores allow — and the per-shard top-k lists
// are combined by a tournament-tree merge into the global top-k.
//
// Query cost grows mildly with S (each shard runs its own binary searches
// and verifies its own candidate floor), so prefer the smallest shard
// count that saturates the hardware: GOMAXPROCS for build-heavy or
// mixed workloads (the default), 1 for tiny datasets.
//
// A ShardedIndex taken from DynamicIndex.Snapshot (or loaded from such a
// snapshot's file) also carries the snapshot's tombstones, as a bitset
// every shard scan probes: a tombstoned row is dropped as it leaves the
// candidate stream and reaches neither a distance kernel nor the merge.
//
// A ShardedIndex is safe for concurrent queries; per-query scratch (the
// per-shard result lists and the tournament merge) is pooled, so the
// sequential SearchInto path allocates nothing at steady state.
type ShardedIndex struct {
	cfg    Config
	store  *vec.Store
	shards []*Index
	// offsets[s] is the global id of the first vector of shard s;
	// offsets[len(shards)] == n. Shard s covers data[offsets[s]:offsets[s+1]].
	offsets   []int
	budget    int
	dim       int
	buildTime time.Duration
	// Lifecycle state carried over from a DynamicIndex snapshot (or a
	// loaded container's lifecycle section). All three stay nil on fresh
	// builds and on loads without that section, keeping the common path
	// untouched.
	//
	// ids maps dense store slots to the stable external ids results are
	// reported in; nil means the identity (slot == id).
	ids *idmap.Map
	// dead is the tombstone set keyed by store slot: these rows are
	// indexed positionally by the shard structures but every scan drops
	// them as they leave the candidate stream.
	dead slotSet
	// shardDead[s] counts tombstones inside shard s — its budget
	// allowance on unfiltered queries.
	shardDead []int
	// attrs holds per-slot metadata (global slot space, shared across
	// shards); nil when no vector carries attributes.
	attrs *vec.MetaStore
	// ctxs pools shardCtx values: the per-shard result buffers and the
	// tournament tree of one fan-out query.
	ctxs sync.Pool
}

// shardCtx is the pooled per-query scratch of a shard fan-out: one
// reusable result buffer and one stats slot per shard (written by each
// scan, summed after the fan-out joins — no atomics), and the merge
// tree.
type shardCtx struct {
	lists [][]pqueue.Neighbor
	stats []core.SearchStats
	t     pqueue.Tournament
}

// initPool installs the shardCtx pool; called once per constructed or
// loaded sharded index.
func (sx *ShardedIndex) initPool() {
	s := len(sx.shards)
	sx.ctxs.New = func() any {
		return &shardCtx{
			lists: make([][]pqueue.Neighbor, s),
			stats: make([]core.SearchStats, s),
		}
	}
}

// NewShardedIndex builds an LCCS-LSH index over data partitioned into the
// given number of shards. shards ≤ 0 selects GOMAXPROCS; the count is
// capped at len(data) so every shard is non-empty. All shard CSAs are
// built in parallel.
func NewShardedIndex(data [][]float32, cfg Config, shards int) (*ShardedIndex, error) {
	if len(data) == 0 {
		return nil, errors.New("lccs: empty dataset")
	}
	store, err := storeFromRows(data)
	if err != nil {
		return nil, err
	}
	return newShardedFromStore(store, cfg, shards)
}

// newShardedFromStore builds the sharded index over an owning flat
// store; every shard indexes a contiguous view of it.
func newShardedFromStore(store *vec.Store, cfg Config, shards int) (*ShardedIndex, error) {
	n := store.Len()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	cfg, err := resolveConfig(store, cfg)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	sx := &ShardedIndex{
		cfg:     cfg,
		store:   store,
		shards:  make([]*Index, shards),
		offsets: shardOffsets(n, shards),
		budget:  cfg.Budget,
		dim:     store.Dim(),
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sx.shards[s], errs[s] = newIndexFromStore(store.Slice(sx.offsets[s], sx.offsets[s+1]), cfg)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sx.initPool()
	sx.buildTime = time.Since(start)
	return sx, nil
}

// shardOffsets splits n items into an (shards+1)-entry offset table of
// near-equal contiguous ranges (the first n%shards ranges are one larger).
func shardOffsets(n, shards int) []int {
	offsets := make([]int, shards+1)
	base, rem := n/shards, n%shards
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		offsets[s+1] = offsets[s] + size
	}
	return offsets
}

// Search returns the k nearest neighbors of q across all shards with the
// index's default candidate budget, in ascending distance order. Ids are
// global: they index into the data slice the index was built from.
func (sx *ShardedIndex) Search(q []float32, k int) ([]Neighbor, error) {
	return sx.SearchQuery(q, Query{K: k}, nil)
}

// SearchInto is Search appending into dst (reset to dst[:0] first): the
// zero-allocation steady-state path.
func (sx *ShardedIndex) SearchInto(q []float32, k int, dst []Neighbor) ([]Neighbor, error) {
	return sx.SearchQuery(q, Query{K: k}, dst)
}

// SearchQuery answers qr, appending into dst (reset to dst[:0] first).
// The budget is divided across shards (⌈λ/S⌉ each), so each shard
// verifies ⌈λ/S⌉+k−1 candidates and the total verification work is
// ≈ λ+S·(k−1). An allocating call (dst == nil) may fan the shards out in
// goroutines; a call that reuses dst is meant for callers that already
// provide their own concurrency (batch workers, server handlers) and
// scans them sequentially. The merge is deterministic, so results are
// identical either way.
func (sx *ShardedIndex) SearchQuery(q []float32, qr Query, dst []Neighbor) ([]Neighbor, error) {
	return sx.searchQuery(q, qr, dst, dst == nil)
}

// searchQuery runs the fan-out/merge, with per-shard goroutines when
// parallel is set and more than one CPU is available. Per-shard stats
// land in pooled slots and are summed after the fan-out joins, so the
// parallel path needs no atomics and the sequential unmetered path
// allocates nothing.
func (sx *ShardedIndex) searchQuery(q []float32, qr Query, dst []Neighbor, parallel bool) ([]Neighbor, error) {
	lambda, err := qr.resolve(q, sx.dim, sx.budget)
	if err != nil {
		return nil, err
	}
	k, f, tr := qr.K, qr.Filter, qr.Trace
	filtered := !f.Empty()
	root := tr.StartSpan(obs.StageQuery, -1) // nil-safe: -1 when untraced
	ctx := sx.ctxs.Get().(*shardCtx)
	s := len(sx.shards)
	lambdaShard := (lambda + s - 1) / s
	if !parallel || s == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := range sx.shards {
			ctx.lists[i], ctx.stats[i] = sx.shard(i).scan(q, k, lambdaShard, f, filtered, ctx.lists[i], tr, root)
		}
	} else {
		var wg sync.WaitGroup
		for i := range sx.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx.lists[i], ctx.stats[i] = sx.shard(i).scan(q, k, lambdaShard, f, filtered, ctx.lists[i], tr, root)
			}(i)
		}
		wg.Wait()
	}
	mergeSpan := tr.StartSpan(obs.StageMerge, root)
	ctx.t.Reset(ctx.lists)
	if dst == nil {
		// The plain Search path: one exactly-sized result allocation.
		dst = make([]Neighbor, 0, k)
	}
	dst = dst[:0]
	for len(dst) < k {
		nb, ok := ctx.t.Pop()
		if !ok {
			break
		}
		// Ids leave in the stable external space (a no-op on fresh
		// builds).
		dst = append(dst, Neighbor{ID: sx.ids.Ext(nb.ID), Dist: nb.Dist})
	}
	if qr.Cost != nil {
		for i := range ctx.stats {
			qr.Cost.addStats(ctx.stats[i])
		}
	}
	sx.ctxs.Put(ctx)
	if tr != nil {
		obs.ObserveDur(obs.StageMerge, tr.FinishSpanN(mergeSpan, int64(len(dst)), 0))
		obs.ObserveDur(obs.StageQuery, tr.FinishSpan(root))
	}
	return dst, nil
}

// shardRef is one shard of a fan-out as the per-shard scan step sees it:
// the shard's index and position, plus the attribute rows and tombstone
// set of the whole slot space it is a slice of. An unsharded Index is
// its own single shard.
type shardRef struct {
	ix  *Index
	n   int // shard number, for span labels
	off int // global slot of the shard's first row
	// dead counts the tombstones inside the shard: its budget allowance
	// on unfiltered queries.
	dead  int
	attrs *vec.MetaStore
	tomb  []uint64 // tombstone bitset words of the whole slot space
}

// setDead installs the tombstone set a snapshot or a container's
// lifecycle section carries, and derives the per-shard counts from it.
func (sx *ShardedIndex) setDead(dead slotSet) {
	sx.dead = dead
	sx.shardDead = make([]int, len(sx.shards))
	for s := range sx.shardDead {
		sx.shardDead[s] = dead.CountRange(sx.offsets[s], sx.offsets[s+1])
	}
}

// asShard views an unsharded index as the single shard it is.
func (ix *Index) asShard() shardRef { return shardRef{ix: ix, attrs: ix.attrs} }

// shard returns the scan view of shard i.
func (sx *ShardedIndex) shard(i int) shardRef {
	sh := shardRef{ix: sx.shards[i], n: i, off: sx.offsets[i], attrs: sx.attrs, tomb: sx.dead.words}
	if sx.shardDead != nil {
		sh.dead = sx.shardDead[i]
	}
	return sh
}

// scan is the one per-shard step of every query: it runs the shard's
// core search for the k nearest under budget lambda, appending into dst
// (reset first) with ids shifted to the global slot space, and records a
// shard_scan span with rows-compared, candidates-verified, and
// bytes-scanned counters when traced. Tombstoned rows are dropped inside
// the candidate stream on every path (core.Scan.Dead), so the results
// are all live and a dead row is neither a candidate nor filter-rejected.
// What differs is the budget. inStream — every filtered query, every
// cursor page — drops dead rows (and rows failing f) for free. Otherwise
// a dropped dead row uses one slot of a budget widened by the shard's
// tombstone count, never past what the shard holds: the scan consumes the
// stream prefix λ + min(k+dead, len) − 1 it always has, and returns the k
// nearest live rows of it.
func (sh shardRef) scan(q []float32, k, lambda int, f *Filter, inStream bool, dst []pqueue.Neighbor, tr *Trace, parent int) ([]pqueue.Neighbor, core.SearchStats) {
	sc := core.Scan{Offset: sh.off, Dead: sh.tomb}
	if inStream {
		sc.Accept = sh.accept(f)
	} else {
		// The allowance, and the one bit that tells the two paths apart:
		// ROADMAP's λ-pinning follow-up deletes these lines together with
		// the per-shard dead counters.
		n := sh.ix.Len()
		k = min(k, n)
		lambda += min(sh.dead, n-k)
		sc.ChargeDead = true
	}
	sp := tr.StartShardSpan(obs.StageShardScan, parent, sh.n)
	dst, stats := sh.ix.core.SearchScan(q, k, lambda, sc, dst)
	if tr != nil {
		obs.ObserveDur(obs.StageShardScan, tr.FinishSpanCost(sp, int64(stats.Comparisons), int64(stats.Candidates), stats.BytesScanned))
	}
	return dst, stats
}

// accept builds the shard's filter predicate over shard-local ids; nil
// when every row passes.
func (sh shardRef) accept(f *Filter) func(int) bool {
	if f.Empty() {
		return nil
	}
	attrs, off := sh.attrs, sh.off
	return func(local int) bool { return f.Matches(attrs.Row(local + off)) }
}

// NewShardedIndexWithAttrs is NewShardedIndex with per-vector metadata:
// attrs[i] belongs to data[i]. attrs may be shorter than data but not
// longer.
func NewShardedIndexWithAttrs(data [][]float32, attrs []Attrs, cfg Config, shards int) (*ShardedIndex, error) {
	if len(attrs) > len(data) {
		return nil, ErrAttrsMismatch
	}
	sx, err := NewShardedIndex(data, cfg, shards)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0 {
		sx.attrs = vec.MetaFromRows(append([]Attrs(nil), attrs...))
	}
	return sx, nil
}

// Attrs returns the metadata of the vector with the given external id,
// or nil.
func (sx *ShardedIndex) Attrs(id int) Attrs {
	slot, ok := sx.slotFor(id)
	if !ok {
		return nil
	}
	return sx.attrs.Row(slot)
}

// slotFor resolves an external id to a live store slot.
func (sx *ShardedIndex) slotFor(id int) (int, bool) {
	slot := id
	if sx.ids != nil {
		s, ok := sx.ids.Slot(id)
		if !ok {
			return 0, false
		}
		slot = s
	}
	if slot < 0 || slot >= sx.slots() || sx.dead.Has(slot) {
		return 0, false
	}
	return slot, true
}

// Distance returns the index's metric distance between two vectors.
func (sx *ShardedIndex) Distance(a, b []float32) float64 {
	return sx.shards[0].Distance(a, b)
}

// Shards returns the number of shards.
func (sx *ShardedIndex) Shards() int { return len(sx.shards) }

// Shard returns the s-th shard's Index and the global id of its first
// vector. Exposed for benchmarking and inspection; treat it as read-only.
func (sx *ShardedIndex) Shard(s int) (*Index, int) { return sx.shards[s], sx.offsets[s] }

// M returns the hash-string length (identical across shards).
func (sx *ShardedIndex) M() int { return sx.shards[0].M() }

// Dim returns the dimensionality of the indexed vectors.
func (sx *ShardedIndex) Dim() int { return sx.dim }

// Len returns the number of live (searchable) vectors: tombstoned rows
// carried by a dynamic snapshot are not counted.
func (sx *ShardedIndex) Len() int { return sx.slots() - sx.dead.Count() }

// slots returns the total number of physical rows the shards index,
// including tombstoned ones — the length of the data slice Save/Load
// round-trips work with.
func (sx *ShardedIndex) slots() int { return sx.offsets[len(sx.offsets)-1] }

// Deleted returns the number of tombstoned rows this index carries
// (non-zero only for dynamic snapshots taken with pending deletes).
func (sx *ShardedIndex) Deleted() int { return sx.dead.Count() }

// Bytes returns the approximate total index memory footprint.
func (sx *ShardedIndex) Bytes() int64 {
	var total int64
	for _, shard := range sx.shards {
		total += shard.Bytes()
	}
	return total
}

// BuildTime returns the wall-clock time of the parallel build.
func (sx *ShardedIndex) BuildTime() time.Duration { return sx.buildTime }

// validateShardCount sanity-checks a decoded shard count against the
// dataset size.
func validateShardCount(shards, n int) error {
	if shards <= 0 || shards > n {
		return fmt.Errorf("lccs: corrupt shard count %d for %d vectors", shards, n)
	}
	return nil
}
