package lccs

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"lccs/internal/core"
	"lccs/internal/vec"
)

// ShardedIndex partitions a dataset across S shards, each an independent
// LCCS-LSH index over a contiguous slice of the data — the immutable
// S-segment case of the segment set (segset.go). All shards share one
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
// shards — concurrently when cores allow — and the set merges the
// per-shard top-k lists into the global top-k.
//
// Query cost grows mildly with S (each shard runs its own binary searches
// and verifies its own candidate floor), so prefer the smallest shard
// count that saturates the hardware: GOMAXPROCS for build-heavy or
// mixed workloads (the default), 1 for tiny datasets.
//
// A ShardedIndex taken from DynamicIndex.Snapshot (or loaded from such a
// snapshot's file) also carries the snapshot's id map and tombstones; on
// fresh builds and on loads without a lifecycle section both stay empty,
// keeping the common path untouched.
//
// A ShardedIndex is safe for concurrent queries; per-query scratch is
// pooled, so the sequential SearchInto path allocates nothing at steady
// state.
type ShardedIndex struct {
	segSet
	buildTime time.Duration
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
	sx := &ShardedIndex{segSet: segSet{cfg: cfg, store: store, segs: make([]segment, shards), indexed: n}}
	offsets := shardOffsets(n, shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var c *core.Index
			c, _, errs[s] = buildCore(store.Slice(offsets[s], offsets[s+1]), cfg)
			sx.segs[s] = segment{core: c, off: offsets[s]}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sx.metric = sx.segs[0].core.Metric()
	sx.adopt(kindSharded)
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
// An allocating call (dst == nil) may fan the shards out in goroutines;
// a call that reuses dst is meant for callers that already provide their
// own concurrency (batch workers, server handlers) and scans them
// sequentially. The merge is deterministic, so results are identical
// either way.
func (sx *ShardedIndex) SearchQuery(q []float32, qr Query, dst []Neighbor) ([]Neighbor, error) {
	return sx.searchQuery(q, qr, dst, dst == nil)
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

// Shards returns the number of shards.
func (sx *ShardedIndex) Shards() int { return len(sx.segs) }

// Shard returns the s-th shard as an Index of its own (no attributes, no
// tombstones) and the global id of its first vector. Exposed for
// benchmarking and inspection; treat it as read-only.
func (sx *ShardedIndex) Shard(s int) (*Index, int) {
	seg := sx.segs[s]
	return newIndex(seg.core, sx.cfg, sx.store.Slice(seg.off, seg.off+seg.core.N())), seg.off
}

// M returns the hash-string length (identical across shards).
func (sx *ShardedIndex) M() int { return sx.segs[0].core.M() }

// Deleted returns the number of tombstoned rows this index carries
// (non-zero only for dynamic snapshots taken with pending deletes).
func (sx *ShardedIndex) Deleted() int { return sx.dead.Count() }

// Bytes returns the approximate total index memory footprint.
func (sx *ShardedIndex) Bytes() int64 {
	var total int64
	for _, seg := range sx.segs {
		total += seg.core.Bytes()
	}
	return total
}

// BuildTime returns the wall-clock time of the parallel build.
func (sx *ShardedIndex) BuildTime() time.Duration { return sx.buildTime }
