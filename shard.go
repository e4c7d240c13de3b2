package lccs

import (
	"runtime"
	"sync"
	"time"

	"lccs/internal/core"
	"lccs/internal/vec"
)

// NewShardedIndex builds an LCCS-LSH index over data partitioned into the
// given number of shards. shards ≤ 0 selects GOMAXPROCS; the count is
// capped at len(data) so every shard is non-empty. The rows are packed
// once into one flat store, every shard indexes a contiguous view of it,
// and all shard CSAs are built in parallel.
func NewShardedIndex(data [][]float32, cfg Config, shards int) (*Index, error) {
	store, err := storeFromRows(data, cfg.Metric)
	if err != nil {
		return nil, err
	}
	n := store.Len()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	if cfg, err = resolveConfig(store, cfg); err != nil {
		return nil, err
	}

	start := time.Now()
	set := segSet{cfg: cfg, tail: vec.NewStore(store.Dim()), segs: make([]segment, shards), indexed: n}
	offsets := shardOffsets(n, shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var c *core.Index
			c, errs[s] = buildCore(store.Slice(offsets[s], offsets[s+1]), cfg)
			set.segs[s] = segment{core: c, off: offsets[s]}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	set.metric = set.segs[0].core.Metric()
	return indexOf(set, time.Since(start)), nil
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

// NewShardedIndexWithAttrs is NewShardedIndex with per-vector metadata:
// attrs[i] belongs to data[i]. attrs may be shorter than data (missing
// rows have no metadata) but not longer.
func NewShardedIndexWithAttrs(data [][]float32, attrs []Attrs, cfg Config, shards int) (*Index, error) {
	if len(attrs) > len(data) {
		return nil, ErrAttrsMismatch
	}
	ix, err := NewShardedIndex(data, cfg, shards)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0 {
		ix.setAttrs(vec.MetaFromRows(append([]Attrs(nil), attrs...)))
	}
	return ix, nil
}
