package server

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"lccs"
)

// resultCache is a fixed-capacity LRU over search results. Entries are
// keyed by cacheKey, which folds in the index's write generation, so any
// change to the index — a write, a compaction, a shard swap-in, a
// Rebuild — orphans every earlier entry, and a dropped collection's
// entries can never match its re-created namesake, whose generation
// starts at a fresh epoch. Orphaned keys age out through normal LRU
// eviction — they can never be looked up again.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List               // front = most recently used
	byKey     map[string]*list.Element // value: *cacheEntry
	evictions uint64
}

type cacheEntry struct {
	key string
	res []lccs.Neighbor
	// next is the continuation token of a cached cursor page; "" for
	// one-shot results and exhausted pages.
	next string
}

// newResultCache returns an LRU holding up to capacity entries;
// capacity must be positive (callers disable caching by not
// constructing one).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached result for key, marking it most recently used.
// The returned slice is shared — callers must not mutate it.
func (c *resultCache) get(key string) ([]lccs.Neighbor, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.res, ent.next, true
}

// put stores a result (and, for cursor pages, its continuation token)
// under key, evicting the least recently used entry when the cache is
// full.
func (c *resultCache) put(key string, res []lccs.Neighbor, next string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.res, ent.next = res, next
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, next: next})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats returns the live entry count and the eviction counter. Hits and
// misses are counted once, as each collection's usage (the scrape's
// total.cache_hits and total.cache_misses).
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Enabled: true, Entries: c.ll.Len(), Evictions: c.evictions}
}

// cacheKey builds the lookup key for one query: the collection name,
// its index's write generation, k, the candidate budget, the query
// vector's exact float bit patterns, the canonical filter encoding, and
// the cursor token.
// The collection name is length-prefixed so tenants can never alias each
// other's entries, and the filter/cursor tails are length-prefixed so
// a filter's bytes cannot be confused with a cursor's. k and the budget
// are keyed at full width, as the request carried them: two requests
// share an entry only when they asked for the same thing.
func cacheKey(collection string, gen uint64, k, lambda int, q []float32, f *lccs.Filter, cursor string) string {
	buf := make([]byte, 0, 32+len(collection)+4*len(q)+len(cursor))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(collection)))
	buf = append(buf, collection...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lambda))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q)))
	for _, v := range q {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	fkey := f.AppendKey(nil)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fkey)))
	buf = append(buf, fkey...)
	buf = append(buf, cursor...)
	return string(buf)
}
