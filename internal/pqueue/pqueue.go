// Package pqueue provides the two priority-queue shapes this repository
// needs: a generic binary heap with a caller-supplied ordering (used by the
// perturbation-vector generator, Algorithm 3, and the kd-tree baseline;
// the CSA's 2m-way merge keeps its own packed-key queue), and a bounded "k best" collector for nearest-neighbor
// verification.
package pqueue

// Heap is a binary heap over T ordered by a caller-supplied less function.
// If less(a, b) means "a has higher priority than b", Pop returns elements
// in priority order. The zero Heap is not usable; construct with New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// NewWithCapacity returns an empty heap with pre-allocated capacity.
func NewWithCapacity[T any](capacity int, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{items: make([]T, 0, capacity), less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the highest-priority element without removing it.
// It panics on an empty heap.
func (h *Heap[T]) Peek() T {
	if len(h.items) == 0 {
		panic("pqueue: Peek on empty heap")
	}
	return h.items[0]
}

// Pop removes and returns the highest-priority element.
// It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	if len(h.items) == 0 {
		panic("pqueue: Pop on empty heap")
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		best := l
		if r < n && h.less(h.items[r], h.items[l]) {
			best = r
		}
		if !h.less(h.items[best], h.items[i]) {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// Neighbor is one search result: the index of a data vector and its
// distance to the query under the index's metric. It is the one neighbor
// type of the tree — the k-best collectors fill it, the facade returns
// it (lccs.Neighbor is an alias) and the daemon encodes it — so a result
// row is never converted on its way out.
type Neighbor struct {
	// ID indexes into the data slice the index was built from.
	ID int `json:"id"`
	// Dist is the exact (verified) distance to the query.
	Dist float64 `json:"dist"`
}

// KBest collects the k smallest-distance Neighbors seen so far. It is a
// max-heap of size ≤ k keyed by distance, so the current worst retained
// neighbor is inspectable in O(1) — the standard top-k pattern for
// candidate verification.
type KBest struct {
	k     int
	items []Neighbor
}

// NewKBest returns a collector that retains the k nearest neighbors.
// k must be positive.
func NewKBest(k int) *KBest {
	if k <= 0 {
		panic("pqueue: NewKBest requires k > 0")
	}
	return &KBest{k: k, items: make([]Neighbor, 0, k)}
}

// Reset re-arms the collector for a fresh query with a (possibly new)
// k, retaining the underlying buffer — the pooled-context path that
// avoids one allocation per query. The zero KBest is valid to Reset.
func (b *KBest) Reset(k int) {
	if k <= 0 {
		panic("pqueue: KBest.Reset requires k > 0")
	}
	b.k = k
	b.items = b.items[:0]
}

// Len returns the number of neighbors currently retained.
func (b *KBest) Len() int { return len(b.items) }

// Cap returns k, the number of neighbors the collector retains.
func (b *KBest) Cap() int { return b.k }

// Full reports whether k neighbors are retained.
func (b *KBest) Full() bool { return len(b.items) == b.k }

// Worst returns the largest retained distance, or +Inf semantics via
// ok=false when fewer than k neighbors are retained.
func (b *KBest) Worst() (d float64, ok bool) {
	if len(b.items) < b.k {
		return 0, false
	}
	return b.items[0].Dist, true
}

// worse reports whether a ranks after b in the canonical (Dist, ID)
// result order. Breaking distance ties by id makes the retained set and
// the sorted output deterministic — the property cursor pagination
// leans on to keep per-source streams prefix-stable across re-fetches.
func worse(a, b Neighbor) bool {
	return a.Dist > b.Dist || (a.Dist == b.Dist && a.ID > b.ID)
}

// Add offers a neighbor; it is retained if fewer than k neighbors are held
// or if it improves on the current worst. Returns true if retained. The
// test for a row farther than the current worst is small enough to
// inline, so a caller offering many rows that miss the k nearest — an
// exact scan — pays one comparison for each.
func (b *KBest) Add(id int, dist float64) bool {
	if len(b.items) == b.k && dist > b.items[0].Dist {
		return false
	}
	return b.add(id, dist)
}

// add is Add past its inlined rejection.
func (b *KBest) add(id int, dist float64) bool {
	if len(b.items) < b.k {
		b.items = append(b.items, Neighbor{ID: id, Dist: dist})
		b.up(len(b.items) - 1)
		return true
	}
	nb := Neighbor{ID: id, Dist: dist}
	if !worse(b.items[0], nb) {
		return false
	}
	b.items[0] = nb
	b.down(0)
	return true
}

// Sorted returns the retained neighbors in ascending (Dist, ID) order.
// The collector remains usable afterwards.
func (b *KBest) Sorted() []Neighbor {
	return b.AppendSorted(nil)
}

// AppendSorted appends the retained neighbors to dst in ascending
// (Dist, ID) order and returns the extended slice. The collector remains
// usable afterwards; when dst has capacity, nothing is allocated.
func (b *KBest) AppendSorted(dst []Neighbor) []Neighbor {
	start := len(dst)
	dst = append(dst, b.items...)
	out := dst[start:]
	// Heap-sort in place on the appended copy: the max-heap invariant
	// lives on b.items, so the copy sorts without disturbing it.
	for i := len(out) - 1; i > 0; i-- {
		out[0], out[i] = out[i], out[0]
		siftDown(out[:i], 0)
	}
	return dst
}

func (b *KBest) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(b.items[i], b.items[parent]) {
			return
		}
		b.items[i], b.items[parent] = b.items[parent], b.items[i]
		i = parent
	}
}

func (b *KBest) down(i int) { siftDown(b.items, i) }

func siftDown(items []Neighbor, i int) {
	n := len(items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		big := l
		if r < n && worse(items[r], items[l]) {
			big = r
		}
		if !worse(items[big], items[i]) {
			return
		}
		items[i], items[big] = items[big], items[i]
		i = big
	}
}
