// Package csa implements the Circular Shift Array of the paper (§3.2): a
// suffix-array-inspired index over n equal-length strings that answers
// k-Longest-Circular-Co-Substring (k-LCCS) queries.
//
// The index consists of m sorted orders — one per circular shift — plus m
// "next links" that map a string's rank at shift i to its rank at shift
// (i+1) mod m (Algorithm 1). A query performs one full binary search at
// shift 0 and then narrows every subsequent shift's search range through
// the next links (Lemma 3.1 / Corollary 3.2), finally merging the 2m
// sorted neighborhoods with a priority queue to emit candidates in
// non-increasing LCCS-length order (Algorithm 2).
//
// # Rank entries
//
// A rank entry of a sorted order is one 32-bit word. Its low
// idBits = bits.Len(n−1) bits hold the string id; the remaining high bits
// hold the adjacent LCP: the number of leading symbols, read circularly
// from the order's shift, that the string shares with the string at the
// next rank, clamped to lcpMax = min(m, 2^(32−idBits) − 1). The merge
// moves each of its 2m lanes monotonically away from the query's place in
// a sorted order, so the LCP of the query with the next string on a lane
// is min(current length, adjacent LCP between the two ranks): Next reads
// one rank entry per step and never opens a hash string.
//
// Saturation rule: when lcpMax < m (the LCP field is narrower than
// bits.Len(m)), a stored lcpMax means "at least lcpMax". Only a lane whose
// current length exceeds lcpMax can need more than that, and only then is
// the length finished by comparing the string with the query from symbol
// lcpMax on.
//
// # Build
//
// The circular order at shift i is the stable sort of the order at shift
// i+1 by the single symbol at position i (equal strings stay id-ordered).
// NewFromFlat therefore runs one comparison sort, at shift m−1, and
// induces the other m−1 orders with stable counting passes over one
// int32 column each (two 16-bit radix passes when a column's value range
// needs them); the next links fall out of the scatter. A final pass per
// shift fills the LCP bits, carrying each string's LCP along its next
// link (the LCP with the successor drops by at most one per shift, as in
// Kasai et al.), which bounds the work at O(n·m) symbol comparisons; the
// inducing is one chain, the LCP pass runs on all cores, a run of shifts
// each.
//
// # Prefetching
//
// Begin is a chain of scattered reads — a link, a rank entry, a hash
// string, per shift and per binary-search level — in 12·n·m bytes no cache
// holds. It asks for what the next steps may read before it needs it
// (package prefetch; search has the scheme). A prefetch is a hint: bounds,
// candidate streams and Comparisons() are exactly what they are without
// it, as they are under -tags noasm, where it compiles to nothing.
package csa

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"lccs/internal/prefetch"
)

// CSA is an immutable Circular Shift Array over n strings of length m.
// Build one with New; run queries through a Searcher.
//
// All three index structures are flat contiguous blocks rather than
// slices of slices: the query hot path walks sorted orders and next
// links for every shift, and a flat layout turns those lookups into
// strided reads of one block instead of a pointer chase per shift.
type CSA struct {
	n, m int
	// data holds the n strings row-major: symbol j of string id is
	// data[id*m + j].
	data []int32
	// sorted holds the m sorted orders back to back as rank entries:
	// sorted[i*n + rank] & idMask is the id of the rank-th smallest string
	// when strings are compared circularly starting at position i (the
	// paper's I_{i+1} over shift(T, i)), and sorted[i*n + rank] >> idBits
	// is min(lcpMax, LCP of that string with the one at rank+1), zero at
	// the last rank.
	sorted []uint32
	// next holds the m next-link arrays back to back: next[i*n + rank]
	// is the rank, in shift (i+1) mod m's order, of the string at
	// sorted[i*n + rank] (the paper's N_{i+1}).
	next []int32

	idBits uint
	idMask uint32
	lcpMax int32
}

// entryBits is the width of a rank entry.
const entryBits = 32

// setLayout splits the rank entry for n ids, leaving the LCP field at
// most fieldBits wide (tests narrow it to reach the saturation rule).
func (c *CSA) setLayout(fieldBits int) {
	c.idBits = uint(bits.Len(uint(c.n - 1)))
	c.idMask = 1<<c.idBits - 1
	free := min(entryBits-int(c.idBits), fieldBits)
	c.lcpMax = int32(min(int64(c.m), 1<<free-1))
}

// sortedRow returns the rank entries of shift i as a view into the flat
// block.
func (c *CSA) sortedRow(i int) []uint32 {
	return c.sorted[i*c.n : (i+1)*c.n : (i+1)*c.n]
}

// nextRow returns the next-link array of shift i as a view into the
// flat block.
func (c *CSA) nextRow(i int) []int32 {
	return c.next[i*c.n : (i+1)*c.n : (i+1)*c.n]
}

// str returns string id as a view into the symbol block.
func (c *CSA) str(id uint32) []int32 {
	return c.data[int(id)*c.m : (int(id)+1)*c.m : (int(id)+1)*c.m]
}

// New builds a CSA over the given equal-length strings (Algorithm 1).
// New panics if strings is empty or lengths differ; those are programming
// errors in callers.
func New(strings [][]int32) *CSA {
	n := len(strings)
	if n == 0 {
		panic("csa: no strings")
	}
	m := len(strings[0])
	if m == 0 {
		panic("csa: empty strings")
	}
	data := make([]int32, n*m)
	for id, s := range strings {
		if len(s) != m {
			panic(fmt.Sprintf("csa: string %d has length %d, want %d", id, len(s), m))
		}
		copy(data[id*m:], s)
	}
	return NewFromFlat(data, n, m)
}

// NewFromFlat builds a CSA from a row-major n×m symbol block. The block is
// retained by the CSA and must not be modified afterwards.
func NewFromFlat(data []int32, n, m int) *CSA {
	return newFromFlat(data, n, m, entryBits)
}

func newFromFlat(data []int32, n, m, fieldBits int) *CSA {
	if len(data) != n*m {
		panic("csa: flat data size mismatch")
	}
	c := &CSA{n: n, m: m, data: data}
	c.setLayout(fieldBits)
	c.sorted = make([]uint32, m*n)
	c.next = make([]int32, m*n)
	c.buildOrders()
	if err := c.fillLCP(); err != nil {
		panic(err) // the orders just built are sorted
	}
	return c
}

// buildOrders fills sorted (ids only) and next: a comparison sort at
// shift m−1, ties broken by id so the order is deterministic, then one
// induced pass per remaining shift.
func (c *CSA) buildOrders() {
	n, m := c.n, c.m
	last := c.sortedRow(m - 1)
	for j := range last {
		last[j] = uint32(j)
	}
	slices.SortFunc(last, func(a, b uint32) int {
		if k, greater := commonPrefix(c.str(a), c.str(b), m-1, 0, m); k < m {
			if greater {
				return 1
			}
			return -1
		}
		return cmp.Compare(a, b)
	})
	sc := &induceScratch{keys: make([]uint32, n)}
	for i := m - 2; i >= 0; i-- {
		c.induce(i, sc)
	}
	// The wrap-around links, from shift m−1's ranks to shift 0's; the
	// key scratch is free to hold shift 0's ranks by id.
	pos := sc.keys
	for r, id := range c.sortedRow(0) {
		pos[id] = uint32(r)
	}
	links := c.nextRow(m - 1)
	for r, id := range last {
		links[r] = int32(pos[id])
	}
}

// induceScratch is the O(n) working memory of the induced passes.
type induceScratch struct {
	keys   []uint32 // one column, biased so that unsigned order is int32 order
	counts []uint32
	// Intermediate order of a two-digit pass: ids and the ranks they
	// came from. Allocated on the first column that needs it.
	ids   []uint32
	ranks []int32
}

const digitBits = 16

// induce derives shift i's order and next links from shift i+1's: a
// stable sort of that order by the symbol at position i. Columns whose
// values span fewer than 2^16 take one counting pass, wider ones an LSD
// pass per 16-bit digit.
func (c *CSA) induce(i int, sc *induceScratch) {
	n, m := c.n, c.m
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for id, p := 0, i; id < n; id, p = id+1, p+m {
		k := uint32(c.data[p]) ^ 1<<31
		sc.keys[id] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	span := hi - lo
	srcIDs, srcRanks := c.sortedRow(i+1), []int32(nil)
	for shift := uint(0); ; shift += digitBits {
		final := span>>shift < 1<<digitBits
		dstIDs, dstRanks := c.sortedRow(i), c.nextRow(i)
		if !final {
			if sc.ids == nil {
				sc.ids, sc.ranks = make([]uint32, n), make([]int32, n)
			}
			dstIDs, dstRanks = sc.ids, sc.ranks
		}
		buckets := int(min(span>>shift, 1<<digitBits-1)) + 1
		if cap(sc.counts) < buckets {
			sc.counts = make([]uint32, buckets)
		}
		counts := sc.counts[:buckets]
		clear(counts)
		const mask = 1<<digitBits - 1
		for _, k := range sc.keys {
			counts[(k-lo)>>shift&mask]++
		}
		sum := uint32(0)
		for d, cnt := range counts {
			counts[d] = sum
			sum += cnt
		}
		for r, id := range srcIDs {
			d := (sc.keys[id] - lo) >> shift & mask
			at := counts[d]
			counts[d] = at + 1
			dstIDs[at] = id
			if srcRanks == nil {
				dstRanks[at] = int32(r)
			} else {
				dstRanks[at] = srcRanks[r]
			}
		}
		if final {
			return
		}
		srcIDs, srcRanks = dstIDs, dstRanks
	}
}

var errUnsorted = errors.New("csa: sorted order is not in circular order")

// fillLCP packs the adjacent LCPs into the rank entries, which must hold
// bare ids, and checks on the way that every order is sorted: neighbours
// a, b at shift i must satisfy a[i] < b[i], or a[i] = b[i] with a before
// b at shift i+1 too — or be equal strings, which may stand in either
// order. Holding at every rank of every shift, that implies every order
// is sorted — of all neighbours out of order take a pair whose first
// mismatch comes earliest: not at the first symbol, by the rule, so one
// shift on the two stand in the same wrong order with the mismatch one
// symbol earlier, and somewhere between them are neighbours out of order
// no later than that — so nothing has to be compared twice.
//
// While b still follows a one shift on, the LCP of a with its successor
// there is at least that of a and b, less one (every string between the
// two shares it). So each LCP found is also left, through the next link,
// in the LCP bits of a's entry one shift on, and the comparison there
// starts from it, less one, before overwriting it: O(n·m) symbol
// comparisons per worker at worst, and no scratch. Equal strings that
// swap places carry nothing — a's new successor may be any string — and
// cost a comparison in full each: a file may spend O(m) per such pair and
// shift, a build never does (its equal strings stay id-ordered). The
// bounds are only as good as the orders; they are trusted because a file
// whose orders are not sorted is rejected as a whole.
func (c *CSA) fillLCP() error {
	// Shifts are dealt out in contiguous runs, one per worker. A run
	// touches the rank entries of its own shifts only, and starts without
	// carried LCPs as shift 0 does, so runs share nothing they write.
	workers := min(runtime.GOMAXPROCS(0), c.m)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = c.fillShifts(w*c.m/workers, (w+1)*c.m/workers)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillShifts is fillLCP over shifts [from, to).
func (c *CSA) fillShifts(from, to int) error {
	n, m := c.n, c.m
	limit := int(c.lcpMax)
	// The first symbols of a block of neighbours are gathered ahead of
	// the comparisons: loads that depend on nothing but the order, which
	// the processor overlaps instead of stalling on one row at a time.
	var first [64]int32
	for i := from; i < to; i++ {
		row, links := c.sortedRow(i), c.nextRow(i)
		var following []uint32 // nothing is carried out of the run
		if i+1 < to {
			following = c.sortedRow(i + 1)
		}
		a := c.str(row[0] & c.idMask)
		x := a[i]
		for base := 1; base < n; base += len(first) {
			block := row[base:min(base+len(first), n)]
			for j, w := range block {
				first[j] = c.data[int(w&c.idMask)*m+i]
			}
			for j, w := range block {
				r, y := base+j-1, first[j]
				if x > y {
					return errUnsorted
				}
				b := c.str(w & c.idMask)
				lcp, follows := 0, links[r] < links[r+1]
				switch {
				case x < y:
				case follows:
					carried := int(row[r] >> c.idBits)
					lcp, _ = commonPrefix(a, b, i, max(carried-1, 1), limit)
				default:
					// Only equal strings may swap places; compared in
					// full and from the start, whatever was carried.
					if k, _ := commonPrefix(a, b, 0, 0, m); k < m {
						return errUnsorted
					}
					lcp = limit
				}
				row[r] = row[r]&c.idMask | uint32(lcp)<<c.idBits
				// The carry bounds a's LCP with its successor one shift on
				// only if b still comes after a there.
				if follows && following != nil {
					following[links[r]] |= uint32(lcp) << c.idBits
				}
				a, x = b, y
			}
		}
		row[n-1] &= c.idMask
	}
	return nil
}

// commonPrefix compares strings a and b of length m = len(a), both read
// circularly from position shift, given that their first from symbols
// are equal. It returns the length of their common prefix, capped at
// limit, and whether a is the greater at the first mismatch.
func commonPrefix(a, b []int32, shift, from, limit int) (int, bool) {
	m := len(a)
	b = b[:m]
	p := shift + from
	if p >= m {
		p -= m
	}
	for k := from; k < limit; k++ {
		if x, y := a[p], b[p]; x != y {
			return k, x > y
		}
		p++
		if p == m {
			p = 0
		}
	}
	return limit, false
}

// N returns the number of indexed strings.
func (c *CSA) N() int { return c.n }

// M returns the string length (the number of circular shifts).
func (c *CSA) M() int { return c.m }

// String returns a copy of the indexed string with the given id.
func (c *CSA) String(id int) []int32 {
	out := make([]int32, c.m)
	copy(out, c.data[id*c.m:(id+1)*c.m])
	return out
}

// Bytes returns the approximate memory footprint of the index in bytes:
// the symbol block plus the m sorted orders and m next-link arrays.
func (c *CSA) Bytes() int64 {
	return int64(c.n) * int64(c.m) * 4 * 3
}

// Result is one k-LCCS answer: a string id and its LCCS length with the
// query (the longest circular co-substring length, in [0, m]).
type Result struct {
	ID     int
	Length int
}

// lane is one frontier of the 2m-way merge (times the probes issued): it
// stands at rank pos of one shift's sorted order and advances in one
// direction. key packs what orders the lanes — the LCP of the lane's
// string with its probe's query (longest first), then the shift, then
// the direction (downward first) — as
//
//	(m − len) << 32 | shift << 1 | up
//
// so that the smaller key pops first; probe breaks the ties that only
// multi-probe can produce, which makes the order total.
type lane struct {
	key   uint64
	pos   int32
	probe int32
}

func (a lane) before(b lane) bool {
	return a.key < b.key || a.key == b.key && a.probe < b.probe
}

// bounds records the outcome of the binary search at one shift, kept both
// for the next-link narrowing and for the multi-probe skip rule (§4.2).
type bounds struct {
	posL, posU int32
	lenL, lenU int32
	// validL/validU report whether the corresponding bound satisfies the
	// ordering precondition of Lemma 3.1 (T_l ⪯ Q, resp. Q ≺ T_u); a
	// clamped bound at the edge of the array does not.
	validL, validU bool
}

// Searcher runs k-LCCS queries against one CSA. It owns reusable scratch
// (visited stamps, per-shift bounds, the lane queue, the flat query
// buffer) and is therefore not safe for concurrent use; create one
// Searcher per goroutine — or, as the core index does, keep Searchers in
// a sync.Pool. At steady state (buffers grown to their working size) a
// full Begin/Next/SearchInto cycle performs no heap allocations.
type Searcher struct {
	c *CSA
	// lanes is a binary min-heap under lane.before.
	lanes   []lane
	bounds  []bounds
	visited []int32
	gen     int32
	// qbuf holds one query string per probe issued so far in the current
	// search, back to back: probe p occupies qbuf[p*m : (p+1)*m] (probe 0
	// is the unperturbed query). The buffer is reused across searches.
	qbuf []int32
	// stats
	comparisons int
}

// query returns probe p's query string as a view into the flat buffer.
func (s *Searcher) query(p int32) []int32 {
	m := s.c.m
	return s.qbuf[int(p)*m : (int(p)+1)*m]
}

// pushQuery copies q into the flat query buffer as the next probe and
// returns its index. Steady state reuses the buffer's capacity.
func (s *Searcher) pushQuery(q []int32) int32 {
	s.qbuf = append(s.qbuf, q...)
	return int32(len(s.qbuf)/s.c.m - 1)
}

// NewSearcher returns a fresh Searcher for c.
func (c *CSA) NewSearcher() *Searcher {
	return &Searcher{
		c:       c,
		lanes:   make([]lane, 0, 2*c.m+16),
		bounds:  make([]bounds, c.m),
		visited: make([]int32, c.n),
	}
}

// reset prepares the reusable scratch for a fresh search: no lanes, an
// empty query buffer, a new visited generation (re-stamping the visited
// array only on the rare int32 wrap), zeroed counters.
func (s *Searcher) reset() {
	s.lanes = s.lanes[:0]
	if s.gen == math.MaxInt32 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.gen = 0
	}
	s.gen++
	s.comparisons = 0
	s.qbuf = s.qbuf[:0]
}

// push adds a lane to the queue.
func (s *Searcher) push(e lane) {
	h := append(s.lanes, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.lanes = h
}

// replaceTop puts e where the first lane was and restores the heap.
func (s *Searcher) replaceTop(e lane) {
	h := s.lanes
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// search binary-searches sorted[shift] for the query q read circularly
// from shift, strictly between ranks l and h. The caller knows the string
// at l to be ⪯ q with an LCP of exactly lenL, or passes l = −1, lenL = 0
// for no such string; likewise the string at h is ≻ q with LCP lenU, or
// h = n, lenU = 0. Every string between two ranks shares with q what both
// ends share, so each comparison starts at the smaller of the two LCPs
// (Manber–Myers) and hands the LCP it finds to the end it replaces: the
// bounds' lengths cost no further reads. search pushes the two lanes of
// the outcome and returns it — the clamped lower/upper bound ranks, their
// LCPs with q, and whether each bound satisfies its ordering precondition.
//
// A comparison is two dependent cache misses, the rank entry and then the
// string it names, and the next comparison cannot begin before this one
// has ended. So search asks ahead for what it may read — level by level
// while the window is wide (warmLevels), all at once when it has come
// down to narrowWindow (warmWindow). Which strings are compared, and from
// which symbol, is untouched, and Comparisons() counts the same.
func (s *Searcher) search(probe int32, shift, l, h int, lenL, lenU int32) bounds {
	c := s.c
	q := s.query(probe)
	order := c.sortedRow(shift)
	warmed := false
	for h-l > 1 {
		from := int(min(lenL, lenU))
		switch {
		case warmed:
		case h-l <= narrowWindow:
			c.warmWindow(shift, l, h, from)
			warmed = true
		default:
			c.warmLevels(shift, l, h, from)
		}
		mid := int(uint(l+h) >> 1)
		s.comparisons++
		k, greater := commonPrefix(c.str(order[mid]&c.idMask), q, shift, from, c.m)
		if greater {
			h, lenU = mid, int32(k)
		} else {
			l, lenL = mid, int32(k)
		}
	}
	b := bounds{posL: int32(l), posU: int32(h), lenL: lenL, lenU: lenU, validL: l >= 0, validU: h < c.n}
	// No string ⪯ q, or none ≻ q: the missing bound clamps onto the other.
	if !b.validL {
		b.posL, b.lenL = b.posU, b.lenU
	} else if !b.validU {
		b.posU, b.lenU = b.posL, b.lenL
	}
	key := uint64(shift) << 1
	s.push(lane{key: uint64(int32(c.m)-b.lenL)<<32 | key, pos: b.posL, probe: probe})
	s.push(lane{key: uint64(int32(c.m)-b.lenU)<<32 | key | 1, pos: b.posU, probe: probe})
	return b
}

// narrowWindow is the widest window (h − l) that search warms whole: the
// ranks strictly inside are a few entries of one or two cache lines, and
// so are the links of l..h. Anything wider is searched by levels; at least
// 7, so that every rank warmLevels names lies inside its window.
// BenchmarkCSABegin on a 2-vCPU Xeon @ 2.1 GHz, µs per Begin at
// (n = 100 000, m = 32) / (n = 50 000, m = 64), medians of 7 alternating
// runs: no warming 17.0 / 34.9; 8: 10.7 / 20.5; 12: 10.4 / 20.3;
// 16: 10.7 / 20.5; 24: 11.0 / 20.5 — flat, so a constant.
const narrowWindow = 12

const _ = uint(narrowWindow - 7) // does not compile below the bound

// warmStr asks for the line of string id's symbols that a comparison
// starting from symbol `from` at this shift reads first.
func (c *CSA) warmStr(id uint32, shift, from int) {
	p := shift + from
	if p >= c.m {
		p -= c.m
	}
	prefetch.T0(&c.data[int(id)*c.m+p])
}

// warmWindow prepares a search that has come down to the few ranks
// strictly between l and h (at least one). It asks for the string of every
// one of them at once, so the misses overlap instead of queueing behind one
// another's comparisons. Then it looks one shift on. Begin's next search
// starts from this shift's links of the two ranks this one ends on, which
// are among l..h; the ranks all of those lead to are where its rank entries
// and, should its window be empty, its own links will be read. The links
// are asked for before the strings and read after, by when they have had
// as long to arrive as this search's first string.
func (c *CSA) warmWindow(shift, l, h, from int) {
	links := c.nextRow(shift)[max(l, 0) : min(h, c.n-1)+1]
	prefetch.T0(&links[0])
	prefetch.T0(&links[len(links)-1])
	for _, w := range c.sortedRow(shift)[l+1 : h] {
		c.warmStr(w&c.idMask, shift, from)
	}
	if shift+1 == c.m {
		return
	}
	order, following := c.sortedRow(shift+1), c.nextRow(shift+1)
	// Neighbours here mostly stay neighbours one shift on: one request
	// per run of ranks that share 16 entries, a cache line of either row.
	line := int32(-1)
	for _, r := range links {
		if r>>4 != line {
			line = r >> 4
			prefetch.T0(&order[r])
			prefetch.T0(&following[r])
		}
	}
}

// warmLevels runs two levels ahead of a search over a wide window. Before
// the middle of (l, h) is compared, it asks for the strings at the two
// ranks one of which is compared next — whose rank entries the level
// before asked for — and for the rank entries of the four that may follow
// those. A level then waits for one round of overlapped misses, not for
// two chained ones.
func (c *CSA) warmLevels(shift, l, h, from int) {
	order := c.sortedRow(shift)
	mid := int(uint(l+h) >> 1)
	lo, hi := int(uint(l+mid)>>1), int(uint(mid+h)>>1)
	c.warmStr(order[lo]&c.idMask, shift, from)
	c.warmStr(order[hi]&c.idMask, shift, from)
	prefetch.T0(&order[int(uint(l+lo)>>1)])
	prefetch.T0(&order[int(uint(lo+mid)>>1)])
	prefetch.T0(&order[int(uint(mid+hi)>>1)])
	prefetch.T0(&order[int(uint(hi+h)>>1)])
}

// shifted returns the LCP, one shift on, of a string and a query whose
// LCP is l ≥ 1: one symbol fewer, unless the two are equal.
func (c *CSA) shifted(l int32) int32 {
	if l == int32(c.m) {
		return l
	}
	return l - 1
}

// Begin starts a new k-LCCS search for query q (Algorithm 2, lines 1–11):
// it computes the per-shift bounds — a full binary search at shift 0, then
// next-link-narrowed searches — and seeds the lane queue. Candidates are
// then pulled with Next. q must have length m; Begin copies it.
func (s *Searcher) Begin(q []int32) {
	c := s.c
	if len(q) != c.m {
		panic(fmt.Sprintf("csa: query length %d, want %d", len(q), c.m))
	}
	s.reset()
	s.pushQuery(q)

	var prev bounds
	for i := 0; i < c.m; i++ {
		l, h, lenL, lenU := -1, c.n, int32(0), int32(0)
		if i > 0 {
			// Corollary 3.2, applied per side: a bound whose LCP with
			// the query is ≥ 1 is, one shift on, a string on the same
			// side of the query whose LCP is known without a read.
			links := c.nextRow(i - 1)
			if prev.validL && prev.lenL >= 1 {
				l, lenL = int(links[prev.posL]), c.shifted(prev.lenL)
			}
			if prev.validU && prev.lenU >= 1 {
				h, lenU = int(links[prev.posU]), c.shifted(prev.lenU)
			}
		}
		prev = s.search(0, i, l, h, lenL, lenU)
		s.bounds[i] = prev
	}
}

// BeginSimple is the unoptimized variant of Begin used as an ablation
// baseline: every shift runs a full-range binary search (the "simple
// method" of §3.2 with O(m(m + log n)) query time), with no next-link
// narrowing.
func (s *Searcher) BeginSimple(q []int32) {
	c := s.c
	if len(q) != c.m {
		panic(fmt.Sprintf("csa: query length %d, want %d", len(q), c.m))
	}
	s.reset()
	s.pushQuery(q)
	for i := 0; i < c.m; i++ {
		s.bounds[i] = s.search(0, i, -1, c.n, 0, 0)
	}
}

// Next pops the next distinct candidate in non-increasing LCCS-length
// order (Algorithm 2, lines 12–15). ok is false when the frontier is
// exhausted. The returned Length is the LCP at the emitting shift, which
// for the first emission of an id equals its LCCS length with the query.
func (s *Searcher) Next() (Result, bool) {
	c := s.c
	m := int32(c.m)
	for len(s.lanes) > 0 {
		e := s.lanes[0]
		shift := int(uint32(e.key) >> 1)
		order := c.sortedRow(shift)
		w := order[e.pos]
		length := m - int32(e.key>>32)
		// Advance this lane before the dedup check so it keeps producing
		// candidates. A lane moves away from the query's place in the
		// order, so its next length is the smaller of this one and the
		// LCP stored between the two ranks.
		npos, between := e.pos+1, w
		if e.key&1 == 0 {
			if npos = e.pos - 1; npos >= 0 {
				between = order[npos]
			}
		}
		if uint32(npos) < uint32(c.n) {
			e.pos = npos
			if lcp := int32(between >> c.idBits); lcp < length {
				if lcp == c.lcpMax {
					// Saturated: the stored value is a lower bound
					// (lcp < length ≤ m, so lcpMax < m here).
					k, _ := commonPrefix(c.str(order[npos]&c.idMask), s.query(e.probe), shift, int(lcp), int(length))
					lcp = int32(k)
				}
				e.key += uint64(length-lcp) << 32
			}
			s.replaceTop(e)
		} else {
			last := len(s.lanes) - 1
			e = s.lanes[last]
			s.lanes = s.lanes[:last]
			if last > 0 {
				s.replaceTop(e)
			}
		}
		id := w & c.idMask
		if s.visited[id] == s.gen {
			continue
		}
		s.visited[id] = s.gen
		return Result{ID: int(id), Length: int(length)}, true
	}
	return Result{}, false
}

// Search answers a k-LCCS query end to end: the k distinct strings with
// the longest LCCS against q, in non-increasing length order. Fewer than k
// results are returned only when k > n.
func (s *Searcher) Search(q []int32, k int) []Result {
	return s.SearchInto(q, k, make([]Result, 0, k))
}

// SearchInto is Search appending into dst (reset to dst[:0] first): the
// zero-allocation path for callers that reuse a result buffer across
// queries.
func (s *Searcher) SearchInto(q []int32, k int, dst []Result) []Result {
	s.Begin(q)
	return s.drainInto(k, dst[:0])
}

// SearchSimple is Search without the next-link narrowing (ablation).
func (s *Searcher) SearchSimple(q []int32, k int) []Result {
	s.BeginSimple(q)
	return s.drainInto(k, make([]Result, 0, k))
}

func (s *Searcher) drainInto(k int, out []Result) []Result {
	for len(out) < k {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Comparisons returns the number of string comparisons performed by the
// bounds phase of the most recent Begin/BeginSimple (a proxy for binary
// search work, used by ablation benchmarks).
func (s *Searcher) Comparisons() int { return s.comparisons }

// AffectedShifts appends to dst the shifts whose binary-search outcome can
// change when the query is modified at the given positions, per the
// skip-unaffected-positions rule of §4.2: shift i is affected iff some
// modified position p lies within the inspected window
// (p − i) mod m ≤ max(lenL_i, lenU_i). Positions must be in [0, m).
func (s *Searcher) AffectedShifts(dst []int, modified []int) []int {
	m := s.c.m
	for i := 0; i < m; i++ {
		maxLen := s.bounds[i].lenL
		if s.bounds[i].lenU > maxLen {
			maxLen = s.bounds[i].lenU
		}
		for _, p := range modified {
			d := p - i
			if d < 0 {
				d += m
			}
			if int32(d) <= maxLen {
				dst = append(dst, i)
				break
			}
		}
	}
	return dst
}

// Probe injects a perturbed query into the ongoing search (MP-LCCS-LSH,
// §4.2): pq is the full perturbed hash string and modified lists the
// positions where it differs from the original query. Only the affected
// shifts are re-searched (full-range binary searches); their lanes are
// pushed into the shared queue so subsequent Next calls interleave
// candidates from all probes issued so far, deduplicated against earlier
// emissions. scratch is an optional reusable buffer for the affected-shift
// list.
func (s *Searcher) Probe(pq []int32, modified []int, scratch []int) []int {
	c := s.c
	if len(pq) != c.m {
		panic(fmt.Sprintf("csa: probe length %d, want %d", len(pq), c.m))
	}
	probe := s.pushQuery(pq)
	scratch = s.AffectedShifts(scratch[:0], modified)
	for _, i := range scratch {
		s.search(probe, i, -1, c.n, 0, 0)
	}
	return scratch
}

// ProbeFull is Probe without the skip-unaffected-positions optimization:
// every shift is re-searched. Used by the ablation benchmarks.
func (s *Searcher) ProbeFull(pq []int32) {
	c := s.c
	probe := s.pushQuery(pq)
	for i := 0; i < c.m; i++ {
		s.search(probe, i, -1, c.n, 0, 0)
	}
}
