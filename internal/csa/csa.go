// Package csa implements the Circular Shift Array of the paper (§3.2): a
// suffix-array-inspired index over n equal-length strings that answers
// k-Longest-Circular-Co-Substring (k-LCCS) queries.
//
// The index consists of m sorted orders — one per circular shift — plus m
// "next links" that map a string's rank at shift i to its rank at shift
// (i+1) mod m (Algorithm 1). A query performs one full binary search at
// shift 0 and then narrows every subsequent shift's search range through
// the next links (Lemma 3.1 / Corollary 3.2), finally merging the 2m
// sorted neighborhoods to emit candidates in non-increasing LCCS-length
// order (Algorithm 2).
//
// # Symbols
//
// The walk needs only the order and the equality of symbols, and only of
// two symbols in one column: a circular comparison reads position p of
// both strings. So the CSA stores codes, not symbols. Column j keeps its
// D_j distinct symbols in a sorted dictionary; the symbol of rank r there
// is stored as the code 2r+1, and a query symbol the column lacks is
// coded as the even number between its neighbours' codes — 0 below all of
// them, 2·D_j above. The map is monotone within a column, so every
// comparison, and with it every bound, LCP, candidate stream and
// Comparisons() count, is what it would be on the symbols themselves.
//
// The codes take w = 1 byte when the widest column holds at most 127
// symbols (its largest code, 2·D, then fits), 2 bytes up to 32 767 and 4
// beyond; the CSA picks w once, at build or decode, from its own columns.
// Each walk that reads codes is written once, generic over the width
// (block), and the CSA runs the one instantiation it chose.
//
// An index over n strings of length m holds (w + 4)·n·m bytes of codes and
// rank entries, m·⌈n·b/8⌉ bytes of next links (see Next links) and its
// dictionaries: 22.8 MB at n = 100 000, m = 32, w = 1.
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
// # Next links
//
// A next link is a rank below n, so it needs b = bits.Len(n−1) bits, the
// width of a rank entry's id field, and the links are stored at that
// width: a row of ⌈n·b/8⌉ bytes per shift, link r at bits [r·b, (r+1)·b)
// of its row, little-endian, and eight spare bytes after the last row. A
// link is read by one 8-byte load from its first byte, a shift by the
// bit's offset within that byte and a mask, so Begin's chain of link
// reads keeps one load per link. Like w, b is derived from the index,
// from n, at build and at decode; on disk every link is still an int32.
//
// # The lane queue
//
// The merge has a lane per shift and direction, and per probe under
// multi-probe: a lane stands at one rank of its shift's order, and its
// length is the LCP of the string there with its probe's query. Next
// emits from the lane of greatest length, ties going to the lower shift,
// then to the downward lane, then to the lower probe. That order is total,
// and a length is a small integer in [0, m] that a lane's step only
// lowers, so the queue is a bucket queue (Dial, CACM 1969) rather than a
// heap: a bitset of lanes per length, lane (shift, up, probe) at bit
// (shift<<1 | up)·P + probe, P a power of two above every probe issued,
// so bit order is the tie order. Next reads the lowest bit of the highest
// non-empty bucket; a step leaves the lane's bit where it is, moves it to
// a lower bucket or clears it. Only Probe adds lanes, which may be longer
// than every lane queued, and only a Probe beyond P doubles P, moving
// every lane to its slot at the new P. A heap ordered by (m − length,
// shift, up, probe) pops the minimum of the same order, and the lanes
// change in the same steps, so the stream is the heap's.
//
// # Build
//
// The circular order at shift i is the stable sort of the order at shift
// i+1 by the single symbol at position i (equal strings stay id-ordered).
// NewFromFlat therefore codes the symbols, runs one comparison sort, at
// shift m−1, and induces the other m−1 orders with stable counting
// passes over one column of codes each, a bucket per distinct symbol (two
// 16-bit radix passes when a column has more than 2^16); the next links
// fall out of the scatter. A final pass per
// shift fills the LCP bits, carrying each string's LCP along its next
// link (the LCP with the successor drops by at most one per shift, as in
// Kasai et al.), which bounds the work at O(n·m) symbol comparisons.
// The sort runs on all cores, as sorted ranges merged at co-ranks; the
// inducing is one chain, each shift depending on the one above; and the
// LCP pass runs on the other cores behind it, a run of shifts at a time
// as the chain leaves them, and on every core once it ends.
//
// # Prefetching
//
// Begin is a chain of scattered reads — a link, a rank entry, a hash
// string, per shift and per binary-search level — in an index no cache
// holds. It asks for what the next steps may read before it needs it
// (package prefetch; search has the scheme). A prefetch is a hint: bounds,
// candidate streams and Comparisons() are exactly what they are without
// it, as they are under -tags noasm, where it compiles to nothing.
package csa

import (
	"cmp"
	"encoding/binary"
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
	// syms holds the n strings as codes, row-major: the code of symbol j
	// of string id is at id*m + j.
	syms symbols
	// dict holds every column's distinct symbols in increasing order,
	// back to back: column j's are dict[dictAt[j]:dictAt[j+1]], and code
	// 2r+1 of column j stands for dict[dictAt[j]+r].
	dict   []int32
	dictAt []int
	// sorted holds the m sorted orders back to back as rank entries:
	// sorted[i*n + rank] & idMask is the id of the rank-th smallest string
	// when strings are compared circularly starting at position i (the
	// paper's I_{i+1} over shift(T, i)), and sorted[i*n + rank] >> idBits
	// is min(lcpMax, LCP of that string with the one at rank+1), zero at
	// the last rank.
	sorted []uint32
	// next holds the m next-link arrays packed (see Next links in the
	// package comment), a row of rowBytes per shift: link rank of row i
	// is the rank, in shift (i+1) mod m's order, of the string at
	// sorted[i*n + rank] (the paper's N_{i+1}).
	next     []byte
	rowBytes int

	idBits uint
	idMask uint32
	lcpMax int32
}

// linkSlack is the spare bytes after the last row of links: an 8-byte
// load from the first byte of any link stays inside the block.
const linkSlack = 8

// entryBits is the width of a rank entry.
const entryBits = 32

// setLayout splits the rank entry for n ids, leaving the LCP field at
// most fieldBits wide (tests narrow it to reach the saturation rule), and
// sizes a row of next links, which are as wide as an id.
func (c *CSA) setLayout(fieldBits int) {
	c.idBits = uint(bits.Len(uint(c.n - 1)))
	c.idMask = 1<<c.idBits - 1
	c.rowBytes = (c.n*int(c.idBits) + 7) / 8
	free := min(entryBits-int(c.idBits), fieldBits)
	c.lcpMax = int32(min(int64(c.m), 1<<free-1))
}

// sortedRow returns the rank entries of shift i as a view into the flat
// block.
func (c *CSA) sortedRow(i int) []uint32 {
	return c.sorted[i*c.n : (i+1)*c.n : (i+1)*c.n]
}

// linkBit returns the bit of the packed block at which link r of shift i
// starts; the links of a row follow one another every idBits bits.
func (c *CSA) linkBit(i, r int) uint {
	return uint(i*c.rowBytes)<<3 + uint(r)*c.idBits
}

// linkAt returns the link that starts at bit bit of the packed block.
func (c *CSA) linkAt(bit uint) int32 { return loadLink(c.next, bit, uint64(c.idMask)) }

// loadLink returns the link, masked by mask, that starts at bit bit of
// next: a walk along a row holds next and mask in locals, which the
// fields of c, reloaded after every store the walk makes, are not.
func loadLink(next []byte, bit uint, mask uint64) int32 {
	return int32(binary.LittleEndian.Uint64(next[bit>>3:]) >> (bit & 7) & mask)
}

// link returns link r of shift i.
func (c *CSA) link(i, r int) int32 { return c.linkAt(c.linkBit(i, r)) }

// packRow stores row, shift i's next links as ranks, in the packed block:
// whole 32-bit words as they fill, then the row's last bytes.
func (c *CSA) packRow(i int, row []int32) {
	out, width := c.next[i*c.rowBytes:(i+1)*c.rowBytes], c.idBits
	var acc uint64
	held, at := uint(0), 0
	for _, r := range row {
		acc |= uint64(uint32(r)) << (held & 63) // held < 32: the mask only spares a check
		if held += width; held >= 32 {
			binary.LittleEndian.PutUint32(out[at:], uint32(acc))
			acc, held, at = acc>>32, held-32, at+4
		}
	}
	for ; at < len(out); at++ {
		out[at], acc = byte(acc), acc>>8
	}
}

// code is a width the codes of a CSA can be stored at.
type code interface{ uint8 | uint16 | uint32 }

// block is the code block at one width. Every walk that reads codes is a
// method of block, so it is compiled once per width and a CSA pays one
// indirect call per walk — per sort, column, run of shifts, binary
// search — and never one per comparison.
type block[T code] []T

// symbols is the CSA's block at the width it chose.
type symbols interface {
	// width is the size of a code in bytes.
	width() int
	// sortLast sorts shift m−1's order, ties broken by id.
	sortLast(c *CSA)
	// column sets keys[id] to the rank, in column i's dictionary, of
	// string id's symbol i.
	column(keys []uint32, i, m int)
	fillShifts(c *CSA, from, to int) error
	bisect(s *Searcher, probe int32, shift, l, h int, lenL, lenU int32) (int, int, int32, int32)
	// prefix is commonPrefix of string id and the coded query q.
	prefix(id uint32, q []uint32, shift, from, limit int) int
	// decode writes string id's symbols into out.
	decode(c *CSA, id int, out []int32)
}

// str returns string id as a view into the block.
func (b block[T]) str(id uint32, m int) []T {
	return b[int(id)*m : (int(id)+1)*m : (int(id)+1)*m]
}

func (b block[T]) width() int { return bits.Len64(uint64(^T(0))) / 8 }

func (b block[T]) column(keys []uint32, i, m int) {
	for id, p := 0, i; id < len(keys); id, p = id+1, p+m {
		keys[id] = uint32(b[p]) >> 1
	}
}

func (b block[T]) prefix(id uint32, q []uint32, shift, from, limit int) int {
	k, _ := commonPrefix(b.str(id, len(q)), q, shift, from, limit)
	return k
}

func (b block[T]) decode(c *CSA, id int, out []int32) {
	for j, x := range b.str(uint32(id), c.m) {
		out[j] = c.dict[c.dictAt[j]+int(x>>1)]
	}
}

// setSymbols codes data, the row-major n×m symbol block, into c.dict,
// c.dictAt and c.syms. Every pass reads the block row by row — a pass per
// column would stride through all of it m times: one for each column's
// range; one that marks, in a table with an entry per value of a column's
// range, the symbols that occur, for every column whose range is narrower
// than n (any other is gathered and sorted instead); and the coding pass.
func (c *CSA) setSymbols(data []int32) {
	n, m := c.n, c.m
	lo, hi := slices.Clone(data[:m]), slices.Clone(data[:m])
	for p := m; p < len(data); p += m {
		for j, v := range data[p : p+m] {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	tableAt, size := make([]int, m), 0
	for j := range tableAt {
		tableAt[j] = -1
		if span := int64(hi[j]) - int64(lo[j]); span < int64(n) {
			tableAt[j], size = size, size+int(span)+1
		}
	}
	table := make([]uint32, size)
	for p := 0; p < len(data); p += m {
		for j, v := range data[p : p+m] {
			if at := tableAt[j]; at >= 0 {
				table[at+int(uint32(v)-uint32(lo[j]))] = 1
			}
		}
	}
	// The dictionaries, and in place of each mark the code it stands for.
	c.dict, c.dictAt = nil, make([]int, m+1)
	var sorted []int32
	widest := 0
	for j := 0; j < m; j++ {
		if at := tableAt[j]; at >= 0 {
			for k, seen := range table[at : at+int(uint32(hi[j])-uint32(lo[j]))+1] {
				if seen != 0 {
					table[at+k] = uint32(2*(len(c.dict)-c.dictAt[j]) + 1)
					c.dict = append(c.dict, lo[j]+int32(k))
				}
			}
		} else {
			sorted = sorted[:0]
			for p := j; p < len(data); p += m {
				sorted = append(sorted, data[p])
			}
			slices.Sort(sorted)
			c.dict = append(c.dict, slices.Compact(sorted)...)
		}
		c.dictAt[j+1] = len(c.dict)
		widest = max(widest, c.dictAt[j+1]-c.dictAt[j])
	}
	switch {
	case widest <= math.MaxInt8:
		c.syms = codeBlock[uint8](c, data, lo, tableAt, table)
	case widest <= math.MaxInt16:
		c.syms = codeBlock[uint16](c, data, lo, tableAt, table)
	default:
		c.syms = codeBlock[uint32](c, data, lo, tableAt, table)
	}
}

// codeBlock is setSymbols' coding pass at width T.
func codeBlock[T code](c *CSA, data, lo []int32, tableAt []int, table []uint32) block[T] {
	m := c.m
	b := make(block[T], len(data))
	for p := 0; p < len(data); p += m {
		out := b[p : p+m]
		for j, v := range data[p : p+m] {
			if at := tableAt[j]; at >= 0 {
				out[j] = T(table[at+int(uint32(v)-uint32(lo[j]))])
			} else {
				out[j] = T(2*rank(c.dictOf(j), v) + 1)
			}
		}
	}
	return b
}

// dictOf returns column j's dictionary.
func (c *CSA) dictOf(j int) []int32 {
	return c.dict[c.dictAt[j]:c.dictAt[j+1]]
}

// rank returns the number of symbols in dict below x, by a bisection
// that adds a step masked by the sign of a difference instead of
// branching on a comparison: a query symbol falls anywhere, so such a
// branch would be mispredicted at every other step.
func rank(dict []int32, x int32) int {
	base := 0
	for n := len(dict); n > 1; n -= n >> 1 {
		base += n >> 1 & int((int64(dict[base+n>>1])-int64(x))>>63)
	}
	return base - int((int64(dict[base])-int64(x))>>63)
}

// appendCodes codes the query q (see Symbols in the package comment) onto
// dst.
func (c *CSA) appendCodes(dst []uint32, q []int32) []uint32 {
	for j, x := range q {
		dict := c.dictOf(j)
		r := rank(dict, x)
		code := uint32(2 * r)
		if r < len(dict) && dict[r] == x {
			code++
		}
		dst = append(dst, code)
	}
	return dst
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

// NewFromFlat builds a CSA from a row-major n×m symbol block. The CSA
// keeps the symbols as codes of its own and does not retain data, which
// the caller may reuse once NewFromFlat returns.
func NewFromFlat(data []int32, n, m int) *CSA {
	return newFromFlat(data, n, m, entryBits)
}

func newFromFlat(data []int32, n, m, fieldBits int) *CSA {
	if len(data) != n*m {
		panic("csa: flat data size mismatch")
	}
	c := &CSA{n: n, m: m}
	c.setSymbols(data)
	c.setLayout(fieldBits)
	c.sorted = make([]uint32, m*n)
	c.next = make([]byte, m*c.rowBytes+linkSlack)
	if err := c.build(); err != nil {
		panic(err) // the orders just built are sorted
	}
	return c
}

// lcpRun is the number of shifts in a run of the build's LCP pass. A run
// starts without carried LCPs, so a shorter one compares more; a longer
// one waits longer for the chain. BenchmarkCSABuild at GOMAXPROCS 2 on a
// 2-vCPU Xeon @ 2.1 GHz, ms per build at (n = 100 000, m = 32) /
// (n = 50 000, m = 64), medians of 8 rotated rounds: 2: 187.7 / 166.5;
// 4: 185.8 / 161.0; 8: 193.8 / 165.2.
const lcpRun = 4

// build fills sorted and next — a comparison sort at shift m−1, ties
// broken by id so the order is deterministic, then one induced pass per
// remaining shift, a chain from shift m−2 down to 0 — and the LCP bits.
// The LCP pass runs behind the chain, in runs of lcpRun shifts; a run may
// start once the chain is done with it: induce(j−1) has read shift j's
// ids for the last time, and the links of every shift above j are packed,
// which the 8-byte loads of a run's last links read into. Only shift m−1's
// are not, which the chain packs last: a row narrower than those 8 bytes
// lets a run below the top one read into them, so then, as alone on one
// core, the pass is one run after the chain, which loses no carry.
func (c *CSA) build() error {
	n, m := c.n, c.m
	c.syms.sortLast(c)
	run := lcpRun
	if runtime.GOMAXPROCS(0) == 1 || c.rowBytes < linkSlack {
		run = m
	}
	fill := func(from, to int) error { return c.syms.fillShifts(c, from, to) }
	return c.inRuns(run, fill, func(ready func(j int)) {
		sc := &induceScratch{keys: make([]uint32, n), links: make([]int32, n)}
		for i := m - 2; i >= 0; i-- {
			c.induce(i, sc)
			ready(i + 1)
		}
		// The wrap-around links, from shift m−1's ranks to shift 0's; the
		// key scratch is free to hold shift 0's ranks by id.
		pos := sc.keys
		for r, id := range c.sortedRow(0) {
			pos[id] = uint32(r)
		}
		for r, id := range c.sortedRow(m - 1) {
			sc.links[r] = int32(pos[id])
		}
		c.packRow(m-1, sc.links)
	})
}

// sortGrain is the fewest strings sortLast gives a worker.
const sortGrain = 1 << 10

// sortLast sorts shift m−1's order with a comparator that breaks ties by
// id, so no two entries compare equal and the order is the one sort gives
// whatever the split. Given n ≥ 2·sortGrain and a spare row (m ≥ 2), up to
// GOMAXPROCS workers each sort a contiguous range of ids, and rounds of
// pairwise merges join the ranges; each worker writes its own slice of a
// round's output, which it finds in the merges it falls in by the co-rank
// of either end (merge path, Odeh et al., IPDPS 2012). The rounds move
// the order between rows m−1 and m−2, which nothing reads before
// induce(m−2), starting in the row that leaves it in row m−1.
func (b block[T]) sortLast(c *CSA) {
	n, m := c.n, c.m
	compare := func(x, y uint32) int {
		if k, greater := commonPrefix(b.str(x, m), b.str(y, m), m-1, 0, m); k < m {
			if greater {
				return 1
			}
			return -1
		}
		return cmp.Compare(x, y)
	}
	src, workers := c.sortedRow(m-1), 1
	if m > 1 {
		workers = max(1, min(runtime.GOMAXPROCS(0), n/sortGrain))
	}
	dst := src
	if workers > 1 {
		dst = c.sortedRow(m - 2)
		if bits.Len(uint(workers-1))%2 == 1 { // the number of rounds
			src, dst = dst, src
		}
	}
	for id := range src {
		src[id] = uint32(id)
	}
	cut := func(w int) int { return w * n / workers }
	onEach(workers, func(w int) { slices.SortFunc(src[cut(w):cut(w+1)], compare) })
	for width := 1; width < workers; width *= 2 {
		onEach(workers, func(w int) {
			lo, hi := cut(w), cut(w+1)
			for p := 0; p < workers; p += 2 * width {
				start, mid, end := cut(p), cut(min(p+width, workers)), cut(min(p+2*width, workers))
				from, to := max(lo, start), min(hi, end)
				if from >= to {
					continue
				}
				x, y := src[start:mid], src[mid:end]
				i, j := coRank(from-start, x, y, compare), coRank(to-start, x, y, compare)
				merge(dst[from:to], x[i:j], y[from-start-i:to-start-j], compare)
			}
		})
		src, dst = dst, src
	}
}

// coRank returns how many of the first k entries of the merge of the
// sorted x and y come from x.
func coRank(k int, x, y []uint32, compare func(a, b uint32) int) int {
	lo, hi := max(0, k-len(y)), min(k, len(x))
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if compare(x[i], y[k-i-1]) < 0 {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// merge writes the merge of the sorted x and y, len(dst) entries in all,
// into dst.
func merge(dst, x, y []uint32, compare func(a, b uint32) int) {
	i, j := 0, 0
	for k := range dst {
		if j == len(y) || i < len(x) && compare(x[i], y[j]) < 0 {
			dst[k], i = x[i], i+1
		} else {
			dst[k], j = y[j], j+1
		}
	}
}

// onEach calls f(w) for every w below workers, f(0) on the caller and the
// others on goroutines of their own, and returns once every call has.
func onEach(workers int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// induceScratch is the O(n) working memory of the induced passes.
type induceScratch struct {
	keys   []uint32 // one column's ranks
	links  []int32  // one shift's next links, before packRow
	counts []uint32
	// Intermediate order of a two-digit pass: ids and the ranks they
	// came from. Allocated on the first column that needs it.
	ids   []uint32
	ranks []int32
}

const digitBits = 16

// induce derives shift i's order and next links from shift i+1's: a
// stable sort of that order by the symbol at position i. Columns of at
// most 2^16 distinct symbols take one counting pass, wider ones an LSD
// pass per 16-bit digit of the rank. The links are scattered as int32 and
// packed once the row is whole.
func (c *CSA) induce(i int, sc *induceScratch) {
	n := c.n
	c.syms.column(sc.keys, i, c.m)
	span := uint32(len(c.dictOf(i)) - 1)
	srcIDs, srcRanks := c.sortedRow(i+1), []int32(nil)
	for shift := uint(0); ; shift += digitBits {
		final := span>>shift < 1<<digitBits
		dstIDs, dstRanks := c.sortedRow(i), sc.links
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
			counts[k>>shift&mask]++
		}
		sum := uint32(0)
		for d, cnt := range counts {
			counts[d] = sum
			sum += cnt
		}
		for r, id := range srcIDs {
			d := sc.keys[id] >> shift & mask
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
			c.packRow(i, sc.links)
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
	// A run touches the rank entries of its own shifts only, and starts
	// without carried LCPs as shift 0 does, so runs share nothing they
	// write.
	return c.inRuns(c.runPerWorker(), func(from, to int) error { return c.syms.fillShifts(c, from, to) }, nil)
}

// runPerWorker is the run length that deals the shifts out one run per
// worker on up to GOMAXPROCS workers.
func (c *CSA) runPerWorker() int {
	workers := min(runtime.GOMAXPROCS(0), c.m)
	return (c.m + workers - 1) / workers
}

// inRuns cuts the shifts into runs of length from the top — [m−length, m),
// [m−2·length, m−length), … and a last, no longer, from 0 — calls f on
// every run, on up to GOMAXPROCS workers, and returns the error of the
// lowest run that failed.
//
// chain, if not nil, runs first on the caller, while the other workers
// wait for runs. It calls ready(j) once the runs from j up may start; the
// top and the bottom run wait for chain to return, and the caller then
// takes runs too.
func (c *CSA) inRuns(length int, f func(from, to int) error, chain func(ready func(j int))) error {
	m := c.m
	bottom := (m-1)%length + 1 // where the run from 0 ends
	count := 1 + (m-bottom)/length
	work := make(chan int, count) // run starts; every send fits
	var mu sync.Mutex
	failed, failedAt := error(nil), m
	onEach(min(runtime.GOMAXPROCS(0), count), func(w int) {
		if w == 0 {
			func() {
				defer close(work)
				next := m - 2*length // the highest run below the top
				ready := func(j int) {
					for ; next > 0 && next >= j; next -= length {
						work <- next
					}
				}
				if chain != nil {
					chain(ready)
				}
				if count > 1 {
					work <- m - length
				}
				ready(1)
				work <- 0
			}()
		}
		for from := range work {
			to := from + length
			if from == 0 {
				to = bottom
			}
			if err := f(from, to); err != nil {
				mu.Lock()
				if from < failedAt {
					failed, failedAt = err, from
				}
				mu.Unlock()
			}
		}
	})
	return failed
}

// fillShifts is fillLCP over shifts [from, to).
func (b block[T]) fillShifts(c *CSA, from, to int) error {
	n, m := c.n, c.m
	limit := int(c.lcpMax)
	// The first symbols of a block of neighbours are gathered ahead of
	// the comparisons: loads that depend on nothing but the order, which
	// the processor overlaps instead of stalling on one row at a time.
	var first [64]T
	next, width, mask := c.next, c.idBits, uint64(c.idMask)
	for i := from; i < to; i++ {
		row := c.sortedRow(i)
		var following []uint32 // nothing is carried out of the run
		if i+1 < to {
			following = c.sortedRow(i + 1)
		}
		a := b.str(row[0]&c.idMask, m)
		bit := c.linkBit(i, 0)
		x, la := a[i], loadLink(next, bit, mask)
		for base := 1; base < n; base += len(first) {
			ranks := row[base:min(base+len(first), n)]
			for j, w := range ranks {
				first[j] = b[int(w&c.idMask)*m+i]
			}
			for j, w := range ranks {
				r, y := base+j-1, first[j]
				if x > y {
					return errUnsorted
				}
				bit += width
				z, lb := b.str(w&c.idMask, m), loadLink(next, bit, mask)
				lcp, follows := 0, la < lb
				switch {
				case x < y:
				case follows:
					carried := int(row[r] >> c.idBits)
					lcp, _ = commonPrefix(a, z, i, max(carried-1, 1), limit)
				default:
					// Only equal strings may swap places; compared in
					// full and from the start, whatever was carried.
					if k, _ := commonPrefix(a, z, 0, 0, m); k < m {
						return errUnsorted
					}
					lcp = limit
				}
				row[r] = row[r]&c.idMask | uint32(lcp)<<c.idBits
				// The carry bounds a's LCP with its successor one shift on
				// only if b still comes after a there.
				if follows && following != nil {
					following[la] |= uint32(lcp) << c.idBits
				}
				a, x, la = z, y, lb
			}
		}
		row[n-1] &= c.idMask
	}
	return nil
}

// commonPrefix compares coded strings a and b of length m = len(a), both
// read circularly from position shift, given that their first from
// symbols are equal. It returns the length of their common prefix, capped
// at limit, and whether a is the greater at the first mismatch.
func commonPrefix[A, B code](a []A, b []B, shift, from, limit int) (int, bool) {
	m := len(a)
	b = b[:m]
	p := shift + from
	if p >= m {
		p -= m
	}
	for k := from; k < limit; k++ {
		if x, y := uint32(a[p]), uint32(b[p]); x != y {
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

// String returns the symbols of the indexed string with the given id.
func (c *CSA) String(id int) []int32 {
	out := make([]int32, c.m)
	c.syms.decode(c, id, out)
	return out
}

// Bytes returns the memory the index holds in bytes: the code block, the
// m sorted orders, the packed next links and the dictionaries.
func (c *CSA) Bytes() int64 {
	cells := int64(c.n) * int64(c.m)
	return cells*int64(c.syms.width()+4) + int64(len(c.next)) + 4*int64(len(c.dict)) + bits.UintSize/8*int64(len(c.dictAt))
}

// Result is one k-LCCS answer: a string id and its LCCS length with the
// query (the longest circular co-substring length, in [0, m]).
type Result struct {
	ID     int
	Length int
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
// (the visited bitset, per-shift bounds, the lane queue, the flat query
// buffer) and is therefore not safe for concurrent use; create one
// Searcher per goroutine — or, as the core index does, keep Searchers in
// a sync.Pool. It holds n/8 bytes of visited bits and n/16 of emitted
// ids, plus the lane queue: (m+1)·⌈2m·P/64⌉ words of buckets and 2m·P
// positions, P = 1 until a search probes. At steady state (buffers grown
// to their working size) a full Begin/Next/SearchInto cycle performs no
// heap allocations.
type Searcher struct {
	c *CSA
	// The lane queue (see the package comment): bucket L, the lanes of
	// length L, is the bitset of slots queue[L·words:(L+1)·words], and
	// pos holds each lane's rank by slot, P = 1<<logP. No bucket above
	// top has a bit set.
	queue []uint64
	pos   []int32
	words int
	logP  uint
	top   int

	bounds []bounds
	// seen has bit id set once id is emitted; emitted lists those ids
	// while there are fewer of them than words of seen, which reset clears
	// one word per id, or whole once they are as many.
	seen    []uint64
	emitted []uint32
	// qbuf holds one coded query string per probe issued so far in the
	// current search, back to back: probe p occupies qbuf[p*m : (p+1)*m]
	// (probe 0 is the unperturbed query). The buffer is reused across
	// searches.
	qbuf []uint32
	// stats
	comparisons int
}

// query returns probe p's coded query string as a view into the flat
// buffer.
func (s *Searcher) query(p int32) []uint32 {
	m := s.c.m
	return s.qbuf[int(p)*m : (int(p)+1)*m]
}

// pushQuery codes q into the flat query buffer as the next probe and
// returns its index, making room for its lanes. Steady state reuses the
// buffers' capacity.
func (s *Searcher) pushQuery(q []int32) int32 {
	s.qbuf = s.c.appendCodes(s.qbuf, q)
	probe := int32(len(s.qbuf)/s.c.m - 1)
	for probe>>s.logP != 0 {
		s.grow()
	}
	return probe
}

// NewSearcher returns a fresh Searcher for c.
func (c *CSA) NewSearcher() *Searcher {
	words := (c.n + 63) / 64
	s := &Searcher{
		c:       c,
		bounds:  make([]bounds, c.m),
		seen:    make([]uint64, words),
		emitted: make([]uint32, 0, words),
		top:     -1,
	}
	s.layout(0)
	return s
}

// layout sizes the queue for P = 1<<logP, keeping what the buffers hold;
// queue words beyond the old length are garbage until zeroed.
func (s *Searcher) layout(logP uint) {
	slots := 2 * s.c.m << logP
	s.logP, s.words = logP, (slots+63)/64
	s.queue = resize(s.queue, (s.c.m+1)*s.words)
	s.pos = resize(s.pos, slots)
}

// resize returns x at length n, its first min(n, len(x)) elements kept.
func resize[T any](x []T, n int) []T {
	if n <= cap(x) {
		return x[:n]
	}
	return append(x[:cap(x)], make([]T, n-cap(x))...)
}

// reset prepares the reusable scratch for a fresh search: an empty queue
// at P = 1, no emitted ids, an empty query buffer, zeroed counters.
func (s *Searcher) reset() {
	// Every bucket above top is empty, so this empties the queue at any
	// layout, and with it the smaller P = 1 layout.
	clear(s.queue[:(s.top+1)*s.words])
	s.top = -1
	s.layout(0)
	if len(s.emitted) == len(s.seen) {
		clear(s.seen)
	} else {
		for _, id := range s.emitted {
			s.seen[id>>6] = 0
		}
	}
	s.emitted = s.emitted[:0]
	s.comparisons = 0
	s.qbuf = s.qbuf[:0]
}

// grow doubles P and moves every lane to its slot at the new P: slot
// g·P + p becomes g·2P + p. No lane moves down, in its bucket or in the
// queue as a whole, so walking the set bits and the positions from the
// top down moves each before anything lands on it.
func (s *Searcher) grow() {
	oldLog, oldWords, oldLen := s.logP, s.words, len(s.queue)
	s.layout(oldLog + 1)
	clear(s.queue[oldLen:])
	move := func(slot int) int {
		return slot>>oldLog<<s.logP | slot&(1<<oldLog-1)
	}
	for slot := 2*s.c.m<<oldLog - 1; slot >= 0; slot-- {
		s.pos[move(slot)] = s.pos[slot]
	}
	for i := oldLen - 1; i >= 0; i-- {
		x := s.queue[i]
		s.queue[i] = 0
		for ; x != 0; x &^= 1 << (63 - bits.LeadingZeros64(x)) {
			slot := move(i%oldWords<<6 | (63 - bits.LeadingZeros64(x)))
			s.queue[i/oldWords*s.words+slot>>6] |= 1 << (slot & 63)
		}
	}
}

// push adds lane (shift, up, probe) at rank pos with the given length.
func (s *Searcher) push(shift, up int, probe, pos, length int32) {
	slot := (shift<<1|up)<<s.logP | int(probe)
	s.pos[slot] = pos
	s.queue[int(length)*s.words+slot>>6] |= 1 << (slot & 63)
	s.top = max(s.top, int(length))
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
	l, h, lenL, lenU = c.syms.bisect(s, probe, shift, l, h, lenL, lenU)
	b := bounds{posL: int32(l), posU: int32(h), lenL: lenL, lenU: lenU, validL: l >= 0, validU: h < c.n}
	// No string ⪯ q, or none ≻ q: the missing bound clamps onto the other.
	if !b.validL {
		b.posL, b.lenL = b.posU, b.lenU
	} else if !b.validU {
		b.posU, b.lenU = b.posL, b.lenL
	}
	s.push(shift, 0, probe, b.posL, b.lenL)
	s.push(shift, 1, probe, b.posU, b.lenU)
	return b
}

// bisect is search's binary search: it returns the two ranks it closes
// in on and their LCPs with the query.
func (b block[T]) bisect(s *Searcher, probe int32, shift, l, h int, lenL, lenU int32) (int, int, int32, int32) {
	c := s.c
	q := s.query(probe)
	order := c.sortedRow(shift)
	warmed := false
	for h-l > 1 {
		from := int(min(lenL, lenU))
		switch {
		case warmed:
		case h-l <= narrowWindow:
			b.warmWindow(c, shift, l, h, from)
			warmed = true
		default:
			b.warmLevels(c, shift, l, h, from)
		}
		mid := int(uint(l+h) >> 1)
		s.comparisons++
		k, greater := commonPrefix(b.str(order[mid]&c.idMask, c.m), q, shift, from, c.m)
		if greater {
			h, lenU = mid, int32(k)
		} else {
			l, lenL = mid, int32(k)
		}
	}
	return l, h, lenL, lenU
}

// narrowWindow is the widest window (h − l) that search warms whole: the
// ranks strictly inside are a few entries of one or two cache lines, and
// the links of l..h lie in one or two. Anything wider is searched by
// levels; at least 7, so that every rank warmLevels names lies inside its
// window.
// BenchmarkCSABegin on a 2-vCPU Xeon @ 2.1 GHz, µs per Begin at
// (n = 100 000, m = 32) / (n = 50 000, m = 64), medians of 7 alternating
// runs: no warming 17.0 / 34.9; 8: 10.7 / 20.5; 12: 10.4 / 20.3;
// 16: 10.7 / 20.5; 24: 11.0 / 20.5 — flat, so a constant.
const narrowWindow = 12

const _ = uint(narrowWindow - 7) // does not compile below the bound

// warmStr asks for the line of string id's symbols that a comparison
// starting from symbol `from` at this shift reads first.
func (b block[T]) warmStr(id uint32, m, shift, from int) {
	p := shift + from
	if p >= m {
		p -= m
	}
	prefetch.T0(&b[int(id)*m+p])
}

// warmWindow prepares a search that has come down to the few ranks
// strictly between l and h (at least one). It asks for the string of every
// one of them at once, so the misses overlap instead of queueing behind one
// another's comparisons. Then it looks one shift on. Begin's next search
// starts from this shift's links of the two ranks this one ends on, which
// are among l..h; the ranks all of those lead to are where its rank entries
// and, should its window be empty, its own links will be read. The links
// are asked for before the strings — the first byte of the first and the
// last byte the load of the last reads — and read after, by when they have
// had as long to arrive as this search's first string.
func (b block[T]) warmWindow(c *CSA, shift, l, h, from int) {
	lo, hi := max(l, 0), min(h, c.n-1)
	first, last := c.linkBit(shift, lo), c.linkBit(shift, hi)
	prefetch.T0(&c.next[first>>3])
	prefetch.T0(&c.next[last>>3+7])
	for _, w := range c.sortedRow(shift)[l+1 : h] {
		b.warmStr(w&c.idMask, c.m, shift, from)
	}
	if shift+1 == c.m {
		return
	}
	order, following := c.sortedRow(shift+1), c.linkBit(shift+1, 0)
	// Neighbours here mostly stay neighbours one shift on: one request
	// per run of ranks that share 16 entries, a cache line of rank entries
	// (their links take about half of one, from the first of which the
	// request is made).
	line := int32(-1)
	for k, bit := lo, first; k <= hi; k, bit = k+1, bit+c.idBits {
		if r := c.linkAt(bit); r>>4 != line {
			line = r >> 4
			prefetch.T0(&order[r])
			prefetch.T0(&c.next[(following+uint(r)*c.idBits)>>3])
		}
	}
}

// warmLevels runs two levels ahead of a search over a wide window. Before
// the middle of (l, h) is compared, it asks for the strings at the two
// ranks one of which is compared next — whose rank entries the level
// before asked for — and for the rank entries of the four that may follow
// those. A level then waits for one round of overlapped misses, not for
// two chained ones.
func (b block[T]) warmLevels(c *CSA, shift, l, h, from int) {
	order := c.sortedRow(shift)
	mid := int(uint(l+h) >> 1)
	lo, hi := int(uint(l+mid)>>1), int(uint(mid+h)>>1)
	b.warmStr(order[lo]&c.idMask, c.m, shift, from)
	b.warmStr(order[hi]&c.idMask, c.m, shift, from)
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
// then pulled with Next. q must have length m; Begin codes it into the
// searcher's buffer.
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
			if prev.validL && prev.lenL >= 1 {
				l, lenL = int(c.link(i-1, int(prev.posL))), c.shifted(prev.lenL)
			}
			if prev.validU && prev.lenU >= 1 {
				h, lenU = int(c.link(i-1, int(prev.posU))), c.shifted(prev.lenU)
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
	words, logP := s.words, s.logP
	for top := s.top; top >= 0; top-- {
		length := int32(top)
		bucket := s.queue[top*words : (top+1)*words]
		for i := 0; i < len(bucket); {
			if bucket[i] == 0 {
				i++
				continue
			}
			tz := bits.TrailingZeros64(bucket[i])
			bit, slot := uint64(1)<<tz, i<<6|tz
			lane := slot >> logP
			order := c.sortedRow(lane >> 1)
			pos := s.pos[slot]
			w := order[pos]
			// Advance this lane before the dedup check so it keeps
			// producing candidates. A lane moves away from the query's
			// place in the order, so its next length is the smaller of
			// this one and the LCP stored between the two ranks.
			npos, between := pos+1, w
			if lane&1 == 0 {
				if npos = pos - 1; npos >= 0 {
					between = order[npos]
				}
			}
			if uint32(npos) < uint32(c.n) {
				s.pos[slot] = npos
				if lcp := int32(between >> c.idBits); lcp < length {
					if lcp == c.lcpMax {
						// Saturated: the stored value is a lower bound
						// (lcp < length ≤ m, so lcpMax < m here).
						probe := int32(slot & (1<<logP - 1))
						lcp = int32(c.syms.prefix(order[npos]&c.idMask, s.query(probe), lane>>1, int(lcp), int(length)))
					}
					bucket[i] &^= bit
					s.queue[int(lcp)*words+i] |= bit
				}
			} else {
				bucket[i] &^= bit
			}
			id := w & c.idMask
			if s.seen[id>>6]&(1<<(id&63)) != 0 {
				continue
			}
			s.seen[id>>6] |= 1 << (id & 63)
			if len(s.emitted) < len(s.seen) {
				s.emitted = append(s.emitted, id)
			}
			s.top = top
			return Result{ID: int(id), Length: int(length)}, true
		}
	}
	s.top = -1
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
