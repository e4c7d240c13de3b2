package csa

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"

	"lccs/internal/pqueue"
)

// The walk, search and build this package shipped before rank entries
// carried LCPs, kept as the oracle: every length is recomputed from the
// strings, every binary search reads whole strings through sort.Search,
// every order is its own sort.Slice. The one change is that probe is the
// comparator's last component, which the old frontier left to the heap.
// The oracle reads symbols as the caller gave them — the input strings,
// or a CSA's strings through String — never a CSA's codes, so it checks
// the coding as well as the walk.

// compareAt compares strings a and b, both read circularly from shift.
func compareAt(a, b []int32, shift int) int {
	m := len(a)
	p := shift
	for i := 0; i < m; i++ {
		if a[p] != b[p] {
			return cmp.Compare(a[p], b[p])
		}
		p++
		if p >= m {
			p = 0
		}
	}
	return 0
}

// lcpAt is the length of the common prefix of a and b, both read
// circularly from shift.
func lcpAt(a, b []int32, shift int) int32 {
	m := len(a)
	p := shift
	for i := 0; i < m; i++ {
		if a[p] != b[p] {
			return int32(i)
		}
		p++
		if p >= m {
			p = 0
		}
	}
	return int32(m)
}

// rawStrings returns every string of c, decoded through String.
func rawStrings(c *CSA) [][]int32 {
	out := make([][]int32, c.n)
	for id := range out {
		out[id] = c.String(id)
	}
	return out
}

// refOrders is the build by m independent sorts plus a pos-array pass.
func refOrders(strs [][]int32) (sorted, next [][]int32) {
	n, m := len(strs), len(strs[0])
	sorted, next = make([][]int32, m), make([][]int32, m)
	for i := range sorted {
		ids := make([]int32, n)
		for j := range ids {
			ids[j] = int32(j)
		}
		sort.Slice(ids, func(a, b int) bool {
			if cmp := compareAt(strs[ids[a]], strs[ids[b]], i); cmp != 0 {
				return cmp < 0
			}
			return ids[a] < ids[b]
		})
		sorted[i] = ids
	}
	pos := make([]int32, n)
	for i := range next {
		for r, id := range sorted[(i+1)%m] {
			pos[id] = int32(r)
		}
		next[i] = make([]int32, n)
		for r, id := range sorted[i] {
			next[i][r] = pos[id]
		}
	}
	return sorted, next
}

type refEntry struct {
	len, pos, shift, dir, probe int32
}

type refSearcher struct {
	c       *CSA
	raw     [][]int32
	order   [][]int32
	heap    *pqueue.Heap[refEntry]
	bounds  []bounds
	visited []bool
	queries [][]int32
}

func newRefSearcher(c *CSA) *refSearcher {
	s := &refSearcher{c: c, raw: rawStrings(c), bounds: make([]bounds, c.m)}
	for i := 0; i < c.m; i++ {
		s.order = append(s.order, rowIDs(c, i))
	}
	return s
}

func (s *refSearcher) searchRange(q []int32, shift, lo, hi int) bounds {
	order := s.order[shift]
	first := lo + sort.Search(hi-lo+1, func(i int) bool {
		return compareAt(s.raw[order[lo+i]], q, shift) > 0
	})
	var b bounds
	if first > lo {
		b.posL, b.validL = int32(first-1), true
	} else {
		b.posL = int32(lo)
	}
	if first <= hi {
		b.posU, b.validU = int32(first), true
	} else {
		b.posU = int32(hi)
	}
	b.lenL = lcpAt(s.raw[order[b.posL]], q, shift)
	b.lenU = lcpAt(s.raw[order[b.posU]], q, shift)
	return b
}

func (s *refSearcher) seed(b bounds, shift int) {
	probe := int32(len(s.queries) - 1)
	s.heap.Push(refEntry{len: b.lenL, pos: b.posL, shift: int32(shift), dir: -1, probe: probe})
	s.heap.Push(refEntry{len: b.lenU, pos: b.posU, shift: int32(shift), dir: +1, probe: probe})
}

func (s *refSearcher) begin(q []int32) {
	c := s.c
	s.heap = pqueue.NewWithCapacity(2*c.m, func(a, b refEntry) bool {
		if a.len != b.len {
			return a.len > b.len
		}
		if a.shift != b.shift {
			return a.shift < b.shift
		}
		if a.dir != b.dir {
			return a.dir < b.dir
		}
		return a.probe < b.probe
	})
	s.visited = make([]bool, c.n)
	s.queries = [][]int32{q}
	for i := 0; i < c.m; i++ {
		lo, hi := 0, c.n-1
		if i > 0 {
			prev, links := s.bounds[i-1], linkRow(c, i-1)
			if prev.validL && prev.lenL >= 1 {
				lo = int(links[prev.posL])
			}
			if prev.validU && prev.lenU >= 1 {
				hi = int(links[prev.posU])
			}
			if lo > hi {
				lo, hi = 0, c.n-1
			}
		}
		s.bounds[i] = s.searchRange(q, i, lo, hi)
		s.seed(s.bounds[i], i)
	}
}

// probe returns the bounds it found, by shift.
func (s *refSearcher) probe(pq []int32, affected []int) map[int]bounds {
	s.queries = append(s.queries, pq)
	out := map[int]bounds{}
	for _, i := range affected {
		out[i] = s.searchRange(pq, i, 0, s.c.n-1)
		s.seed(out[i], i)
	}
	return out
}

func (s *refSearcher) next() (Result, bool) {
	c := s.c
	for s.heap.Len() > 0 {
		e := s.heap.Pop()
		order := s.order[e.shift]
		id := order[e.pos]
		if npos := e.pos + e.dir; npos >= 0 && npos < int32(c.n) {
			e2 := e
			e2.pos, e2.len = npos, lcpAt(s.raw[order[npos]], s.queries[e.probe], int(e.shift))
			s.heap.Push(e2)
		}
		if s.visited[id] {
			continue
		}
		s.visited[id] = true
		return Result{ID: int(id), Length: int(e.len)}, true
	}
	return Result{}, false
}

// bisections replays Begin's bounds phase — the narrowing through next
// links, then the bisection of the open window between two known ends —
// comparing raw strings in full. It returns the bounds by shift and the
// number of comparisons, which Comparisons() must equal: a comparison's
// outcome, not the symbols it reads, decides where the next one lands.
func (s *refSearcher) bisections(q []int32) ([]bounds, int) {
	c := s.c
	out, compared := make([]bounds, c.m), 0
	for i := range out {
		l, h, lenL, lenU := -1, c.n, int32(0), int32(0)
		if i > 0 {
			prev, links := out[i-1], linkRow(c, i-1)
			if prev.validL && prev.lenL >= 1 {
				l, lenL = int(links[prev.posL]), c.shifted(prev.lenL)
			}
			if prev.validU && prev.lenU >= 1 {
				h, lenU = int(links[prev.posU]), c.shifted(prev.lenU)
			}
		}
		for h-l > 1 {
			mid := (l + h) / 2
			compared++
			str := s.raw[s.order[i][mid]]
			if k := lcpAt(str, q, i); compareAt(str, q, i) > 0 {
				h, lenU = mid, k
			} else {
				l, lenL = mid, k
			}
		}
		b := bounds{posL: int32(l), posU: int32(h), lenL: lenL, lenU: lenU, validL: l >= 0, validU: h < c.n}
		if !b.validL {
			b.posL, b.lenL = b.posU, b.lenU
		} else if !b.validU {
			b.posU, b.lenU = b.posL, b.lenL
		}
		out[i] = b
	}
	return out, compared
}

// oracleCase is one index plus the queries to run against it.
type oracleCase struct {
	name    string
	strs    [][]int32
	queries [][]int32
}

func oracleCases(r *rand.Rand) []oracleCase {
	var cases []oracleCase
	for trial := 0; trial < 60; trial++ {
		n, m := 1+r.IntN(300), 1+r.IntN(12)
		alphabet := int32(2 + r.IntN(3))
		strs := randStrings(r, n, m, alphabet)
		qs := randStrings(r, 3, m, alphabet)
		qs = append(qs, strs[r.IntN(n)]) // a query equal to a data string
		cases = append(cases, oracleCase{fmt.Sprintf("random-%d-n%d-m%d-a%d", trial, n, m, alphabet), strs, qs})
	}
	same := make([][]int32, 40)
	for i := range same {
		same[i] = []int32{3, 1, 3, 3, 1, 2, 3}
	}
	cases = append(cases,
		oracleCase{"all-identical", same, [][]int32{same[0], {3, 1, 3, 3, 1, 2, 9}, {0, 0, 0, 0, 0, 0, 0}}},
		oracleCase{"n1", [][]int32{{5, 4, 3}}, [][]int32{{5, 4, 3}, {5, 4, 9}, {1, 1, 1}}},
		oracleCase{"m1", randStrings(r, 50, 1, 3), [][]int32{{0}, {1}, {7}, {-1}}},
		oracleCase{"n1-m1", [][]int32{{2}}, [][]int32{{2}, {3}}},
	)
	return cases
}

// TestWalkMatchesOracle: bounds per shift and the (ID, Length) stream to
// exhaustion are those of the old walk, with and without a probe, at the
// natural rank-entry layout and with the LCP field forced down to 1–3
// bits, where stored LCPs saturate and lengths are finished by comparing.
func TestWalkMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(0x16, 0xc5a))
	for _, tc := range oracleCases(r) {
		n, m := len(tc.strs), len(tc.strs[0])
		for _, fieldBits := range []int{32, 1, 2, 3} {
			c := newFromFlat(slices.Concat(tc.strs...), n, m, fieldBits)
			s, ref := c.NewSearcher(), newRefSearcher(c)
			for qi, q := range tc.queries {
				for _, withProbe := range []bool{false, true} {
					name := fmt.Sprintf("%s/bits%d/q%d/probe=%v", tc.name, fieldBits, qi, withProbe)
					s.Begin(q)
					ref.begin(q)
					for i := range ref.bounds {
						if s.bounds[i] != ref.bounds[i] {
							t.Fatalf("%s: bounds[%d] = %+v, oracle %+v", name, i, s.bounds[i], ref.bounds[i])
						}
					}
					if _, want := ref.bisections(q); s.Comparisons() != want {
						t.Fatalf("%s: %d comparisons, oracle %d", name, s.Comparisons(), want)
					}
					if withProbe {
						// Drain a little first, so the probe's lanes meet a live queue.
						for j := r.IntN(4); j > 0; j-- {
							got, _ := s.Next()
							want, _ := ref.next()
							if got != want {
								t.Fatalf("%s: before probe: %+v, oracle %+v", name, got, want)
							}
						}
						pq := append([]int32(nil), q...)
						mods := []int{r.IntN(m)}
						pq[mods[0]]++
						if m > 1 && r.IntN(2) == 0 {
							mods = append(mods, (mods[0]+1+r.IntN(m-1))%m)
							pq[mods[1]]--
						}
						if r.IntN(4) == 0 {
							copy(pq, q) // the degenerate probe: every lane ties with probe 0's
						}
						affected := s.Probe(pq, mods, nil)
						want := ref.probe(pq, affected)
						// The probe's bounds are not kept; its lanes are.
						// Compare those through the stream below, and the
						// searches through a second searcher's Begin.
						full := c.NewSearcher()
						full.BeginSimple(pq)
						for i, b := range want {
							if full.bounds[i] != b {
								t.Fatalf("%s: probe bounds[%d] = %+v, oracle %+v", name, i, full.bounds[i], b)
							}
						}
					}
					for step := 0; ; step++ {
						got, ok := s.Next()
						want, wantOK := ref.next()
						if got != want || ok != wantOK {
							t.Fatalf("%s: step %d: (%+v, %v), oracle (%+v, %v)", name, step, got, ok, want, wantOK)
						}
						if !ok {
							break
						}
					}
				}
			}
		}
	}
}

// buildInputs are symbol blocks that stress the induced build: heavy
// duplicates, negative symbols, and columns that span all of int32 (the
// two-digit radix path) beside narrow ones.
func buildInputs(r *rand.Rand) map[string][][]int32 {
	wide := func(n, m int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			out[i] = make([]int32, m)
			for j := range out[i] {
				switch r.IntN(6) {
				case 0:
					out[i][j] = math.MinInt32
				case 1:
					out[i][j] = math.MaxInt32
				case 2:
					out[i][j] = int32(r.Uint32())
				default:
					out[i][j] = r.Int32N(5) - 2
				}
			}
		}
		return out
	}
	negative := randStrings(r, 200, 7, 4)
	for _, s := range negative {
		for j := range s {
			s[j] -= 2
		}
	}
	dup := randStrings(r, 30, 6, 2)
	for i := 0; i < 170; i++ {
		dup = append(dup, dup[r.IntN(30)])
	}
	mixed := wide(150, 5)
	for _, s := range mixed {
		s[1] = r.Int32N(3) // one narrow column among wide ones
		s[3] = 70000 * r.Int32N(3)
	}
	return map[string][][]int32{
		"negative": negative, "duplicates": dup, "wide": wide(257, 9), "mixed": mixed,
		"extremes-only": {{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32}, {math.MinInt32, math.MinInt32}, {0, -1}},
		"single":        {{4, 4, 4}},
	}
}

// TestBuildMatchesReferenceSort: sorted and next are what m independent
// sort.Slice calls produce, and every stored LCP is the pairwise one.
func TestBuildMatchesReferenceSort(t *testing.T) {
	r := rand.New(rand.NewPCG(0xb01d, 16))
	for name, strs := range buildInputs(r) {
		sorted, next := refOrders(strs)
		for _, fieldBits := range []int{32, 2} {
			c := newFromFlat(slices.Concat(strs...), len(strs), len(strs[0]), fieldBits)
			for i := 0; i < c.m; i++ {
				if got := rowIDs(c, i); !eqInt32(got, sorted[i]) {
					t.Fatalf("%s: sorted[%d] = %v, want %v", name, i, got, sorted[i])
				}
				if got := linkRow(c, i); !eqInt32(got, next[i]) {
					t.Fatalf("%s: next[%d] = %v, want %v", name, i, got, next[i])
				}
			}
			checkStoredLCPs(t, c, fmt.Sprintf("%s: bits %d", name, fieldBits))
		}
	}
}

// TestBuildIndependentOfProcs: a build at GOMAXPROCS 1, 2 and 4 has the
// reference sort's orders and links and the pairwise LCPs, and encodes to
// the same bytes. The shapes straddle every point where the build splits
// its work differently: n = 2·sortGrain, below which shift m−1 is one
// sort, and 3·sortGrain and 4·sortGrain, which at 4 procs merge an odd
// range in and take two rounds; m = 1 (no spare row to merge through),
// m = 2, and m = 2·lcpRun, up to which the LCP pass has no run to start
// before the chain ends (7, 8 and 13 shifts); rows of 1, 7 and 8 bytes of links (n = 4, 14,
// 16), below 8 of which it starts none. Every input has duplicate strings,
// most a column spread over all of int32, and every build runs at
// fieldBits 32 and 2.
func TestBuildIndependentOfProcs(t *testing.T) {
	r := rand.New(rand.NewPCG(0x9c, 0x2))
	for _, shape := range []struct{ n, m int }{
		{4, 3*lcpRun + 1}, {14, 3*lcpRun + 1}, {16, 3*lcpRun + 1},
		{2*sortGrain - 1, 1}, {2 * sortGrain, 1}, {2*sortGrain - 1, 2}, {2 * sortGrain, 2},
		{2 * sortGrain, 2*lcpRun - 1}, {3 * sortGrain, 2 * lcpRun}, {4 * sortGrain, 3*lcpRun + 1},
	} {
		n, m := shape.n, shape.m
		strs := randStrings(r, n, m, 3)
		for id := range strs {
			switch {
			case id%5 == 4:
				strs[id] = strs[r.IntN(id)]
			case m > 2:
				strs[id][1] = int32(r.Uint32())
			}
		}
		sorted, next := refOrders(strs)
		data := slices.Concat(strs...)
		for _, fieldBits := range []int{32, 2} {
			var files [][]byte
			for _, procs := range []int{1, 2, 4} {
				label := fmt.Sprintf("n=%d m=%d bits %d procs %d", n, m, fieldBits, procs)
				old := runtime.GOMAXPROCS(procs)
				c := newFromFlat(data, n, m, fieldBits)
				runtime.GOMAXPROCS(old)
				for i := 0; i < m; i++ {
					if !eqInt32(rowIDs(c, i), sorted[i]) || !eqInt32(linkRow(c, i), next[i]) {
						t.Fatalf("%s: shift %d differs from the reference sort", label, i)
					}
				}
				checkStoredLCPs(t, c, label)
				var file bytes.Buffer
				if err := c.Encode(&file); err != nil {
					t.Fatal(err)
				}
				if files = append(files, file.Bytes()); !bytes.Equal(file.Bytes(), files[0]) {
					t.Fatalf("%s: encodes to other bytes than at procs 1", label)
				}
			}
		}
	}
}

// TestLayout pins the split of the rank entry the issue quotes.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		n, m   int
		idBits uint
		lcpMax int32
	}{
		{1, 8, 0, 8}, {2, 8, 1, 8}, {100000, 32, 17, 32}, {100000, 40000, 17, 32767},
		{1 << 24, 512, 24, 255}, {1<<24 + 1, 512, 25, 127}, {math.MaxInt32, 512, 31, 1},
	} {
		c := &CSA{n: tc.n, m: tc.m}
		c.setLayout(32)
		if c.idBits != tc.idBits || c.lcpMax != tc.lcpMax || c.idMask != 1<<tc.idBits-1 {
			t.Errorf("n=%d m=%d: idBits %d lcpMax %d idMask %#x, want %d %d", tc.n, tc.m, c.idBits, c.lcpMax, c.idMask, tc.idBits, tc.lcpMax)
		}
	}
}

// TestSymbolWidths: the codes take the narrowest width that holds the
// widest column — one byte up to 127 distinct symbols, two up to 32 767,
// four beyond — at build and at decode alike, and at every width query
// symbols below, between, above and equal to a column's symbols give the
// bounds, the (ID, Length) stream to exhaustion and the Comparisons() of
// the raw symbols.
func TestSymbolWidths(t *testing.T) {
	r := rand.New(rand.NewPCG(0x5e, 0x1d))
	for _, tc := range []struct{ distinct, width int }{{127, 1}, {128, 2}, {32767, 2}, {32768, 4}} {
		// Column 0 holds the distinct symbols, spread over int32 with
		// room between them and at both ends, so it is coded through a
		// sort; column 1 only MinInt32 and MaxInt32; column 2 a few small
		// symbols; column 3 as many as column 0, in a range narrow enough
		// for a table.
		d, n := tc.distinct, tc.distinct*3/2
		step := int32(math.MaxUint32 / uint32(d))
		sym := func(k int) int32 { return math.MinInt32 + 1 + int32(k)*step }
		strs := make([][]int32, n)
		for id := range strs {
			k, k3 := id, d-1-id
			if id >= d {
				k, k3 = r.IntN(d), r.IntN(d)
			}
			strs[id] = []int32{sym(k), []int32{math.MinInt32, math.MaxInt32}[r.IntN(2)], r.Int32N(3), int32(k3)}
		}
		built := New(strs)
		var buf bytes.Buffer
		if err := built.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*CSA{built, decoded} {
			name := fmt.Sprintf("%d distinct", d)
			if got := c.syms.width(); got != tc.width {
				t.Fatalf("%s: %d-byte codes, want %d", name, got, tc.width)
			}
			s, ref := c.NewSearcher(), newRefSearcher(c)
			for id, str := range ref.raw {
				if !eqInt32(str, strs[id]) {
					t.Fatalf("%s: String(%d) = %v, want %v", name, id, str, strs[id])
				}
			}
			base, k := strs[r.IntN(n)], r.IntN(d)
			var queries [][]int32
			for _, x := range []int32{math.MinInt32, sym(k) - 1, sym(k), sym(k) + 1, math.MaxInt32} {
				queries = append(queries, append([]int32{x}, base[1:]...))
			}
			for _, set := range [][2]int32{{1, 0}, {2, 7}, {3, -1}, {3, int32(d)}} {
				q := slices.Clone(base)
				q[set[0]] = set[1]
				queries = append(queries, q)
			}
			for qi, q := range queries {
				matchOracle(t, s, ref, q, fmt.Sprintf("%s: query %d %v", name, qi, q))
			}
		}
	}
}

// matchOracle runs q on s and on the oracle: the bounds, the bisections'
// Comparisons() and the (ID, Length) stream to exhaustion must agree.
func matchOracle(t *testing.T, s *Searcher, ref *refSearcher, q []int32, label string) {
	t.Helper()
	s.Begin(q)
	ref.begin(q)
	want, compared := ref.bisections(q)
	for i := range want {
		if s.bounds[i] != want[i] || s.bounds[i] != ref.bounds[i] {
			t.Fatalf("%s: bounds[%d] = %+v, oracle %+v / %+v", label, i, s.bounds[i], want[i], ref.bounds[i])
		}
	}
	if s.Comparisons() != compared {
		t.Fatalf("%s: %d comparisons, oracle %d", label, s.Comparisons(), compared)
	}
	for step := 0; ; step++ {
		got, ok := s.Next()
		want, wantOK := ref.next()
		if got != want || ok != wantOK {
			t.Fatalf("%s: step %d: (%+v, %v), oracle (%+v, %v)", label, step, got, ok, want, wantOK)
		}
		if !ok {
			break
		}
	}
}

// TestLinkWidths: at the n where the next links' width is 0, 1 and 2 bits
// and where it crosses 16 → 17, the links of a build are the reference
// sort's, a file round-trips byte for byte (encoded, decoded, encoded
// again), and the built and the decoded index give the oracle's bounds,
// Comparisons() and candidate stream.
func TestLinkWidths(t *testing.T) {
	const m = 8
	for _, tc := range []struct {
		n     int
		width uint
	}{{1, 0}, {2, 1}, {3, 2}, {65536, 16}, {65537, 17}} {
		data, queries := lshStrings(tc.n, m, 3)
		strs := make([][]int32, tc.n)
		for id := range strs {
			strs[id] = data[id*m : (id+1)*m]
		}
		queries = append(queries, strs[tc.n/2])
		built := NewFromFlat(data, tc.n, m)
		if built.idBits != tc.width {
			t.Fatalf("n=%d: %d-bit links, want %d", tc.n, built.idBits, tc.width)
		}
		_, next := refOrders(strs)
		for i := range next {
			if got := linkRow(built, i); !eqInt32(got, next[i]) {
				t.Fatalf("n=%d: next[%d] differs from the reference sort's", tc.n, i)
			}
		}
		var file, again bytes.Buffer
		if err := built.Encode(&file); err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if err := decoded.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), again.Bytes()) {
			t.Fatalf("n=%d: a decoded file re-encodes to other bytes", tc.n)
		}
		for name, c := range map[string]*CSA{"built": built, "decoded": decoded} {
			s, ref := c.NewSearcher(), newRefSearcher(c)
			for qi, q := range queries {
				matchOracle(t, s, ref, q, fmt.Sprintf("n=%d %s query %d", tc.n, name, qi))
			}
		}
	}
}
