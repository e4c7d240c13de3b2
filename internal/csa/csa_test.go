package csa

import (
	"math/bits"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"lccs/internal/hstring"
)

// paperStrings are the running example of Figures 1 and 2: o1, o2, o3 and
// the query q, with m = 8.
var (
	paperO1 = []int32{1, 2, 4, 5, 6, 6, 7, 8}
	paperO2 = []int32{5, 2, 2, 4, 3, 6, 7, 8}
	paperO3 = []int32{3, 1, 3, 5, 5, 6, 4, 9}
	paperQ  = []int32{1, 2, 3, 4, 5, 6, 7, 8}
)

// TestBuildPaperExample reproduces Example 3.2's index: in the paper's
// 1-based notation I1 = [1,3,2] and N1 = [3,1,2]; 0-based, sorted[0] =
// [0,2,1] and next[0] = [2,0,1].
func TestBuildPaperExample(t *testing.T) {
	c := New([][]int32{paperO1, paperO2, paperO3})
	if got, want := rowIDs(c, 0), []int32{0, 2, 1}; !eqInt32(got, want) {
		t.Errorf("sorted[0] = %v, want %v", got, want)
	}
	if got, want := linkRow(c, 0), []int32{2, 0, 1}; !eqInt32(got, want) {
		t.Errorf("next[0] = %v, want %v", got, want)
	}
}

// TestSearchPaperExample reproduces the query of Example 3.2: the 1-LCCS of
// q is o1 with |LCCS| = 5.
func TestSearchPaperExample(t *testing.T) {
	c := New([][]int32{paperO1, paperO2, paperO3})
	s := c.NewSearcher()
	res := s.Search(paperQ, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].ID != 0 || res[0].Length != 5 {
		t.Errorf("top result = %+v, want ID 0 length 5", res[0])
	}
	if res[1].ID != 1 || res[1].Length != 3 {
		t.Errorf("second result = %+v, want ID 1 length 3", res[1])
	}
	if res[2].ID != 2 || res[2].Length != 2 {
		t.Errorf("third result = %+v, want ID 2 length 2", res[2])
	}
}

func TestNextLinksConsistency(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	c := New(randStrings(r, 50, 6, 4))
	for i := 0; i < c.m; i++ {
		following := rowIDs(c, (i+1)%c.m)
		for rank, id := range rowIDs(c, i) {
			got := following[linkRow(c, i)[rank]]
			if got != id {
				t.Fatalf("next link broken at shift %d rank %d: %d != %d", i, rank, got, id)
			}
		}
	}
}

func TestSortedOrdersAreSorted(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 19))
	strs := randStrings(r, 80, 5, 3)
	c := New(strs)
	for i := 0; i < c.m; i++ {
		ids := rowIDs(c, i)
		for rank := 1; rank < c.n; rank++ {
			if compareAt(strs[ids[rank-1]], strs[ids[rank]], i) > 0 {
				t.Fatalf("sorted[%d] out of order at rank %d", i, rank)
			}
		}
	}
}

// TestSearchMatchesBruteForce is the central correctness property: the CSA
// search returns the same LCCS lengths as the brute-force reference, and
// the returned set achieves the k best lengths.
func TestSearchMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		n := 2 + r.IntN(60)
		m := 2 + r.IntN(12)
		alphabet := int32(2 + r.IntN(4))
		strs := randStrings(r, n, m, alphabet)
		c := New(strs)
		s := c.NewSearcher()
		q := randStrings(r, 1, m, alphabet)[0]
		k := 1 + r.IntN(n)
		res := s.Search(q, k)
		if len(res) != k {
			return false
		}
		// Reference lengths.
		want := make([]int, n)
		for id, str := range strs {
			want[id] = hstring.LCCS(str, q)
		}
		// Each reported length must match the reference for that id,
		// and lengths must be non-increasing.
		for i, rr := range res {
			if want[rr.ID] != rr.Length {
				return false
			}
			if i > 0 && res[i-1].Length < rr.Length {
				return false
			}
		}
		// The k-th best reference length must not exceed the smallest
		// returned length (the set is a valid k-LCCS answer set).
		sorted := append([]int(nil), want...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		return res[k-1].Length >= sorted[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSimpleAgreesWithOptimized: the next-link narrowing must not
// change results relative to m independent full binary searches.
func TestSearchSimpleAgreesWithOptimized(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed+99))
		n := 2 + r.IntN(50)
		m := 2 + r.IntN(10)
		strs := randStrings(r, n, m, 3)
		c := New(strs)
		s := c.NewSearcher()
		q := randStrings(r, 1, m, 3)[0]
		k := 1 + r.IntN(n)
		a := s.Search(q, k)
		b := s.SearchSimple(q, k)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			// Lengths must agree; ids may differ within ties.
			if a[i].Length != b[i].Length {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchExactMatchFound(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	strs := randStrings(r, 40, 8, 4)
	c := New(strs)
	s := c.NewSearcher()
	for id := 0; id < 40; id += 7 {
		res := s.Search(strs[id], 1)
		if len(res) != 1 || res[0].Length != 8 {
			t.Fatalf("query = data[%d]: got %+v, want full-length match", id, res)
		}
		if hstring.LCCS(strs[res[0].ID], strs[id]) != 8 {
			t.Fatalf("returned id %d is not a full match", res[0].ID)
		}
	}
}

func TestSearcherReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	strs := randStrings(r, 30, 6, 3)
	c := New(strs)
	s := c.NewSearcher()
	for trial := 0; trial < 20; trial++ {
		q := randStrings(r, 1, 6, 3)[0]
		res := s.Search(q, 5)
		if len(res) != 5 {
			t.Fatalf("trial %d: got %d results", trial, len(res))
		}
		seen := map[int]bool{}
		for _, rr := range res {
			if seen[rr.ID] {
				t.Fatalf("trial %d: duplicate id %d", trial, rr.ID)
			}
			seen[rr.ID] = true
			if want := hstring.LCCS(strs[rr.ID], q); want != rr.Length {
				t.Fatalf("trial %d: id %d length %d, want %d", trial, rr.ID, rr.Length, want)
			}
		}
	}
}

func TestSearchKLargerThanN(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	strs := randStrings(r, 10, 5, 3)
	c := New(strs)
	s := c.NewSearcher()
	res := s.Search(strs[0], 25)
	if len(res) != 10 {
		t.Fatalf("got %d results, want all 10", len(res))
	}
}

func TestSingleString(t *testing.T) {
	c := New([][]int32{{5, 4, 3}})
	s := c.NewSearcher()
	res := s.Search([]int32{5, 4, 9}, 1)
	if len(res) != 1 || res[0].ID != 0 || res[0].Length != 2 {
		t.Fatalf("got %+v, want ID 0 length 2", res)
	}
}

func TestDuplicateStrings(t *testing.T) {
	s1 := []int32{1, 2, 3, 4}
	c := New([][]int32{s1, s1, s1, {9, 9, 9, 9}})
	s := c.NewSearcher()
	res := s.Search(s1, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, rr := range res[:3] {
		if rr.ID == 3 {
			t.Fatalf("far string ranked in top 3: %+v", res)
		}
		if rr.Length != 4 {
			t.Fatalf("duplicate string length %d, want 4", rr.Length)
		}
	}
}

// TestProbeMatchesFreshSearch: probing with a perturbed query must surface
// the same new candidates as a fresh search on that query would, because
// the skip rule is exact (unaffected shifts provably produce identical
// bounds).
func TestProbeMatchesFreshSearch(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed*5+3))
		n := 5 + r.IntN(40)
		m := 4 + r.IntN(8)
		strs := randStrings(r, n, m, 3)
		c := New(strs)

		q := randStrings(r, 1, m, 3)[0]
		// Perturb 1-2 positions.
		pq := append([]int32(nil), q...)
		mods := []int{r.IntN(m)}
		pq[mods[0]] = (pq[mods[0]] + 1) % 3
		if r.IntN(2) == 0 {
			p2 := (mods[0] + 1 + r.IntN(m-1)) % m
			pq[p2] = (pq[p2] + 2) % 3
			mods = append(mods, p2)
		}

		// Search via Begin + Probe, draining everything.
		s := c.NewSearcher()
		s.Begin(q)
		s.Probe(pq, mods, nil)
		got := map[int]bool{}
		for {
			rr, ok := s.Next()
			if !ok {
				break
			}
			got[rr.ID] = true
		}
		// All ids must eventually be emitted (the union of both
		// probing sequences covers everything reachable).
		return len(got) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeFindsPerturbedMatch: a data string that exactly equals the
// perturbed query must surface with a full-length match once probed.
func TestProbeFindsPerturbedMatch(t *testing.T) {
	m := 8
	q := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	pq := append([]int32(nil), q...)
	pq[3] = 99
	strs := [][]int32{
		{9, 9, 9, 9, 9, 9, 9, 9},
		append([]int32(nil), pq...), // equals perturbed query
		{1, 1, 1, 1, 1, 1, 1, 1},
	}
	c := New(strs)
	s := c.NewSearcher()
	s.Begin(q)
	s.Probe(pq, []int{3}, nil)
	best := -1
	bestLen := -1
	for {
		rr, ok := s.Next()
		if !ok {
			break
		}
		if rr.Length > bestLen {
			best, bestLen = rr.ID, rr.Length
		}
	}
	if best != 1 || bestLen != m {
		t.Fatalf("best = id %d len %d, want id 1 len %d", best, bestLen, m)
	}
}

func TestAffectedShiftsWindow(t *testing.T) {
	// With all-distinct symbols, every LCP is short, so only shifts near
	// the modified position are affected.
	r := rand.New(rand.NewPCG(31, 37))
	n, m := 64, 16
	strs := make([][]int32, n)
	for i := range strs {
		s := make([]int32, m)
		for j := range s {
			s[j] = r.Int32N(1 << 20) // effectively unique symbols
		}
		strs[i] = s
	}
	c := New(strs)
	s := c.NewSearcher()
	q := strs[0] // exact match: shift windows cover everything for this id
	s.Begin(q)
	aff := s.AffectedShifts(nil, []int{5})
	// Query equals a data string, so every shift has LCP m and all
	// shifts are affected.
	if len(aff) != m {
		t.Fatalf("exact-match query: %d affected shifts, want %d", len(aff), m)
	}

	q2 := make([]int32, m)
	for j := range q2 {
		q2[j] = r.Int32N(1 << 20)
	}
	s.Begin(q2)
	aff = s.AffectedShifts(nil, []int{5})
	// Random query vs unique symbols: LCPs are ~0, so only a few
	// shifts at or just before position 5 are affected.
	if len(aff) == 0 || len(aff) > m/2 {
		t.Fatalf("random query: %d affected shifts, want small nonzero", len(aff))
	}
	for _, i := range aff {
		d := (5 - i + m) % m
		maxLen := s.bounds[i].lenL
		if s.bounds[i].lenU > maxLen {
			maxLen = s.bounds[i].lenU
		}
		if int32(d) > maxLen {
			t.Fatalf("shift %d marked affected beyond its window", i)
		}
	}
}

func TestCSAAccessors(t *testing.T) {
	c := New([][]int32{paperO1, paperO2, paperO3})
	if c.N() != 3 || c.M() != 8 {
		t.Fatalf("N,M = %d,%d", c.N(), c.M())
	}
	if !eqInt32(c.String(1), paperO2) {
		t.Fatalf("String(1) = %v", c.String(1))
	}
	// One-byte codes (no column holds more than three symbols) and a rank
	// entry per cell; a byte of three 2-bit links per shift, and the
	// slack; 18 dictionary symbols, 9 offsets.
	if want := int64(3*8*(1+4) + 8*1 + linkSlack + 18*4 + 9*bits.UintSize/8); c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
}

func TestComparisonsCounted(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 43))
	strs := randStrings(r, 200, 16, 4)
	c := New(strs)
	s := c.NewSearcher()
	q := randStrings(r, 1, 16, 4)[0]
	s.Begin(q)
	opt := s.Comparisons()
	s.BeginSimple(q)
	simple := s.Comparisons()
	if opt <= 0 || simple <= 0 {
		t.Fatal("comparison counters not working")
	}
	if opt >= simple {
		t.Fatalf("optimized search used %d comparisons, simple %d; narrowing should reduce work", opt, simple)
	}
}

func randStrings(r *rand.Rand, n, m int, alphabet int32) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		s := make([]int32, m)
		for j := range s {
			s[j] = r.Int32N(alphabet)
		}
		out[i] = s
	}
	return out
}

// linkRow unpacks the next links of shift i.
func linkRow(c *CSA, i int) []int32 {
	out := make([]int32, c.n)
	for r := range out {
		out[r] = c.link(i, r)
	}
	return out
}

// linkBlock unpacks every shift's next links, back to back as a file
// stores them.
func linkBlock(c *CSA) []int32 {
	var out []int32
	for i := 0; i < c.m; i++ {
		out = append(out, linkRow(c, i)...)
	}
	return out
}

// rowIDs returns the string ids of shift i's order, rank by rank.
func rowIDs(c *CSA, i int) []int32 {
	out := make([]int32, c.n)
	for r, w := range c.sortedRow(i) {
		out[r] = int32(w & c.idMask)
	}
	return out
}

func eqInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
