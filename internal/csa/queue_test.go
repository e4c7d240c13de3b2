package csa

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// The lane queue's bucket layout depends on P, the probe capacity, which
// Probe doubles by re-laying out the live lanes, and on reset, which must
// empty the queue and the visited bits at whatever layout the last search
// left. These tests drive both against the oracle and against fresh
// Searchers.

// probeCounts issues enough probes in one search to cross every doubling
// of P from 1 to 64.
var probeCounts = []int{0, 1, 2, 3, 5, 9, 17, 33}

// perturb returns a probe of q at one or two random positions; one in five
// is the degenerate probe equal to q, whose lanes tie with probe 0's at
// every length.
func perturb(r *rand.Rand, q []int32) ([]int32, []int) {
	m := len(q)
	pq := slices.Clone(q)
	mods := []int{r.IntN(m)}
	pq[mods[0]]++
	if m > 1 && r.IntN(2) == 0 {
		mods = append(mods, (mods[0]+1+r.IntN(m-1))%m)
		pq[mods[1]]--
	}
	if r.IntN(5) == 0 {
		copy(pq, q)
	}
	return pq, mods
}

// stepBoth draws steps candidates from s and the oracle, or all of them
// when steps < 0, and fails at the first that differs.
func stepBoth(t testing.TB, name string, s *Searcher, ref *refSearcher, steps int) {
	t.Helper()
	for step := 0; steps < 0 || step < steps; step++ {
		got, ok := s.Next()
		want, wantOK := ref.next()
		if got != want || ok != wantOK {
			t.Fatalf("%s: step %d: (%+v, %v), oracle (%+v, %v)", name, step, got, ok, want, wantOK)
		}
		if !ok {
			return
		}
	}
}

// TestProbeCountsMatchOracle: 0 to 33 probes in one search — P crosses
// each doubling, some probes arrive mid-drain, one in eight re-searches
// every shift — give the oracle's stream to exhaustion, at the natural
// LCP field width (even cases) and at 1–3 bits (odd ones). One Searcher
// serves every search of a case.
func TestProbeCountsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(0x9e, 0x0b))
	for ci, tc := range oracleCases(r) {
		n, m := len(tc.strs), len(tc.strs[0])
		fieldBits := 32
		if ci%2 == 1 {
			fieldBits = 1 + r.IntN(3)
		}
		c := newFromFlat(slices.Concat(tc.strs...), n, m, fieldBits)
		s, ref := c.NewSearcher(), newRefSearcher(c)
		q := tc.queries[r.IntN(len(tc.queries))]
		for _, count := range probeCounts {
			name := fmt.Sprintf("%s/bits%d/probes%d", tc.name, fieldBits, count)
			s.Begin(q)
			ref.begin(q)
			for j := 0; j < count; j++ {
				stepBoth(t, fmt.Sprintf("%s: before probe %d", name, j+1), s, ref, r.IntN(3))
				pq, mods := perturb(r, q)
				affected := make([]int, m)
				for i := range affected {
					affected[i] = i
				}
				if r.IntN(8) == 0 {
					s.ProbeFull(pq)
				} else {
					affected = s.Probe(pq, mods, nil)
				}
				ref.probe(pq, affected)
			}
			if p, want := 1<<s.logP, 1<<bits.Len(uint(count)); p != want {
				t.Fatalf("%s: P = %d, want %d", name, p, want)
			}
			stepBoth(t, name, s, ref, -1)
		}
	}
}

// walkOp is one search: Begin, then each probe after drawing its steps
// candidates, then draw more.
type walkOp struct {
	q      []int32
	probes []probeOp
	draw   int
}

type probeOp struct {
	pq    []int32
	mods  []int
	steps int
}

// run performs op on s and returns every candidate drawn. A search
// without probes goes through SearchInto.
func (op walkOp) run(s *Searcher) []Result {
	if len(op.probes) == 0 {
		return s.SearchInto(op.q, op.draw, nil)
	}
	var out []Result
	draw := func(k int) {
		for ; k > 0; k-- {
			res, ok := s.Next()
			if !ok {
				return
			}
			out = append(out, res)
		}
	}
	s.Begin(op.q)
	for _, p := range op.probes {
		draw(p.steps)
		s.Probe(p.pq, p.mods, nil)
	}
	draw(op.draw)
	return out
}

// TestSearcherReuseMatchesFresh: one Searcher runs every ordered pair of
// probing (stopped early, so lanes stay queued at a wide layout, or
// drained), plain, exhaustive (every id emitted: reset clears the whole
// visited bitset) and short (fewer ids than bitset words: reset clears
// one word per id) searches, and each search draws what a fresh
// Searcher draws.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewPCG(0x7e, 0x05e))
	const n, m = 700, 8
	strs := randStrings(r, n, m, 3)
	words := (n + 63) / 64
	kinds := []string{"probing", "probing-drained", "plain", "exhaustive", "short"}
	newOp := func(kind string) walkOp {
		op := walkOp{q: randStrings(r, 1, m, 3)[0]}
		switch kind {
		case "probing", "probing-drained":
			for range probeCounts[1+r.IntN(len(probeCounts)-1)] {
				pq, mods := perturb(r, op.q)
				op.probes = append(op.probes, probeOp{pq, mods, r.IntN(3)})
			}
			op.draw = 1 + r.IntN(words)
			if kind == "probing-drained" {
				op.draw = n
			}
		case "plain":
			op.draw = words + r.IntN(n/2)
		case "exhaustive":
			op.draw = n + r.IntN(2)
		case "short":
			op.draw = 1 + r.IntN(words-1)
		}
		return op
	}
	for _, fieldBits := range []int{32, 2} {
		c := newFromFlat(slices.Concat(strs...), n, m, fieldBits)
		s := c.NewSearcher()
		for _, a := range kinds {
			for _, b := range kinds {
				for _, kind := range []string{a, b} {
					op := newOp(kind)
					got, want := op.run(s), op.run(c.NewSearcher())
					if !slices.Equal(got, want) {
						t.Fatalf("bits%d: %s after %s: reused Searcher drew %v, fresh %v", fieldBits, b, a, got, want)
					}
				}
			}
		}
	}
}

// TestSearcherAllocs: at steady state Begin plus 1 009 Next calls, and
// Begin plus probes enough to have grown P plus the drain, allocate
// nothing.
func TestSearcherAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	const n, m, probes = 20000, 32, 5
	data, queries := lshStrings(n, m, 64)
	s := NewFromFlat(data, n, m).NewSearcher()
	r := rand.New(rand.NewPCG(0xa1, 0x10c))
	perturbed := make([][][]int32, len(queries))
	mods := make([][][]int, len(queries))
	for i, q := range queries {
		for range probes {
			pq, mod := perturb(r, q)
			perturbed[i], mods[i] = append(perturbed[i], pq), append(mods[i], mod)
		}
	}
	var scratch []int
	next := 0
	search := func(probe bool) func() {
		return func() {
			i := next % len(queries)
			next++
			s.Begin(queries[i])
			if probe {
				for j, pq := range perturbed[i] {
					scratch = s.Probe(pq, mods[i][j], scratch)
				}
			}
			for range 1009 {
				s.Next()
			}
		}
	}
	for _, probe := range []bool{false, true} {
		for range len(queries) {
			search(probe)()
		}
		if allocs := testing.AllocsPerRun(100, search(probe)); allocs != 0 {
			t.Errorf("probes=%v: %.1f allocations per search, want 0", probe, allocs)
		}
	}
}

// FuzzWalkOracle: for fuzzed strings, query, probes and LCP field width,
// the bounds, Comparisons() and the stream to exhaustion, probes arriving
// mid-drain, are the oracle's.
//
// The bytes are read as: n−1, m−1, alphabet−1 and the field width's
// selector; n·m symbols and the query's m; then up to 8 probes, each the
// number of candidates to draw before it, a mask of the positions it
// modifies, and one symbol per position in the mask. Missing bytes read
// as 0; symbols are taken modulo alphabet + 1, so that the query and the
// probes can hold a symbol no string has.
func FuzzWalkOracle(f *testing.F) {
	for _, tc := range oracleCases(rand.New(rand.NewPCG(0xf0, 0x22))) {
		f.Add(encodeWalk(tc))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		at := 0
		read := func() int {
			if at >= len(blob) {
				return 0
			}
			at++
			return int(blob[at-1])
		}
		n, m, alphabet := 1+read()%64, 1+read()%8, 1+read()%4
		fieldBits := []int{32, 1, 2, 3}[read()%4]
		symbol := func() int32 { return int32(read() % (alphabet + 1)) }
		data := make([]int32, n*m)
		for i := range data {
			data[i] = symbol()
		}
		q := make([]int32, m)
		for i := range q {
			q[i] = symbol()
		}
		c := newFromFlat(data, n, m, fieldBits)
		s, ref := c.NewSearcher(), newRefSearcher(c)
		s.Begin(q)
		ref.begin(q)
		for i := range ref.bounds {
			if s.bounds[i] != ref.bounds[i] {
				t.Fatalf("bounds[%d] = %+v, oracle %+v", i, s.bounds[i], ref.bounds[i])
			}
		}
		if _, want := ref.bisections(q); s.Comparisons() != want {
			t.Fatalf("%d comparisons, oracle %d", s.Comparisons(), want)
		}
		for p := 0; p < 8 && at < len(blob); p++ {
			stepBoth(t, fmt.Sprintf("before probe %d", p+1), s, ref, read()%4)
			pq, mods, mask := slices.Clone(q), []int(nil), read()
			for j := 0; j < m; j++ {
				if mask>>j&1 != 0 {
					pq[j] = symbol()
					mods = append(mods, j)
				}
			}
			ref.probe(pq, s.Probe(pq, mods, nil))
		}
		stepBoth(t, "drain", s, ref, -1)
	})
}

// encodeWalk writes an oracle case in FuzzWalkOracle's format, clipped to
// its limits: the first 64 strings, their first 8 symbols, the first
// query, symbols modulo 5, the field width picked by the case's size, and
// two probes.
func encodeWalk(tc oracleCase) []byte {
	n, m := min(len(tc.strs), 64), min(len(tc.strs[0]), 8)
	blob := []byte{byte(n - 1), byte(m - 1), 3, byte(len(tc.strs))}
	sym := func(x int32) byte { return byte((x%5 + 5) % 5) }
	for _, str := range tc.strs[:n] {
		for _, x := range str[:m] {
			blob = append(blob, sym(x))
		}
	}
	for _, x := range tc.queries[0][:m] {
		blob = append(blob, sym(x))
	}
	// A probe after one candidate modifying the first position, then one
	// after two modifying every position.
	blob = append(blob, 1, 1, sym(tc.queries[0][0]+1), 2, 0xff)
	for _, x := range tc.queries[0][:m] {
		blob = append(blob, sym(x+2))
	}
	return blob
}
