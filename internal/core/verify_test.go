package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"lccs/internal/csa"
	"lccs/internal/dataset"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// narrowing is what a segment's query asks of its stream: the offset of
// its ids, the tombstones it drops (charged to the count or free) and the
// predicate it filters by.
type narrowing struct {
	off    int
	dead   []uint64
	charge bool
	accept func(local int) bool
}

// open opens ix's stream over hq, narrowed by nw.
func (nw narrowing) open(ix *Index, q []float32, hq []int32) *Stream {
	st := ix.Open(q, hq, nw.off, nw.dead)
	if nw.charge {
		st.ChargeDead()
	}
	if nw.accept != nil {
		st.Filter(nw.accept)
	}
	return st
}

// drain is what a stream yields to a verifier asking for n candidates.
func drain(st *Stream, n int) []csa.Result {
	var out []csa.Result
	st.left = n
	for r, ok := st.next(); ok; r, ok = st.next() {
		out = append(out, r)
	}
	st.ix.ctxs.Put(st.ctx)
	return out
}

// oracleScan is what nw.open(ix, q, hq).Verify(n, best) verifies, worked
// out the long way round: it takes the first n candidates from a fresh
// csa.Searcher, dropping tombstoned and rejected ones by the same rules,
// scores them with the unbounded gather (GatherDistancesInto) and returns
// them under global ids, unsorted, with the candidates themselves in stream order (what
// drain must yield; their count is SearchStats.Candidates).
func oracleScan(ix *Index, q []float32, hq []int32, n int, nw narrowing) ([]pqueue.Neighbor, []csa.Result) {
	s := ix.csa.NewSearcher()
	s.Begin(hq)
	var stream []csa.Result
	var ids []int32
	for nCand := n; nCand > 0; {
		r, ok := s.Next()
		if !ok {
			break
		}
		if g := r.ID + nw.off; g/64 < len(nw.dead) && nw.dead[g/64]>>(g%64)&1 != 0 {
			if nw.charge {
				nCand--
			}
			continue
		}
		if nw.accept != nil && !nw.accept(r.ID) {
			continue
		}
		stream = append(stream, r)
		ids = append(ids, int32(r.ID))
		nCand--
	}
	dists := make([]float64, len(ids))
	ix.store.GatherDistancesInto(ids, q, ix.metric, dists)
	out := make([]pqueue.Neighbor, len(ids))
	for i, id := range ids {
		out[i] = pqueue.Neighbor{ID: nw.off + int(id), Dist: dists[i]}
	}
	return out, stream
}

// sameStream reports whether a stream yielded want, the oracle's
// sequence, with lengths that never increase.
func sameStream(got, want []csa.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("candidate %d is %+v, oracle %+v", i, got[i], want[i])
		}
		if i > 0 && got[i].Length > got[i-1].Length {
			return fmt.Errorf("candidate %d's length %d follows %d", i, got[i].Length, got[i-1].Length)
		}
	}
	return nil
}

// nearestOf sorts candidates by (Dist, ID) and keeps the first kc.
func nearestOf(cands []pqueue.Neighbor, kc int) []pqueue.Neighbor {
	sort.Slice(cands, func(a, b int) bool {
		return cands[a].Dist < cands[b].Dist || (cands[a].Dist == cands[b].Dist && cands[a].ID < cands[b].ID)
	})
	return cands[:min(kc, len(cands))]
}

func sameNeighbors(a, b []pqueue.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestVerifyMatchesUnboundedOracle holds the bounded verification to
// exactness: whatever rows it stops reading, every query returns bit for
// bit the k nearest (by distance, then id) of the candidates the oracle
// drains and scores in full, and verifies as many candidates. It covers
// one index through SearchInto and three segments verifying their streams
// into one collector — plain, with tombstones charged and free, filtered,
// a cursor's later page (k > k0, the candidates of a k0 query), a
// collector wider than the segments' k, a collector that starts full at
// the candidates' nearest distances — at dims on both sides of the first
// checkpoint and at GIST's 960. Each segment's stream, drained on its own,
// yields the oracle's candidates in the oracle's order, at lengths that
// never increase. Each shape pins how its queries verify (split): the
// first five serially, the d960 ones by parity and the d16 and d128 ones
// pipelined. The whole index's λ ≥ n queries split as their counts say.
// It also checks the metering: a dim without a checkpoint, or a metric
// without a bound, charges every candidate's full row; at dim 960 some
// Euclidean query charges less; every query charges the same bytes twice
// over and under GOMAXPROCS 1 and 2; and a query that is not split
// by parity charges what verifying on the calling goroutine alone
// charges (serialBytes), the pipelined ones included.
func TestVerifyMatchesUnboundedOracle(t *testing.T) {
	shapes := []verifyShape{
		{dim: 16, n: 1200, lambda: 150}, {dim: 64, n: 1200, lambda: 150}, {dim: 65, n: 1200, lambda: 150},
		{dim: 128, n: 1200, lambda: 150}, {dim: 960, n: 1200, lambda: 150},
		{dim: 960, n: 3000, lambda: 1000, mode: "parity"},
		{dim: 960, n: 3000, lambda: 1000, angular: true, mode: "parity"},
		{dim: 16, n: 6000, lambda: 2200, mode: "pipelined"},
		{dim: 128, n: 3000, lambda: 1100, mode: "pipelined"},
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("dim%d/n%d/lambda%d", sh.dim, sh.n, sh.lambda)
		if sh.angular {
			name += "/angular"
		}
		t.Run(name, func(t *testing.T) { checkVerifyShape(t, sh) })
	}
}

// verifyShape is one shape of TestVerifyMatchesUnboundedOracle: n rows of
// dim, queried at λ, and how a query of λ+k−1 candidates verifies
// (modeOf; "" for serial).
type verifyShape struct {
	dim, n, lambda int
	angular        bool
	mode           string
}

// modeOf names how ix verifies n candidates: "" serially, "parity" or
// "pipelined".
func modeOf(ix *Index, n int) string {
	switch split, pipelined := ix.split(n); {
	case pipelined:
		return "pipelined"
	case split:
		return "parity"
	}
	return ""
}

// serialBytes is what verifying nw's stream of the index ix over
// hq, n candidates into best, reads on the calling goroutine alone: the
// stream drained, then scored batch by batch in stream order, as
// verify's serial loop scores it.
func serialBytes(ix *Index, q []float32, hq []int32, n int, best *pqueue.KBest, nw narrowing) int64 {
	cands := drain(nw.open(ix, q, hq), n)
	var ids [verifyBatch]int32
	var dists [verifyBatch]float64
	var bytes int64
	for base := 0; base < len(cands); base += verifyBatch {
		b := min(len(cands)-base, verifyBatch)
		for i := 0; i < b; i++ {
			ids[i] = int32(cands[base+i].ID)
		}
		bytes += ix.scoreExact(ids[:b], dists[:], q, nw.off, best)
	}
	return bytes
}

// checkVerifyShape is TestVerifyMatchesUnboundedOracle at one shape.
func checkVerifyShape(t *testing.T, sh verifyShape) {
	const k = 10
	dim, n, lambda, angular := sh.dim, sh.n, sh.lambda, sh.angular
	g := rng.New(uint64(dim))
	data := clusteredData(g, n, dim, 12, 0.6)
	store, err := vec.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	var fam lshfamily.Family = lshfamily.NewRandomProjection(dim, 2*math.Sqrt(float64(dim)))
	if angular {
		fam = lshfamily.NewCrossPolytope(dim)
	}
	p := Params{M: 16, Seed: 3}
	whole, err := BuildStore(store, fam, p)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, n * 7 / 24, n * 2 / 3, n}
	var segs []*Index
	for i := 0; i+1 < len(bounds); i++ {
		ix, err := BuildStore(store.Slice(bounds[i], bounds[i+1]), fam, p)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, ix)
	}
	if got := modeOf(whole, lambda+k-1); got != sh.mode {
		t.Fatalf("dim %d λ %d: verifies %q, want %q", dim, lambda, got, sh.mode)
	}
	dead := make([]uint64, (n+63)/64)
	for id := 0; id < n; id += 7 {
		dead[id/64] |= 1 << (id % 64)
	}

	type variant struct {
		name   string
		segs   []*Index
		k0     int  // the first page's size; k when 0
		wide   bool // a collector of 3k rows, the segments verifying for k
		seeded bool // the collector starts full: seeds, below
		dead   []uint64
		charge bool
		accept func(global int) bool
	}
	variants := []variant{
		{name: "plain", segs: segs},
		{name: "dead charged", segs: segs, dead: dead, charge: true},
		{name: "dead free", segs: segs, dead: dead},
		{name: "filter", segs: segs, accept: func(id int) bool { return id%3 != 0 }},
		{name: "cursor page", segs: segs, k0: 4},
		{name: "wide collector", segs: segs, wide: true},
		{name: "seeded collector", segs: segs, seeded: true},
	}
	scanOf := func(v variant, off int) narrowing {
		nw := narrowing{off: off, dead: v.dead, charge: v.charge}
		if v.accept != nil {
			nw.accept = func(local int) bool { return v.accept(off + local) }
		}
		return nw
	}
	// unbounded reports whether a query's bytes must be every
	// candidate's full row: no checkpoint, or no bound to check.
	unbounded := dim <= 64 || angular

	var stoppedSomewhere bool
	for qi, q := range queriesFrom(g, data, 6, 0.3) {
		label := fmt.Sprintf("query %d", qi)
		hq := whole.HashQuery(q, nil)

		for _, lam := range []int{lambda, n} {
			cands, stream := oracleScan(whole, q, hq, lam+k-1, narrowing{})
			want, drained := nearestOf(cands, k), len(stream)
			if got := whole.SearchInto(q, k, lam, nil); !sameNeighbors(got, want) {
				t.Fatalf("%s λ %d: SearchInto %v, oracle %v", label, lam, got, want)
			}
			var bytes int64
			for run, procs := range []int{2, 2, 1} {
				prev := runtime.GOMAXPROCS(procs)
				var best pqueue.KBest
				best.Reset(k)
				st := whole.Open(q, hq, 0, nil).Verify(lam+k-1, &best)
				runtime.GOMAXPROCS(prev)
				if got := best.Sorted(); !sameNeighbors(got, want) || st.Candidates != drained {
					t.Fatalf("%s λ %d GOMAXPROCS %d: Verify %v over %d candidates, oracle %v over %d",
						label, lam, procs, got, st.Candidates, want, drained)
				}
				if run > 0 && st.BytesScanned != bytes {
					t.Fatalf("%s λ %d: %d bytes scanned under GOMAXPROCS %d, %d before", label, lam, st.BytesScanned, procs, bytes)
				}
				bytes = st.BytesScanned
			}
			full := int64(drained) * int64(dim) * 4
			if bytes > full || (unbounded && bytes != full) {
				t.Fatalf("%s λ %d: %d bytes scanned for %d candidates", label, lam, bytes, drained)
			}
			if modeOf(whole, lam+k-1) != "parity" {
				var serial pqueue.KBest
				serial.Reset(k)
				if want := serialBytes(whole, q, hq, lam+k-1, &serial, narrowing{}); bytes != want {
					t.Fatalf("%s λ %d: %d bytes scanned, %d on the calling goroutine alone", label, lam, bytes, want)
				}
			}
			stoppedSomewhere = stoppedSomewhere || bytes < full
		}

		for _, v := range variants {
			kk, lam, capacity := k, lambda, k
			if v.k0 > 0 {
				// A cursor's later page, as the facade asks for it:
				// the candidate count of a k0 query, fetched k deep.
				kk, lam, capacity = 3*k, lambda+v.k0-3*k, 3*k
			}
			if v.wide {
				capacity = 3 * k
			}
			var cands []pqueue.Neighbor
			var streams [][]csa.Result
			var drained int
			for i, ix := range v.segs {
				c, stream := oracleScan(ix, q, hq, lam+kk-1, scanOf(v, bounds[i]))
				cands = append(cands, c...)
				streams = append(streams, stream)
				drained += len(stream)
			}
			// The seeded variant's collector starts holding the distances
			// of the candidates' nearest rows under ids past the data's, as
			// if an earlier source had found rows as near, so its bound is
			// tight from the first batch; the answer is the nearest of the
			// candidates and those seeds.
			var seeds []pqueue.Neighbor
			if v.seeded {
				for i, nb := range nearestOf(append([]pqueue.Neighbor(nil), cands...), capacity) {
					seeds = append(seeds, pqueue.Neighbor{ID: n + i, Dist: nb.Dist})
				}
			}
			seed := func(best *pqueue.KBest) {
				for _, nb := range seeds {
					best.Add(nb.ID, nb.Dist)
				}
			}
			want := nearestOf(append(cands, seeds...), capacity)
			var bytes int64
			for run, procs := range []int{2, 2, 1} {
				prev := runtime.GOMAXPROCS(procs)
				var best pqueue.KBest
				best.Reset(capacity)
				seed(&best)
				var st SearchStats
				for i, ix := range v.segs {
					one := scanOf(v, bounds[i]).open(ix, q, hq).Verify(lam+kk-1, &best)
					st.Candidates += one.Candidates
					st.BytesScanned += one.BytesScanned
					if err := sameStream(drain(scanOf(v, bounds[i]).open(ix, q, hq), lam+kk-1), streams[i]); err != nil {
						t.Fatalf("%s %s segment %d GOMAXPROCS %d: stream: %v", label, v.name, i, procs, err)
					}
				}
				runtime.GOMAXPROCS(prev)
				if got := best.Sorted(); !sameNeighbors(got, want) || st.Candidates != drained {
					t.Fatalf("%s %s GOMAXPROCS %d: got %v over %d candidates, oracle %v over %d",
						label, v.name, procs, got, st.Candidates, want, drained)
				}
				if run > 0 && st.BytesScanned != bytes {
					t.Fatalf("%s %s: %d bytes scanned under GOMAXPROCS %d, %d before", label, v.name, st.BytesScanned, procs, bytes)
				}
				bytes = st.BytesScanned
				full := int64(st.Candidates) * int64(dim) * 4
				if bytes > full || (unbounded && bytes != full) {
					t.Fatalf("%s %s: %d bytes scanned, %d candidates read in full are %d",
						label, v.name, bytes, st.Candidates, full)
				}
			}
			if modeOf(v.segs[0], lam+kk-1) != "parity" {
				var serial pqueue.KBest
				serial.Reset(capacity)
				seed(&serial)
				var want int64
				for i, ix := range v.segs {
					want += serialBytes(ix, q, hq, lam+kk-1, &serial, scanOf(v, bounds[i]))
				}
				if bytes != want {
					t.Fatalf("%s %s: %d bytes scanned, %d on the calling goroutine alone", label, v.name, bytes, want)
				}
			}
		}
	}
	if dim == 960 && !angular && !stoppedSomewhere {
		t.Fatalf("dim %d: no query stopped reading a row", dim)
	}
}

// TestSplitHelperEndsWithItsQuery checks that a helper goroutine does not
// outlive its query: not after a query that returns, nor after one whose
// filter panics mid-drain, once hand-offs have begun. It runs a d960
// query split by parity and a d16 one that is pipelined.
func TestSplitHelperEndsWithItsQuery(t *testing.T) {
	for _, sh := range []verifyShape{
		{dim: 960, n: 1500, lambda: 1000, mode: "parity"},
		{dim: 16, n: 6000, lambda: 3000, mode: "pipelined"},
	} {
		t.Run(sh.mode, func(t *testing.T) { checkHelperEnds(t, sh) })
	}
}

// checkHelperEnds is TestSplitHelperEndsWithItsQuery at one shape.
func checkHelperEnds(t *testing.T, sh verifyShape) {
	const k = 10
	g := rng.New(5)
	data := clusteredData(g, sh.n, sh.dim, 12, 0.6)
	ix, err := Build(data, lshfamily.NewRandomProjection(sh.dim, 2*math.Sqrt(float64(sh.dim))), Params{M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := modeOf(ix, sh.lambda+k-1); got != sh.mode {
		t.Fatalf("verifies %q, want %q", got, sh.mode)
	}
	q := queriesFrom(g, data, 1, 0.3)[0]
	hq := ix.HashQuery(q, nil)
	settled := func(want int) bool {
		for i := 0; i < 1000 && runtime.NumGoroutine() > want; i++ {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine() <= want
	}
	before := runtime.NumGoroutine()
	var best pqueue.KBest
	best.Reset(k)
	ix.Open(q, hq, 0, nil).Verify(sh.lambda+k-1, &best)
	if !settled(before) {
		t.Fatalf("%d goroutines after a split query returned, %d before", runtime.NumGoroutine(), before)
	}

	seen := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the filter's panic did not reach the caller")
			}
		}()
		best.Reset(k)
		st := ix.Open(q, hq, 0, nil)
		st.Filter(func(int) bool {
			if seen++; seen == 5*verifyBatch {
				panic("filter")
			}
			return true
		})
		st.Verify(sh.lambda+k-1, &best)
	}()
	if !settled(before) {
		t.Fatalf("%d goroutines after a split query panicked, %d before", runtime.NumGoroutine(), before)
	}
}

// BenchmarkVerify runs one query at a time against 50 000 rows (k = 10)
// at budgets λ of 100, 300, 1 000 and 3 000 (and, over sift, 800 and
// 1 600) over the sift (d128) and gist (d960) presets at static-d960's
// m = 64, and at 100, 1 000 and 3 000 over d16, clusteredData at
// churn-d16's dimension and m = 32 (verifyData): the verification this
// package's bounded gather and its helper goroutine serve;
// gist/lambda=1000 is static-d960's own query. Besides the time it
// reports read-frac, the vector bytes the gathers read over what reading
// every candidate's row in full would take — the share of the traffic the
// bound leaves. The saturated variants (gist at λ = 1 000, sift at 1 600,
// d16 at 3 000) run GOMAXPROCS such queries at once (b.RunParallel), so no
// core is idle for a helper: what splitting a query costs a loaded
// machine. Re-running it with another boundStride (and the assembly's
// checkpoint mask to match), or with split forced one way, gives the sweeps
// in docs/PERFORMANCE.md, "Bounded verification", "Verifying on the idle
// core" and "Pipelining drain-bound queries".
func BenchmarkVerify(b *testing.B) {
	const n, nq, k = 50_000, 200, 10
	type cell struct {
		lambda    int
		saturated bool
	}
	cells := map[string][]cell{
		"sift": {{lambda: 100}, {lambda: 300}, {lambda: 800}, {lambda: 1000},
			{lambda: 1600}, {lambda: 3000}, {lambda: 1600, saturated: true}},
		"gist": {{lambda: 100}, {lambda: 300}, {lambda: 1000}, {lambda: 3000},
			{lambda: 1000, saturated: true}},
		"d16": {{lambda: 100}, {lambda: 1000}, {lambda: 3000}, {lambda: 3000, saturated: true}},
	}
	for _, preset := range []string{"sift", "gist", "d16"} {
		var (
			ix      *Index
			queries [][]float32
			hqs     [][]int32
		)
		setup := func(b *testing.B) {
			if ix != nil {
				return
			}
			store, qs, m := verifyData(b, preset, n, nq)
			var err error
			ix, err = BuildStore(store, lshfamily.NewRandomProjection(store.Dim(), nnWidth(store)), Params{M: m, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			queries = qs
			hqs = make([][]int32, len(queries))
			for i, q := range queries {
				hqs[i] = ix.HashQuery(q, nil)
			}
		}
		for _, c := range cells[preset] {
			name := fmt.Sprintf("%s/lambda=%d", preset, c.lambda)
			if c.saturated {
				name = fmt.Sprintf("%s-saturated/lambda=%d", preset, c.lambda)
			}
			b.Run(name, func(b *testing.B) {
				setup(b)
				if c.saturated {
					var next atomic.Int64
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						var best pqueue.KBest
						for pb.Next() {
							qi := int(next.Add(1)) % len(queries)
							best.Reset(k)
							ix.Open(queries[qi], hqs[qi], 0, nil).Verify(c.lambda+k-1, &best)
						}
					})
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
					return
				}
				var best pqueue.KBest
				var read, full int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qi := i % len(queries)
					best.Reset(k)
					st := ix.Open(queries[qi], hqs[qi], 0, nil).Verify(c.lambda+k-1, &best)
					read += st.BytesScanned
					full += int64(st.Candidates) * int64(ix.store.Dim()) * 4
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
				b.ReportMetric(float64(read)/float64(full), "read-frac")
			})
		}
	}
}

// verifyData is BenchmarkVerify's dataset of preset, n rows and nq
// queries, and the hash-string length m it is indexed with: the sift and
// gist presets at m = 64, or, for "d16", 16-dimensional clusteredData at
// m = 32, the shape of the benchmark's d16 workloads.
func verifyData(b *testing.B, preset string, n, nq int) (*vec.Store, [][]float32, int) {
	if preset == "d16" {
		g := rng.New(1)
		data := clusteredData(g, n, 16, 100, 1)
		store, err := vec.FromRows(data)
		if err != nil {
			b.Fatal(err)
		}
		return store, queriesFrom(g, data, nq, 0.5), 32
	}
	spec, err := dataset.Preset(preset, n, nq, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	store, err := ds.FlatData()
	if err != nil {
		b.Fatal(err)
	}
	return store, ds.Queries, 64
}

// nnWidth is the Euclidean family's bucket width as the facade derives it
// (twice the median nearest-neighbour distance within a sample), so the
// benchmark's candidate streams look like the facade's.
func nnWidth(store *vec.Store) float64 {
	g := rng.New(7)
	var nn []float64
	for s := 0; s < 64; s++ {
		a := store.Row(g.IntN(store.Len()))
		best := math.Inf(1)
		for t := 0; t < 512; t++ {
			if d := vec.Distance(a, store.Row(g.IntN(store.Len()))); d > 0 && d < best {
				best = d
			}
		}
		nn = append(nn, best)
	}
	sort.Float64s(nn)
	return 2 * nn[len(nn)/2]
}
