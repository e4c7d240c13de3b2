package core

import (
	"math"
	"sort"
	"testing"

	"lccs/internal/dataset"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// oracleScan is what SearchScan(q, hq, k, lambda, sc, ·) verifies, worked
// out the long way round: it drains the same λ+k−1 candidates from a fresh
// csa.Searcher, dropping tombstoned and rejected ones by the same rules,
// scores them with the unbounded gather (GatherDistancesInto) — on an SQ8
// index after ranking them by quantized score and keeping the re-rank
// pool's best — and returns them under global ids, unsorted.
func oracleScan(ix *Index, q []float32, hq []int32, k, lambda int, sc Scan) []pqueue.Neighbor {
	s := ix.csa.NewSearcher()
	s.Begin(hq)
	var ids []int32
	for nCand := lambda + k - 1; nCand > 0; {
		r, ok := s.Next()
		if !ok {
			break
		}
		if g := r.ID + sc.Offset; g/64 < len(sc.Dead) && sc.Dead[g/64]>>(g%64)&1 != 0 {
			if sc.ChargeDead {
				nCand--
			}
			continue
		}
		if sc.Accept != nil && !sc.Accept(r.ID) {
			continue
		}
		ids = append(ids, int32(r.ID))
		nCand--
	}
	if ix.sq8 != nil && len(ids) > 0 {
		var st vec.SQ8Query
		ix.sq8.Prepare(ix.metric, q, &st)
		scores := make([]float32, len(ids))
		ix.sq8.GatherScoresInto(ids, &st, scores)
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			sa, sb := scores[order[a]], scores[order[b]]
			return sa < sb || (sa == sb && ids[order[a]] < ids[order[b]])
		})
		pool := make([]int32, min(max(ix.rerank, k), len(ids)))
		for i := range pool {
			pool[i] = ids[order[i]]
		}
		ids = pool
	}
	dists := make([]float64, len(ids))
	ix.store.GatherDistancesInto(ids, q, ix.metric, dists)
	out := make([]pqueue.Neighbor, len(ids))
	for i, id := range ids {
		out[i] = pqueue.Neighbor{ID: sc.Offset + int(id), Dist: dists[i]}
	}
	return out
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
// drains and scores in full. It covers one index through SearchInto and
// three segments verifying into one collector through SearchScan — plain,
// with tombstones charged and free, filtered, a cursor's later page (k >
// k0, the candidates of a k0 query) and SQ8 indexes — at dims on both
// sides of the first checkpoint and at GIST's 960. It also checks the
// metering: a dim without a checkpoint charges every candidate's full row,
// and at dim 960 some query charges less.
func TestVerifyMatchesUnboundedOracle(t *testing.T) {
	const k, lambda = 10, 150
	for _, dim := range []int{16, 64, 65, 128, 960} {
		g := rng.New(uint64(dim))
		n := 1200
		data := clusteredData(g, n, dim, 12, 0.6)
		store, err := vec.FromRows(data)
		if err != nil {
			t.Fatal(err)
		}
		fam := lshfamily.NewRandomProjection(dim, 2*math.Sqrt(float64(dim)))
		p := Params{M: 16, Seed: 3}
		whole, err := BuildStore(store, fam, p)
		if err != nil {
			t.Fatal(err)
		}
		bounds := []int{0, 350, 800, n}
		var segs []*Index
		for i := 0; i+1 < len(bounds); i++ {
			ix, err := BuildStore(store.Slice(bounds[i], bounds[i+1]), fam, p)
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, ix)
		}
		var sq8Segs []*Index
		for i := range segs {
			part := store.Slice(bounds[i], bounds[i+1])
			ix, err := BuildStore(part, fam, p)
			if err != nil {
				t.Fatal(err)
			}
			ix.EnableSQ8(vec.QuantizeSQ8(part), 24)
			sq8Segs = append(sq8Segs, ix)
		}
		dead := make([]uint64, (n+63)/64)
		for id := 0; id < n; id += 7 {
			dead[id/64] |= 1 << (id % 64)
		}

		type variant struct {
			name   string
			segs   []*Index
			k0     int // the first page's size; k when 0
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
			{name: "sq8", segs: sq8Segs},
			{name: "sq8 dead filter", segs: sq8Segs, dead: dead, accept: func(id int) bool { return id%2 == 0 }},
		}

		var stoppedSomewhere bool
		for qi, q := range queriesFrom(g, data, 6, 0.3) {
			hq := whole.HashQuery(q, nil)

			want := nearestOf(oracleScan(whole, q, hq, k, lambda, Scan{}), k)
			if got := whole.SearchInto(q, k, lambda, nil); !sameNeighbors(got, want) {
				t.Fatalf("dim %d query %d: SearchInto %v, oracle %v", dim, qi, got, want)
			}
			var best pqueue.KBest
			best.Reset(k)
			st := whole.SearchScan(q, hq, k, lambda, Scan{}, &best)
			full := int64(st.Candidates) * int64(dim) * 4
			if st.BytesScanned > full || (dim <= 64 && st.BytesScanned != full) {
				t.Fatalf("dim %d query %d: %d bytes scanned for %d candidates", dim, qi, st.BytesScanned, st.Candidates)
			}
			stoppedSomewhere = stoppedSomewhere || st.BytesScanned < full

			for _, v := range variants {
				kk, lam := k, lambda
				if v.k0 > 0 {
					// A cursor's later page, as the facade asks for it:
					// the candidate count of a k0 query, fetched k deep.
					kk, lam = 3*k, lambda+v.k0-3*k
				}
				var best pqueue.KBest
				best.Reset(kk)
				var cands []pqueue.Neighbor
				var verified, reranked int
				var bytes int64
				for i, ix := range v.segs {
					sc := Scan{Offset: bounds[i], Dead: v.dead, ChargeDead: v.charge}
					if v.accept != nil {
						off := bounds[i]
						sc.Accept = func(local int) bool { return v.accept(off + local) }
					}
					cands = append(cands, oracleScan(ix, q, hq, kk, lam, sc)...)
					st := ix.SearchScan(q, hq, kk, lam, sc, &best)
					verified += st.Candidates
					reranked += st.Reranked
					bytes += st.BytesScanned
				}
				want := nearestOf(cands, kk)
				if got := best.Sorted(); !sameNeighbors(got, want) {
					t.Fatalf("dim %d query %d %s: got %v, oracle %v", dim, qi, v.name, got, want)
				}
				full := int64(verified) * int64(dim) * 4
				if v.segs[0].sq8 != nil {
					full = int64(verified)*int64(dim) + int64(reranked)*int64(dim)*4
				}
				if bytes > full || (dim <= 64 && bytes != full) {
					t.Fatalf("dim %d query %d %s: %d bytes scanned, %d candidates and %d re-ranked read in full are %d",
						dim, qi, v.name, bytes, verified, reranked, full)
				}
			}
		}
		if dim == 960 && !stoppedSomewhere {
			t.Fatalf("dim %d: no query stopped reading a row", dim)
		}
	}
}

// BenchmarkVerify runs one query at a time against an index of
// static-d960's shape (50 000 GIST-like rows, m = 64, λ = 1 000, k = 10):
// the verification this package's bounded gather serves. Besides the time
// it reports read-frac, the vector bytes the gathers read over what
// reading every candidate's row in full would take — the share of the
// traffic the bound leaves. Re-running it with another boundStride (and
// the assembly's checkpoint mask to match) is the sweep in
// docs/PERFORMANCE.md, "Bounded verification".
func BenchmarkVerify(b *testing.B) {
	const n, nq, m, lambda, k = 50_000, 200, 64, 1000, 10
	spec, err := dataset.Preset("gist", n, nq, 1)
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
	ix, err := BuildStore(store, lshfamily.NewRandomProjection(store.Dim(), nnWidth(store)), Params{M: m, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	hqs := make([][]int32, len(ds.Queries))
	for i, q := range ds.Queries {
		hqs[i] = ix.HashQuery(q, nil)
	}
	var best pqueue.KBest
	var read, full int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(ds.Queries)
		best.Reset(k)
		st := ix.SearchScan(ds.Queries[qi], hqs[qi], k, lambda, Scan{}, &best)
		read += st.BytesScanned
		full += int64(st.Candidates) * int64(store.Dim()) * 4
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
	b.ReportMetric(float64(read)/float64(full), "read-frac")
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
