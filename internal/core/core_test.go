package core

import (
	"fmt"
	"sort"
	"testing"

	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// clusteredData builds a small clustered dataset: nc cluster centers with
// points scattered tightly around them, so nearest neighbors are
// meaningful.
func clusteredData(g *rng.RNG, n, d, nc int, spread float64) [][]float32 {
	centers := make([][]float32, nc)
	for i := range centers {
		centers[i] = g.UniformVector(d, -10, 10)
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[i%nc]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(g.NormFloat64()*spread)
		}
		data[i] = v
	}
	return data
}

// queriesFrom perturbs randomly chosen data points, producing queries that
// actually have near neighbors in the dataset (as the paper's query sets
// do: queries are held-out points from the same distribution).
func queriesFrom(g *rng.RNG, data [][]float32, nq int, noise float64) [][]float32 {
	out := make([][]float32, nq)
	for i := range out {
		base := data[g.IntN(len(data))]
		q := make([]float32, len(base))
		for j := range q {
			q[j] = base[j] + float32(g.NormFloat64()*noise)
		}
		out[i] = q
	}
	return out
}

func bruteForceKNN(data [][]float32, q []float32, k int, metric vec.Metric) []pqueue.Neighbor {
	b := pqueue.NewKBest(k)
	for id, v := range data {
		b.Add(id, metric.Distance(v, q))
	}
	return b.Sorted()
}

func recallOf(got, want []pqueue.Neighbor) float64 {
	wantSet := map[int]bool{}
	for _, w := range want {
		wantSet[w.ID] = true
	}
	hit := 0
	for _, gg := range got {
		if wantSet[gg.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestBuildValidation(t *testing.T) {
	g := rng.New(1)
	fam := lshfamily.NewRandomProjection(4, 4)
	if _, err := Build(nil, fam, Params{M: 8}); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := Build([][]float32{{1, 2, 3, 4}}, fam, Params{M: 0}); err == nil {
		t.Error("M=0 should fail")
	}
	if _, err := Build([][]float32{{1, 2}}, fam, Params{M: 8}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	data := clusteredData(g, 10, 4, 2, 0.1)
	ix, err := Build(data, fam, Params{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 10 || ix.M() != 8 {
		t.Fatalf("N,M = %d,%d", ix.N(), ix.M())
	}
	if ix.family != fam || ix.Metric() != vec.Euclidean {
		t.Error("accessors wrong")
	}
	if ix.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
	if len(ix.HashQuery(data[0], nil)) != 8 {
		t.Error("HashQuery length wrong")
	}
	if !vec.Equal(ix.Store().Row(3), data[3]) {
		t.Error("Store row wrong")
	}
}

func TestBuildDeterministicWithSeed(t *testing.T) {
	g := rng.New(2)
	data := clusteredData(g, 50, 8, 5, 0.2)
	fam := lshfamily.NewRandomProjection(8, 4)
	ix1, _ := Build(data, fam, Params{M: 16, Seed: 7})
	ix2, _ := Build(data, fam, Params{M: 16, Seed: 7})
	q := data[0]
	h1, h2 := ix1.HashQuery(q, nil), ix2.HashQuery(q, nil)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("same seed produced different hash functions")
		}
	}
	ix3, _ := Build(data, fam, Params{M: 16, Seed: 8})
	h3 := ix3.HashQuery(q, nil)
	same := true
	for i := range h1 {
		if h1[i] != h3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical hash functions")
	}
}

// BuildStore hashes every object through HashString, which scores a
// random-projection set four functions per kernel pass from its block; the
// CSA must hold, for every id, the string the functions give one by one
// (drawn afresh from the seed by New, so none shares a block). The shape is
// static-d960's dimension and string length.
func TestBuildStoreHashStringsD960(t *testing.T) {
	const n, d, m, seed = 1500, 960, 64, 9
	g := rng.New(4)
	data := clusteredData(g, n, d, 10, 1)
	store, err := vec.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	fam := lshfamily.NewRandomProjection(d, 40)
	ix, err := BuildStore(store, fam, Params{M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gf := rng.New(seed)
	funcs := make([]lshfamily.Func, m)
	for i := range funcs {
		funcs[i] = fam.New(gf)
	}
	for id := 0; id < n; id++ {
		got := ix.csa.String(id)
		for i, f := range funcs {
			if want := f.Hash(data[id]); got[i] != want {
				t.Fatalf("id %d position %d: CSA holds %d, the function hashes %d", id, i, got[i], want)
			}
		}
	}
}

// distinctHashData returns a dataset whose hash strings under ix are all
// distinct, or false if they are not — self-query rank-1 guarantees only
// hold without exact hash-string duplicates.
func hashStringsDistinct(ix *Index) bool {
	seen := map[string]bool{}
	for id := 0; id < ix.N(); id++ {
		h := ix.HashQuery(ix.Store().Row(id), nil)
		key := fmt.Sprint(h)
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

func TestSearchSelfQuery(t *testing.T) {
	g := rng.New(3)
	// Spread-out data and a narrow bucket width keep hash strings
	// distinct, so the self point's LCCS = m is a strict maximum.
	data := make([][]float32, 200)
	for i := range data {
		data[i] = g.UniformVector(16, -10, 10)
	}
	fam := lshfamily.NewRandomProjection(16, 2)
	ix, err := Build(data, fam, Params{M: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hashStringsDistinct(ix) {
		t.Skip("hash strings collided; self-query rank not guaranteed")
	}
	// Querying with an indexed point must return that point first:
	// its hash string matches itself with LCCS = m.
	for id := 0; id < 200; id += 37 {
		res := ix.Search(data[id], 1, 4)
		if len(res) == 0 {
			t.Fatalf("id %d: no results", id)
		}
		if res[0].Dist != 0 {
			t.Fatalf("id %d: top result at distance %v, want 0", id, res[0].Dist)
		}
	}
}

func TestSearchRecallEuclidean(t *testing.T) {
	g := rng.New(4)
	n, d, k := 2000, 24, 10
	data := clusteredData(g, n, d, 20, 0.8)
	fam := lshfamily.NewRandomProjection(d, 16)
	ix, err := Build(data, fam, Params{M: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFrom(g, data, 20, 0.4)
	var total float64
	for _, q := range queries {
		want := bruteForceKNN(data, q, k, vec.Euclidean)
		got := ix.Search(q, k, 200)
		total += recallOf(got, want)
	}
	avg := total / 20
	if avg < 0.7 {
		t.Fatalf("average recall %.2f below 0.7 with generous budget", avg)
	}
}

func TestSearchRecallAngularCrossPolytope(t *testing.T) {
	g := rng.New(6)
	n, d, k := 1500, 32, 10
	data := clusteredData(g, n, d, 15, 0.6)
	for _, v := range data {
		vec.NormalizeInPlace(v)
	}
	fam := lshfamily.NewCrossPolytope(d)
	ix, err := Build(data, fam, Params{M: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	nq := 15
	for i := 0; i < nq; i++ {
		q := vec.Normalize(data[i*7])
		want := bruteForceKNN(data, q, k, vec.Angular)
		got := ix.Search(q, k, 150)
		total += recallOf(got, want)
	}
	if avg := total / float64(nq); avg < 0.7 {
		t.Fatalf("cross-polytope recall %.2f below 0.7", avg)
	}
}

func TestSearchBudgetMonotonic(t *testing.T) {
	// More candidates (larger λ) must never decrease recall on average.
	g := rng.New(10)
	n, d, k := 1500, 16, 10
	data := clusteredData(g, n, d, 12, 0.8)
	fam := lshfamily.NewRandomProjection(d, 12)
	ix, err := Build(data, fam, Params{M: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFrom(g, data, 25, 0.4)
	recallAt := func(lambda int) float64 {
		var tot float64
		for _, q := range queries {
			want := bruteForceKNN(data, q, k, vec.Euclidean)
			tot += recallOf(ix.Search(q, k, lambda), want)
		}
		return tot / float64(len(queries))
	}
	small, large := recallAt(10), recallAt(400)
	if large < small {
		t.Fatalf("recall dropped with larger budget: %.2f -> %.2f", small, large)
	}
	if large < 0.75 {
		t.Fatalf("recall %.2f at budget 400 too low", large)
	}
}

func TestSearchStatsCounters(t *testing.T) {
	g := rng.New(12)
	data := clusteredData(g, 300, 8, 5, 0.3)
	fam := lshfamily.NewRandomProjection(8, 8)
	ix, _ := Build(data, fam, Params{M: 16, Seed: 1})
	var best pqueue.KBest
	best.Reset(5)
	st := ix.Open(data[0], ix.HashQuery(data[0], nil), 0, nil).Verify(50+5-1, &best)
	if st.Probes != 1 {
		t.Errorf("Probes = %d, want 1", st.Probes)
	}
	if st.Candidates != 54 { // λ + k − 1
		t.Errorf("Candidates = %d, want 54", st.Candidates)
	}
	// Degenerate arguments.
	best.Reset(5)
	if st := ix.Open(data[0], ix.HashQuery(data[0], nil), 0, nil).Verify(0, &best); best.Len() != 0 || st.Candidates != 0 {
		t.Error("a count of 0 should verify nothing")
	}
	if res := ix.Search(data[0], 0, 10); res != nil {
		t.Error("k=0 should return nothing")
	}
	if res := ix.Search(data[0], 5, 0); res != nil {
		t.Error("lambda=0 should return nothing")
	}
}

func TestSearchResultsSortedAndDistinct(t *testing.T) {
	g := rng.New(14)
	data := clusteredData(g, 500, 12, 6, 0.5)
	fam := lshfamily.NewRandomProjection(12, 10)
	ix, _ := Build(data, fam, Params{M: 32, Seed: 2})
	for trial := 0; trial < 10; trial++ {
		q := data[trial*31]
		res := ix.Search(q, 10, 60)
		if !sort.SliceIsSorted(res, func(a, b int) bool { return res[a].Dist < res[b].Dist }) {
			t.Fatal("results not sorted by distance")
		}
		seen := map[int]bool{}
		for _, r := range res {
			if seen[r.ID] {
				t.Fatal("duplicate result id")
			}
			seen[r.ID] = true
			if got := vec.Distance(data[r.ID], q); got != r.Dist {
				t.Fatalf("distance mismatch: %v vs %v", got, r.Dist)
			}
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := rng.New(16)
	data := make([][]float32, 400)
	for i := range data {
		data[i] = g.UniformVector(8, -10, 10)
	}
	fam := lshfamily.NewRandomProjection(8, 2)
	ix, _ := Build(data, fam, Params{M: 32, Seed: 4})
	if !hashStringsDistinct(ix) {
		t.Skip("hash strings collided; self-query rank not guaranteed")
	}
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				q := data[(w*50+i)%len(data)]
				res := ix.Search(q, 3, 20)
				if len(res) == 0 || res[0].Dist != 0 {
					t.Errorf("worker %d: self-query failed", w)
					break
				}
			}
			done <- true
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}
