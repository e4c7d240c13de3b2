package lccs

import (
	"math"
	"sort"
	"testing"

	"lccs/internal/rng"
	"lccs/internal/vec"
)

// must unwraps a (value, error) search-API return, panicking on error
// (the testing framework reports the panic as a failure with a stack).
// It keeps result-content assertions terse across the suite; tests that
// assert on the error itself call the API directly.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func testData(seed uint64, n, d, clusters int, spread float64) ([][]float32, *rng.RNG) {
	g := rng.New(seed)
	centers := make([][]float32, clusters)
	for i := range centers {
		centers[i] = g.UniformVector(d, -10, 10)
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[i%clusters]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(g.NormFloat64()*spread)
		}
		data[i] = v
	}
	return data, g
}

func bruteKNN(data [][]float32, q []float32, k int, dist func(a, b []float32) float64) []Neighbor {
	all := make([]Neighbor, len(data))
	for i, v := range data {
		all[i] = Neighbor{ID: i, Dist: dist(v, q)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Dist < all[b].Dist })
	return all[:k]
}

func TestNewIndexValidation(t *testing.T) {
	data, _ := testData(1, 50, 8, 5, 0.5)
	if _, err := NewIndex(nil, Config{Metric: Euclidean}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := NewIndex([][]float32{{}}, Config{Metric: Euclidean}); err == nil {
		t.Error("zero-dim should fail")
	}
	if _, err := NewIndex(data, Config{Metric: "chebyshev"}); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := NewIndex(data, Config{Metric: Euclidean, M: -1}); err == nil {
		t.Error("negative M should fail")
	}
	ix, err := NewIndex(data, Config{Metric: Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if ix.M() != defaultM || ix.Len() != 50 {
		t.Fatalf("defaults: M=%d Len=%d", ix.M(), ix.Len())
	}
	if ix.Bytes() <= 0 || ix.BuildTime() < 0 {
		t.Fatal("accounting")
	}
}

func TestEuclideanRecall(t *testing.T) {
	data, g := testData(2, 2000, 16, 20, 0.8)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var recall float64
	const nq, k = 20, 10
	for i := 0; i < nq; i++ {
		base := data[g.IntN(len(data))]
		q := make([]float32, len(base))
		for j := range q {
			q[j] = base[j] + float32(g.NormFloat64()*0.4)
		}
		want := bruteKNN(data, q, k, vec.Distance)
		got := must(ix.SearchQuery(q, Query{K: k, Budget: 200}, nil))
		wantSet := map[int]bool{}
		for _, w := range want {
			wantSet[w.ID] = true
		}
		hit := 0
		for _, r := range got {
			if wantSet[r.ID] {
				hit++
			}
		}
		recall += float64(hit) / k
	}
	if avg := recall / nq; avg < 0.7 {
		t.Fatalf("recall %.2f too low", avg)
	}
}

func TestAngularSearch(t *testing.T) {
	data, _ := testData(3, 1000, 24, 10, 0.5)
	for _, v := range data {
		vec.NormalizeInPlace(v)
	}
	ix, err := NewIndex(data, Config{Metric: Angular, M: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := data[123]
	got := must(ix.SearchQuery(q, Query{K: 5, Budget: 100}, nil))
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].Dist > 1e-6 {
		t.Fatalf("self query angular distance %v", got[0].Dist)
	}
	if math.Abs(ix.Distance(data[0], data[1])-vec.AngularDistance(data[0], data[1])) > 1e-12 {
		t.Fatal("Distance accessor wrong metric")
	}
}

func TestHammingSearch(t *testing.T) {
	g := rng.New(4)
	d := 64
	data := make([][]float32, 500)
	for i := range data {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(g.IntN(2))
		}
		data[i] = v
	}
	ix, err := NewIndex(data, Config{Metric: Hamming, M: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Query: a data point with a few flipped bits.
	q := append([]float32(nil), data[42]...)
	for _, j := range g.Perm(d)[:3] {
		q[j] = 1 - q[j]
	}
	got := must(ix.SearchQuery(q, Query{K: 1, Budget: 50}, nil))
	if len(got) != 1 {
		t.Fatal("no result")
	}
	if got[0].Dist > 10 {
		t.Fatalf("nearest at hamming distance %v, expected close to 3", got[0].Dist)
	}
}

func TestSearchUsesDefaultBudget(t *testing.T) {
	data, _ := testData(6, 400, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 32, Budget: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := must(ix.Search(data[7], 3))
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Dist < got[b].Dist }) {
		t.Fatal("not sorted")
	}
}

func TestAutoBucketWidth(t *testing.T) {
	data, _ := testData(7, 300, 8, 4, 0.5)
	store, err := storeFromRows(data, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if w := autoBucketWidth(store, 1); w <= 0 {
		t.Fatalf("auto width %v", w)
	}
	// Degenerate all-identical dataset falls back to 1.
	same := make([][]float32, 50)
	for i := range same {
		same[i] = []float32{1, 2, 3}
	}
	sameStore, err := storeFromRows(same, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if w := autoBucketWidth(sameStore, 1); w != 1 {
		t.Fatalf("degenerate width %v, want fallback 1", w)
	}
}

func TestJaccardFacade(t *testing.T) {
	// Sets as indicator vectors: near-duplicate sets must rank first.
	d := 128
	data := make([][]float32, 300)
	_, g := testData(43, 1, 1, 1, 1)
	for i := range data {
		v := make([]float32, d)
		for _, j := range g.Perm(d)[:20] {
			v[j] = 1
		}
		data[i] = v
	}
	// data[50] = data[10] with two members swapped.
	dup := append([]float32(nil), data[10]...)
	on, off := -1, -1
	for j, x := range dup {
		if x != 0 && on < 0 {
			on = j
		}
		if x == 0 && off < 0 {
			off = j
		}
	}
	dup[on], dup[off] = 0, 1
	data[50] = dup

	ix, err := NewIndex(data, Config{Metric: Jaccard, M: 96, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := must(ix.SearchQuery(data[10], Query{K: 2, Budget: 50}, nil))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].ID != 10 || res[0].Dist != 0 {
		t.Fatalf("self not first: %+v", res)
	}
	if res[1].ID != 50 {
		t.Fatalf("near-duplicate not second: %+v", res)
	}
	// Round-trip through Save/Load for the fourth metric too.
	path := t.TempDir() + "/jaccard.lccs"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	res2 := must(loaded.SearchQuery(data[10], Query{K: 2, Budget: 50}, nil))
	for i := range res {
		if res[i] != res2[i] {
			t.Fatal("results differ after load")
		}
	}
}
