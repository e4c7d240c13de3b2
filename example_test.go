package lccs_test

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"lccs"
)

// uniform returns a deterministic stream of floats in [0, 1): a linear
// congruential generator, so every Output below is fixed by the seed.
func uniform(seed uint64) func() float32 {
	state := seed
	return func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(state>>40) / float32(1<<24)
	}
}

// grid builds a small deterministic dataset: points on a jittered integer
// grid, so nearest neighbors are unambiguous.
func grid(n, d int) [][]float32 {
	next := uniform(0x9E3779B97F4A7C15)
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(10*((i+j)%7)) + next()
		}
		data[i] = v
	}
	return data
}

func ExampleNewIndex() {
	data := grid(500, 16)
	ix, err := lccs.NewIndex(data, lccs.Config{
		Metric:      lccs.Euclidean,
		M:           32,
		BucketWidth: 8,
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	// Querying with an indexed vector returns it at distance 0.
	res, err := ix.Search(data[42], 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(res[0].ID, res[0].Dist == 0)
	// Output: 42 true
}

func ExampleIndex_SearchQuery() {
	data := grid(500, 16)
	ix, err := lccs.NewIndex(data, lccs.Config{
		Metric:      lccs.Euclidean,
		M:           32,
		BucketWidth: 8,
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	// A larger candidate budget λ verifies more of the CSA's frontier:
	// results can only improve.
	loose, err := ix.SearchQuery(data[7], lccs.Query{K: 5, Budget: 10}, nil)
	if err != nil {
		panic(err)
	}
	tight, err := ix.SearchQuery(data[7], lccs.Query{K: 5, Budget: 200}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(loose), len(tight), tight[0].Dist == 0)
	// Output: 5 5 true
}

func ExampleLoad() {
	data := grid(600, 16)
	ix, err := lccs.NewIndex(data, lccs.Config{
		Metric:      lccs.Euclidean,
		M:           32,
		BucketWidth: 8,
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "lccs-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.lccs")
	if err := ix.Save(path); err != nil {
		panic(err)
	}

	// A warm start: Load opens the file over the same rows without
	// rebuilding, and NewDynamicIndexFrom makes it writable again.
	loaded, err := lccs.Load(path, data)
	if err != nil {
		panic(err)
	}
	dyn := lccs.NewDynamicIndexFrom(loaded, 0)
	novel := make([]float32, 16)
	for j := range novel {
		novel[j] = 100 // far from every grid point
	}
	id, err := dyn.Add(novel)
	if err != nil {
		panic(err)
	}
	// The insert is searchable at once, from the exactly scanned buffer.
	res, err := dyn.Search(novel, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(loaded.Shards(), id, res[0].ID, dyn.Buffered())
	// A delete takes effect at once too.
	deleted := dyn.Delete(id)
	res, err = dyn.Search(novel, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(deleted, res[0].ID != id, dyn.Len())
	// Output:
	// 1 600 600 1
	// true true 600
}

func ExampleNewIndex_hamming() {
	// 256-bit fingerprints, one coordinate per bit. Document 100 has
	// near-duplicates planted at Hamming distances 4, 12 and 40; random
	// fingerprints sit about 128 apart.
	const bits = 256
	next := uniform(3)
	data := make([][]float32, 2000)
	for i := range data {
		v := make([]float32, bits)
		for j := range v {
			v[j] = float32(int(2 * next()))
		}
		data[i] = v
	}
	for id, flips := range map[int]int{200: 4, 300: 12, 400: 40} {
		v := slices.Clone(data[100])
		for j := 0; j < flips; j++ {
			v[j*7%bits] = 1 - v[j*7%bits] // distinct bits: 7 is coprime to 256
		}
		data[id] = v
	}

	// Bit sampling hashes by one coordinate lookup, so a large m is cheap.
	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Hamming, M: 128, Seed: 8})
	if err != nil {
		panic(err)
	}
	res, err := ix.SearchQuery(data[100], lccs.Query{K: 4, Budget: 100}, nil)
	if err != nil {
		panic(err)
	}
	for _, nb := range res {
		fmt.Println(nb.ID, nb.Dist)
	}
	// Output:
	// 100 0
	// 200 4
	// 300 12
	// 400 40
}

func ExampleNewIndex_angular() {
	// Unit vectors around 20 topic directions, searched under Angular
	// distance (the cross-polytope family); each query nudges a data
	// point.
	const n, dim, k = 2000, 32, 10
	next := uniform(21)
	around := func(v []float32, spread float32) []float32 {
		out := make([]float32, dim)
		var norm float64
		for j := range out {
			out[j] = v[j] + spread*(2*next()-1)
			norm += float64(out[j]) * float64(out[j])
		}
		for j := range out {
			out[j] /= float32(math.Sqrt(norm))
		}
		return out
	}
	topics := make([][]float32, 20)
	for i := range topics {
		topics[i] = around(make([]float32, dim), 1)
	}
	data := make([][]float32, n)
	for i := range data {
		data[i] = around(topics[i%len(topics)], 0.3)
	}
	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Angular, M: 32, Seed: 5})
	if err != nil {
		panic(err)
	}

	// The exact answers rank every row by the index's Distance.
	queries := make([][]float32, 20)
	truth := make([][]int, len(queries))
	for i := range queries {
		q := around(data[i*97], 0.05)
		ids := make([]int, n)
		for id := range ids {
			ids[id] = id
		}
		slices.SortFunc(ids, func(a, b int) int {
			return cmp.Compare(ix.Distance(data[a], q), ix.Distance(data[b], q))
		})
		queries[i], truth[i] = q, ids[:k]
	}
	// A larger candidate budget λ verifies more candidates: recall rises.
	for _, budget := range []int{20, 400} {
		hits := 0
		for i, q := range queries {
			res, err := ix.SearchQuery(q, lccs.Query{K: k, Budget: budget}, nil)
			if err != nil {
				panic(err)
			}
			for _, nb := range res {
				if slices.Contains(truth[i], nb.ID) {
					hits++
				}
			}
		}
		fmt.Printf("λ=%d recall@%d=%.2f\n", budget, k, float64(hits)/float64(k*len(queries)))
	}
	// Output:
	// λ=20 recall@10=0.49
	// λ=400 recall@10=0.96
}
