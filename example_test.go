package lccs_test

import (
	"fmt"
	"os"
	"path/filepath"

	"lccs"
)

// grid builds a small deterministic dataset: points on a jittered integer
// grid, so nearest neighbors are unambiguous.
func grid(n, d int) [][]float32 {
	data := make([][]float32, n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(state>>40) / float32(1<<24)
	}
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

func ExampleIndex_SearchBatch() {
	data := grid(300, 8)
	ix, err := lccs.NewIndex(data, lccs.Config{
		Metric:      lccs.Euclidean,
		M:           16,
		BucketWidth: 8,
		Seed:        2,
	})
	if err != nil {
		panic(err)
	}
	results, err := ix.SearchBatch(data[:3], 2, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results), results[0][0].ID, results[1][0].ID, results[2][0].ID)
	// Output: 3 0 1 2
}

func ExampleNewShardedIndex() {
	data := grid(600, 16)
	// Three shards build their CSAs in parallel; a search hashes the query
	// once and verifies every shard's candidates into one top-k.
	ix, err := lccs.NewShardedIndex(data, lccs.Config{
		Metric:      lccs.Euclidean,
		M:           32,
		BucketWidth: 8,
		Seed:        1,
	}, 3)
	if err != nil {
		panic(err)
	}
	res, err := ix.Search(data[450], 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(ix.Shards(), ix.Len(), res[0].ID, res[0].Dist == 0)
	// Output: 3 600 450 true
}

func ExampleLoad() {
	data := grid(600, 16)
	ix, err := lccs.NewShardedIndex(data, lccs.Config{
		Metric:      lccs.Euclidean,
		M:           32,
		BucketWidth: 8,
		Seed:        1,
	}, 3)
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
	id, err := dyn.Add(data[5])
	if err != nil {
		panic(err)
	}
	res, err := dyn.SearchQuery(data[5], lccs.Query{K: 2, Budget: dyn.Len()}, nil)
	if err != nil {
		panic(err)
	}
	// The re-added vector answers beside its original, both at distance 0.
	fmt.Println(loaded.Shards(), id, dyn.Len(), res[0].ID, res[1].ID, res[1].Dist == 0)
	// Output: 3 600 601 5 600 true
}
