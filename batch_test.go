package lccs

import (
	"runtime"
	"testing"
)

func TestSearchBatchMatchesSequential(t *testing.T) {
	data, g := testData(41, 800, 12, 8, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 40)
	for i := range queries {
		base := data[g.IntN(len(data))]
		q := make([]float32, len(base))
		for j := range q {
			q[j] = base[j] + float32(g.NormFloat64()*0.2)
		}
		queries[i] = q
	}
	batch := must(ix.SearchBatch(queries, 5, 60))
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, q := range queries {
		seq := must(ix.SearchQuery(q, Query{K: 5, Budget: 60}, nil))
		if len(seq) != len(batch[i]) {
			t.Fatalf("query %d: lengths differ", i)
		}
		for j := range seq {
			if seq[j] != batch[i][j] {
				t.Fatalf("query %d result %d: %+v vs %+v", i, j, seq[j], batch[i][j])
			}
		}
	}
}

// TestSearchBatchWorkersLEOne pins GOMAXPROCS to 1 so the batch engine
// answers a multi-query batch on the calling goroutine, without its
// worker pool, and checks its results are byte-identical to per-query
// Search.
func TestSearchBatchWorkersLEOne(t *testing.T) {
	data, g := testData(44, 400, 10, 6, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 8)
	for i := range queries {
		queries[i] = g.GaussianVector(10)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	batch := must(ix.SearchBatch(queries, 4, 40))
	for i, q := range queries {
		seq := must(ix.SearchQuery(q, Query{K: 4, Budget: 40}, nil))
		if len(seq) != len(batch[i]) {
			t.Fatalf("query %d: lengths differ", i)
		}
		for j := range seq {
			if seq[j] != batch[i][j] {
				t.Fatalf("query %d result %d: %+v vs %+v", i, j, seq[j], batch[i][j])
			}
		}
	}
}

// TestSearchBatchEdgeCases covers the empty batch and the one-query batch
// (which takes the workers <= 1 path because workers is capped at the
// query count).
func TestSearchBatchEdgeCases(t *testing.T) {
	data, _ := testData(45, 200, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := must(ix.SearchBatch(nil, 3, 50)); len(got) != 0 {
		t.Fatalf("empty batch: %d rows", len(got))
	}
	if got := must(ix.SearchBatch([][]float32{}, 3, 50)); len(got) != 0 {
		t.Fatalf("zero-length batch: %d rows", len(got))
	}
	one := must(ix.SearchBatch(data[:1], 3, 50))
	if len(one) != 1 {
		t.Fatalf("one-query batch: %d rows", len(one))
	}
	seq := must(ix.SearchQuery(data[0], Query{K: 3, Budget: 50}, nil))
	for j := range seq {
		if seq[j] != one[0][j] {
			t.Fatalf("one-query batch differs from Search at %d", j)
		}
	}
}

// TestShardedSearchBatchMatchesSequential checks the batch engine is
// byte-identical to per-query Search on a three-shard Index.
func TestShardedSearchBatchMatchesSequential(t *testing.T) {
	data, g := testData(46, 600, 10, 5, 0.5)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 25)
	for i := range queries {
		queries[i] = g.GaussianVector(10)
	}
	batch := must(sx.SearchBatch(queries, 5, 60))
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, q := range queries {
		seq := must(sx.SearchQuery(q, Query{K: 5, Budget: 60}, nil))
		if len(seq) != len(batch[i]) {
			t.Fatalf("query %d: lengths differ", i)
		}
		for j := range seq {
			if seq[j] != batch[i][j] {
				t.Fatalf("query %d result %d: %+v vs %+v", i, j, seq[j], batch[i][j])
			}
		}
	}
	if got := must(sx.SearchBatch(nil, 3, 0)); len(got) != 0 {
		t.Fatal("empty sharded batch should be empty")
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
