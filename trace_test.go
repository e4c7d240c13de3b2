package lccs

import (
	"math/rand"
	"testing"

	"lccs/internal/obs"
)

func traceTestData(n, dim int) [][]float32 {
	r := rand.New(rand.NewSource(42))
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	return data
}

// findSpans returns the children of the single query root with the
// given stage name.
func findSpans(t *testing.T, tree []obs.SpanNode, stage string) []obs.SpanNode {
	t.Helper()
	var root *obs.SpanNode
	for i := range tree {
		if tree[i].Stage == "query" {
			root = &tree[i]
		}
	}
	if root == nil {
		t.Fatalf("no query root span in %+v", tree)
	}
	var out []obs.SpanNode
	for _, c := range root.Children {
		if c.Stage == stage {
			out = append(out, c)
		}
	}
	return out
}

func TestShardedSearchTraced(t *testing.T) {
	data := traceTestData(400, 8)
	sx, err := newSharded(data, Config{Metric: Euclidean, M: 16, Seed: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := data[3]

	plain, err := sx.SearchQuery(q, Query{K: 5, Budget: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.GetTrace(1)
	defer obs.PutTrace(tr)
	traced, err := sx.SearchQuery(q, Query{K: 5, Budget: 40, Trace: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain) {
		t.Fatalf("traced returned %d results, plain %d", len(traced), len(plain))
	}
	for i := range traced {
		if traced[i] != plain[i] {
			t.Fatalf("result %d differs: traced %+v, plain %+v", i, traced[i], plain[i])
		}
	}

	tree := tr.Tree()
	scans := findSpans(t, tree, "shard_scan")
	if len(scans) != sx.Shards() {
		t.Fatalf("want %d shard_scan spans, got %d", sx.Shards(), len(scans))
	}
	seen := map[int]bool{}
	for _, sp := range scans {
		if sp.Shard == nil {
			t.Fatalf("shard_scan span missing shard ordinal: %+v", sp)
		}
		seen[*sp.Shard] = true
		if sp.Rows <= 0 || sp.Cands <= 0 {
			t.Fatalf("shard %d span has empty counters: %+v", *sp.Shard, sp)
		}
	}
	if len(seen) != sx.Shards() {
		t.Fatalf("shard ordinals not distinct: %v", seen)
	}
	if m := findSpans(t, tree, "merge"); len(m) != 1 {
		t.Fatalf("want 1 merge span, got %d", len(m))
	}
}

func TestDynamicSearchTracedBufferScan(t *testing.T) {
	data := traceTestData(300, 8)
	// Threshold high enough that the last 100 adds stay in the buffer.
	d, err := NewDynamicIndex(data[:200], Config{Metric: Euclidean, M: 16, Seed: 7}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[200:] {
		if _, err := d.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	tr := obs.GetTrace(2)
	defer obs.PutTrace(tr)
	if _, err := d.SearchQuery(data[0], Query{K: 5, Budget: 0, Trace: tr}, nil); err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	buf := findSpans(t, tree, "buffer_scan")
	if len(buf) != 1 {
		t.Fatalf("want 1 buffer_scan span, got %d", len(buf))
	}
	if buf[0].Rows != 100 {
		t.Fatalf("buffer_scan rows = %d, want 100", buf[0].Rows)
	}
	if len(findSpans(t, tree, "shard_scan")) == 0 {
		t.Fatal("no shard_scan spans under the dynamic query root")
	}
}
