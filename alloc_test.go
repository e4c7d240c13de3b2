package lccs

import (
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"testing"
)

// allocWorkload builds a clustered dataset plus queries derived from
// perturbed data points.
func allocWorkload(seed uint64, n, d int) (data, queries [][]float32) {
	data, g := testData(seed, n, d, 8, 0.5)
	queries = make([][]float32, 32)
	for i := range queries {
		base := data[g.IntN(n)]
		q := make([]float32, d)
		for j := range q {
			q[j] = base[j] + float32(g.NormFloat64()*0.1)
		}
		queries[i] = q
	}
	return data, queries
}

// warmSearcher runs enough queries through ix to grow every pooled
// buffer (searcher heaps, hash-string and result buffers, shard lists)
// to its steady-state working size, returning a reusable result row.
func warmSearcher(tb testing.TB, ix Searcher, queries [][]float32, k, lambda int) []Neighbor {
	tb.Helper()
	var dst []Neighbor
	var err error
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			dst, err = ix.SearchQuery(q, Query{K: k, Budget: lambda}, dst)
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	return dst
}

// TestSearchZeroAllocIndex pins the tentpole property on the single
// Index: a warmed steady-state SearchQuery performs zero heap
// allocations per query. GOMAXPROCS is held at 1 for the measurement so
// a mid-run GC cannot strip the sync.Pool and charge a pool refill to
// the measured function.
func TestSearchZeroAllocIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(41, 2000, 12)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	dst := warmSearcher(t, ix, queries, k, lambda)

	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst, err = ix.SearchQuery(q, Query{K: k, Budget: lambda}, dst)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Index.SearchQuery: %v allocs/op, want 0", allocs)
	}
}

// TestSearchZeroAllocSharded pins the same property across shards: the
// pooled H(q) buffer and the one pooled top-k collector every shard
// verifies into make SearchQuery on a three-shard Index allocation-free
// at steady state.
func TestSearchZeroAllocSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(42, 2000, 12)
	sx, err := newSharded(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	dst := warmSearcher(t, sx, queries, k, lambda)

	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst, err = sx.SearchQuery(q, Query{K: k, Budget: lambda}, dst)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("three-shard Index.SearchQuery: %v allocs/op, want 0", allocs)
	}
}

// TestSearchZeroAllocFiltered extends the gate to filtered queries on a
// four-shard Index: each segment's candidate stream tests its rows
// through a predicate bound once per pooled query context, so no scan
// allocates a closure for it.
func TestSearchZeroAllocFiltered(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(48, 2000, 12)
	attrs := make([]Attrs, len(data))
	for i := range attrs {
		attrs[i] = Attrs{"color": StrAttr([]string{"red", "green", "blue"}[i%3])}
	}
	sx, err := newShardedWithAttrs(data, attrs, Config{Metric: Euclidean, M: 16, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	qr := Query{K: 10, Budget: 40, Filter: &Filter{Terms: []FilterTerm{EqStr("color", "red")}}}
	var dst []Neighbor
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			if dst, err = sx.SearchQuery(q, qr, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst, err = sx.SearchQuery(queries[qi%len(queries)], qr, dst)
		qi++
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("filtered four-shard Index.SearchQuery: %v allocs/op, want 0", allocs)
	}
}

// TestSearchZeroAllocSplit holds the queries internal/core verifies with
// a helper goroutine to zero allocations: a d960 query at λ = 1 000, whose
// helper scores every other batch, and a query of tombstonedD16's, whose
// helper scores every batch while the caller drains. The helper's
// collector, slots and channels live in the pooled search context, and
// the goroutine is started on a function that captures nothing.
// testing.AllocsPerRun holds GOMAXPROCS at 1, where the helper still
// runs (it does not read GOMAXPROCS). The second measurement counts
// mallocs around a loop at GOMAXPROCS 2, where the helper runs on its own
// processor, with the collector off so that no GC empties the pool, and
// repeats a loop in which the runtime started an OS thread.
func TestSearchZeroAllocSplit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(47, 2000, 960)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkZeroAllocSplit(t, "parity Index", ix, queries, 1000)
	dx, queries := tombstonedD16(t)
	checkZeroAllocSplit(t, "pipelined DynamicIndex", dx, queries, 100)
}

// tombstonedD16 is churn-d16's shape scaled down: a DynamicIndex of one
// 8 000-row d16 segment (m = 32) with every other row deleted, and
// queries near its rows. A query's count at budget 100 and k = 10,
// widened by the segment's 4 000 tombstones (segSet.scan), is 4 109
// candidates, 2.4 MB by internal/core's estimate, so its helper scores
// every batch.
func tombstonedD16(tb testing.TB) (*DynamicIndex, [][]float32) {
	data, queries := allocWorkload(53, 8000, 16)
	dx, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 32, Seed: 3}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	dead := make([]int, 0, len(data)/2)
	for id := 0; id < len(data); id += 2 {
		dead = append(dead, id)
	}
	if n, _, err := dx.DeleteBatch(dead); n != len(dead) || err != nil {
		tb.Fatalf("fixture: %d of %d deleted: %v", n, len(dead), err)
	}
	if dx.Shards() != 1 || dx.Buffered() != 0 {
		tb.Fatalf("fixture: %d shards, %d buffered", dx.Shards(), dx.Buffered())
	}
	return dx, queries
}

// checkZeroAllocSplit is TestSearchZeroAllocSplit on one searcher, at
// k = 10 and the budget lambda.
func checkZeroAllocSplit(t *testing.T, name string, ix Searcher, queries [][]float32, lambda int) {
	const k = 10
	dst := warmSearcher(t, ix, queries, k, lambda)
	var err error
	search := func(i int) {
		dst, err = ix.SearchQuery(queries[i%len(queries)], Query{K: k, Budget: lambda}, dst)
		if err != nil {
			t.Fatal(err)
		}
	}

	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		search(qi)
		qi++
	})
	if allocs != 0 {
		t.Fatalf("%s.SearchQuery under GOMAXPROCS 1: %v allocs/op, want 0", name, allocs)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A query may end on another processor than it began on, and the
	// pools of search contexts and the runtime's lists of dead goroutines
	// are kept per processor; a processor keeps up to 64 dead goroutines
	// before it shares them. Warm both with 128 queries in flight at once,
	// so that every list holds spares, then with queries one at a time.
	var wg sync.WaitGroup
	for w := 0; w < 128; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []Neighbor
			for i := 0; i < 8; i++ {
				var err error
				if dst, err = ix.SearchQuery(queries[(w+i)%len(queries)], Query{K: k, Budget: lambda}, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 1000; i++ {
		search(i)
	}
	// The runtime may start an OS thread during the loop, on a busy
	// machine: its M, g0 and signal stack are 5 allocations (448 B ×2,
	// 1 152 B ×2, 2 048 B) that no query made. A loop in which the
	// thread-creation count rose is therefore run again, up to 5 times;
	// any allocation in a loop that created no thread fails, and so do 5
	// loops that each created one.
	const runs, loops = 400, 5
	threads := pprof.Lookup("threadcreate")
	for loop := 1; ; loop++ {
		var before, after runtime.MemStats
		created := threads.Count()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			search(i)
		}
		runtime.ReadMemStats(&after)
		if threads.Count() == created {
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%s.SearchQuery under GOMAXPROCS 2: %d allocations in %d queries, want 0", name, n, runs)
			}
			return
		}
		if loop == loops {
			t.Fatalf("%s.SearchQuery under GOMAXPROCS 2: the runtime started an OS thread in each of %d loops of %d queries", name, loops, runs)
		}
	}
}

// TestSearchAllocBoundAllocatingAPI bounds the classic allocating Search
// API: after the pooled-context refactor the only per-call allocation
// left should be the returned result slice (and its growth), not the
// internal scratch.
func TestSearchAllocBoundAllocatingAPI(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(43, 2000, 12)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	warmSearcher(t, ix, queries, k, lambda)
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		if _, err := ix.SearchQuery(q, Query{K: k, Budget: lambda}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Index.SearchQuery: %v allocs/op, want ≤ 2 (result slice only)", allocs)
	}
}

// TestSearchZeroAllocCosted extends the zero-allocation gate to the
// metered path: SearchQuery with a live cost record (untraced,
// unfiltered) must stay allocation-free on every facade, so per-tenant
// usage accounting is literally free on the steady-state hot path.
func TestSearchZeroAllocCosted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(46, 2000, 12)
	const k, lambda = 10, 40

	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := newSharded(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}

	var co Cost
	for _, tc := range []struct {
		name string
		cs   Searcher
	}{{"Index", ix}, {"Index/4 shards", sx}, {"DynamicIndex", dx}} {
		// Warm the pooled scratch through the metered call itself.
		var dst []Neighbor
		for round := 0; round < 3; round++ {
			for _, q := range queries {
				co.Reset()
				if dst, err = tc.cs.SearchQuery(q, Query{K: k, Budget: lambda, Cost: &co}, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		if co.Comparisons <= 0 || co.BytesScanned <= 0 {
			t.Fatalf("%s: cost record not populated: %+v", tc.name, co)
		}
		qi := 0
		allocs := testing.AllocsPerRun(200, func() {
			q := queries[qi%len(queries)]
			qi++
			co.Reset()
			dst, err = tc.cs.SearchQuery(q, Query{K: k, Budget: lambda, Cost: &co}, dst)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s.SearchQuery: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestSearchZeroAllocTombstoned extends the gate to the tombstone path:
// a DynamicIndex with tombstones in its shards and its buffer, and the
// tombstoned Snapshot of it, answer SearchQuery — plain and metered —
// without allocating. The bitset probe rides in the pooled core.Stream.
func TestSearchZeroAllocTombstoned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(47, 2000, 12)
	const k, lambda = 10, 40
	dx, err := NewDynamicIndex(data[:1200], Config{Metric: Euclidean, M: 16, Seed: 3}, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[1200:] {
		must(dx.Add(v))
		dx.WaitRebuild()
	}
	for id := 0; id < len(data); id += 3 {
		dx.Delete(id)
	}
	if dx.Shards() != 2 || dx.Buffered() != 300 || dx.Deleted() != 667 {
		t.Fatalf("fixture: %d shards, %d buffered, %d tombstones", dx.Shards(), dx.Buffered(), dx.Deleted())
	}
	measure := func(name string, s Searcher) {
		var co Cost
		for _, cost := range []*Cost{nil, &co} {
			qr := Query{K: k, Budget: lambda, Cost: cost}
			var dst []Neighbor
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					if dst, err = s.SearchQuery(q, qr, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			qi := 0
			allocs := testing.AllocsPerRun(200, func() {
				dst, err = s.SearchQuery(queries[qi%len(queries)], qr, dst)
				qi++
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s.SearchQuery (metered: %v): %v allocs/op, want 0", name, cost != nil, allocs)
			}
		}
	}
	measure("DynamicIndex", dx)
	_, sx, err := dx.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sx.Deleted() == 0 {
		t.Fatal("snapshot fixture carries no tombstones")
	}
	measure("Snapshot", sx)
}
