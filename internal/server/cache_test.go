package server

import (
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"lccs"
	"lccs/internal/obs"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	res := func(id int) []lccs.Neighbor { return []lccs.Neighbor{{ID: id}} }
	c.put("a", res(1), "")
	c.put("b", res(2), "")
	if _, _, ok := c.get("a"); !ok { // refresh a: b is now the LRU entry
		t.Fatal("a missing")
	}
	c.put("c", res(3), "") // evicts b
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for key, id := range map[string]int{"a": 1, "c": 3} {
		got, _, ok := c.get(key)
		if !ok || got[0].ID != id {
			t.Fatalf("%s: %v %v", key, got, ok)
		}
	}
	st := c.stats()
	if st.Entries != 2 {
		t.Fatalf("len=%d", st.Entries)
	}
	// Overwriting an existing key updates in place, no growth.
	c.put("a", res(9), "")
	if got, _, _ := c.get("a"); got[0].ID != 9 || c.stats().Entries != 2 {
		t.Fatalf("overwrite: %v len=%d", got, c.stats().Entries)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	q := []float32{1.5, -2.25, 3.125}
	base := cacheKey("c", 7, 10, 100, q, nil, "")
	distinct := []string{
		cacheKey("c", 8, 10, 100, q, nil, ""),                                // generation
		cacheKey("c", 7, 11, 100, q, nil, ""),                                // k
		cacheKey("c", 7, 10, 101, q, nil, ""),                                // budget
		cacheKey("c", 7, 1<<32+10, 100, q, nil, ""),                          // k beyond 32 bits
		cacheKey("c", 7, 10, 1<<32+100, q, nil, ""),                          // budget beyond 32 bits
		cacheKey("c", 7, 10, 100, []float32{1.5, -2.25, 3.0}, nil, ""),       // query
		cacheKey("c", 7, 10, 100, []float32{1.5, -2.25, 3.1250002}, nil, ""), // one ulp
		cacheKey("c", 7, 10, 100, q[:2], nil, ""),                            // length
	}
	for i, k := range distinct {
		if k == base {
			t.Errorf("variant %d collides with base key", i)
		}
	}
	if cacheKey("c", 7, 10, 100, []float32{1.5, -2.25, 3.125}, nil, "") != base {
		t.Error("identical inputs must produce identical keys")
	}
}

// TestCacheKeyFullWidth replays, over HTTP, the aliasing of a cache key
// that held k and the budget as 32-bit values: {"k": 2³²+3} stored an
// entry that {"k": 3} then hit, 147 neighbours for a request asking for 3;
// and {"budget": 2⁴⁰} shared the default budget's entry, so an exhaustive
// answer was served to a default-budget request.
func TestCacheKeyFullWidth(t *testing.T) {
	data, queries := testWorkload(29, 147, 8)
	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: ix, CacheSize: 16})
	search := func(body map[string]any) searchResponse {
		t.Helper()
		body["query"] = queries[0]
		var resp searchResponse
		if code := postJSON(t, ts, "/v1/search", body, &resp); code != http.StatusOK {
			t.Fatalf("%v: HTTP %d", body, code)
		}
		return resp
	}
	if wide := search(map[string]any{"k": 1<<32 + 3}); len(wide.Neighbors) != len(data) {
		t.Fatalf("k = 2³²+3: %d neighbours, want all %d", len(wide.Neighbors), len(data))
	}
	if narrow := search(map[string]any{"k": 3}); narrow.Cached || len(narrow.Neighbors) != 3 {
		t.Fatalf("k = 3 after k = 2³²+3: cached %v, %d neighbours", narrow.Cached, len(narrow.Neighbors))
	}

	search(map[string]any{"k": 10, "budget": 1 << 40})
	def := search(map[string]any{"k": 10})
	want, err := ix.Search(queries[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if def.Cached || !reflect.DeepEqual(def.Neighbors, want) {
		t.Fatalf("default budget after budget = 2⁴⁰: cached %v, %v, want the default-budget answer %v", def.Cached, def.Neighbors, want)
	}
}

func TestAdmissionCounting(t *testing.T) {
	a := newAdmission(2, 1)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if a.inFlight() != 2 || a.queueDepth() != 0 {
		t.Fatalf("inFlight=%d queue=%d", a.inFlight(), a.queueDepth())
	}

	// Third caller queues; fourth overflows.
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("third caller never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx); err != ErrOverloaded {
		t.Fatalf("overflow: %v, want ErrOverloaded", err)
	}
	if a.rejected.Load() != 1 {
		t.Fatalf("rejected=%d", a.rejected.Load())
	}

	// A release admits the queued caller.
	a.release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}

	// A canceled context aborts a queued wait without counting a
	// timeout — the client left, no deadline expired.
	cctx, cancel := context.WithCancel(ctx)
	waitErr := make(chan error, 1)
	go func() { waitErr <- a.acquire(cctx) }()
	for a.queueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waitErr; err != context.Canceled {
		t.Fatalf("canceled wait: %v", err)
	}
	if a.timeouts.Load() != 0 {
		t.Fatalf("timeouts=%d after cancel, want 0", a.timeouts.Load())
	}
	// An expired deadline does count.
	dctx, dcancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer dcancel()
	if err := a.acquire(dctx); err != context.DeadlineExceeded {
		t.Fatalf("deadline wait: %v", err)
	}
	if a.timeouts.Load() != 1 {
		t.Fatalf("timeouts=%d after deadline, want 1", a.timeouts.Load())
	}
	if a.queueDepth() != 0 {
		t.Fatalf("queue not drained: %d", a.queueDepth())
	}
}

// TestAdmissionHammer drives the controller from many goroutines and
// checks the semaphore invariant (never more than capacity in flight)
// and conservation (every acquire is released or rejected). Run with
// -race this also validates the counter synchronization.
func TestAdmissionHammer(t *testing.T) {
	const capacity, queue, workers, iters = 3, 4, 16, 200
	a := newAdmission(capacity, queue)
	ctx := context.Background()
	var inFlight, maxSeen, admitted, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := a.acquire(ctx)
				mu.Lock()
				if err != nil {
					rejected++
					mu.Unlock()
					continue
				}
				admitted++
				inFlight++
				if inFlight > maxSeen {
					maxSeen = inFlight
				}
				mu.Unlock()

				mu.Lock()
				inFlight--
				mu.Unlock()
				a.release()
			}
		}()
	}
	wg.Wait()
	if maxSeen > capacity {
		t.Fatalf("saw %d in flight, capacity %d", maxSeen, capacity)
	}
	if admitted+rejected != workers*iters {
		t.Fatalf("admitted %d + rejected %d != %d", admitted, rejected, workers*iters)
	}
	if a.inFlight() != 0 || a.queueDepth() != 0 {
		t.Fatalf("leaked state: inFlight=%d queue=%d", a.inFlight(), a.queueDepth())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h obs.Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // all in one bucket
	}
	p50 := h.Quantile(0.50)
	if p50 <= 0 || p50 > 0.002 {
		t.Fatalf("p50=%v, want within the ~1ms bucket", p50)
	}
	h.Observe(5 * time.Second) // one slow outlier
	if p999 := h.Quantile(0.999); p999 < 0.01 {
		t.Fatalf("p99.9=%v should reflect the outlier region", p999)
	}
	if total, sum := h.Count(), h.Sum().Seconds(); total != 101 || sum < 5.0 {
		t.Fatalf("total=%d sum=%v", total, sum)
	}
}
