package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lccs"
	"lccs/internal/rng"
)

// testWorkload builds a small clustered dataset plus queries.
func testWorkload(seed uint64, n, d int) (data, queries [][]float32) {
	g := rng.New(seed)
	centers := make([][]float32, 8)
	for i := range centers {
		centers[i] = g.UniformVector(d, -10, 10)
	}
	data = make([][]float32, n)
	for i := range data {
		c := centers[i%len(centers)]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(g.NormFloat64()*0.5)
		}
		data[i] = v
	}
	queries = make([][]float32, 10)
	for i := range queries {
		queries[i] = g.GaussianVector(d)
	}
	return data, queries
}

// segmentedIndex is a static index of the given number of near-equal
// segments over data, for tests that need a query to visit several: a
// DynamicIndex whose background builds cut data into runs, snapshotted
// (the snapshot builds the last, buffered run).
func segmentedIndex(t *testing.T, data [][]float32, cfg lccs.Config, segments int) *lccs.Index {
	t.Helper()
	per := (len(data) + segments - 1) / segments
	d, err := lccs.NewDynamicIndex(data[:per], cfg, per)
	if err != nil {
		t.Fatal(err)
	}
	for lo := per; lo < len(data); lo += per {
		if _, err := d.AddBatch(data[lo:min(lo+per, len(data))]); err != nil {
			t.Fatal(err)
		}
		d.WaitRebuild()
	}
	_, ix, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != segments {
		t.Fatalf("segmentedIndex: %d segments, want %d", ix.Shards(), segments)
	}
	return ix
}

// newTestServer stands up an httptest server (no real port) over the
// given backend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts body to path and decodes the response into out
// (skipped when out is nil), returning the status code.
func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func TestServeSearchMatchesDirect(t *testing.T) {
	data, queries := testWorkload(1, 500, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 64})

	for qi, q := range queries {
		for _, budget := range []int{0, 200} {
			var got searchResponse
			code := postJSON(t, ts, "/v1/search", searchRequest{Query: q, K: 5, Budget: budget}, &got)
			if code != http.StatusOK {
				t.Fatalf("query %d budget %d: HTTP %d", qi, budget, code)
			}
			var want []lccs.Neighbor
			if budget > 0 {
				want, err = sx.SearchQuery(q, lccs.Query{K: 5, Budget: budget}, nil)
			} else {
				want, err = sx.Search(q, 5)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Neighbors) != len(want) {
				t.Fatalf("query %d: %d neighbors, want %d", qi, len(got.Neighbors), len(want))
			}
			for i, nb := range want {
				if got.Neighbors[i].ID != nb.ID || got.Neighbors[i].Dist != nb.Dist {
					t.Fatalf("query %d pos %d: %+v, want %+v", qi, i, got.Neighbors[i], nb)
				}
			}
		}
	}
}

func TestServeBatchMatchesDirect(t *testing.T) {
	data, queries := testWorkload(2, 400, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx})

	var got batchResponse
	code := postJSON(t, ts, "/v1/search/batch", batchRequest{Queries: queries, K: 4, Budget: 80}, &got)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if len(got.Results) != len(queries) {
		t.Fatalf("%d rows, want %d", len(got.Results), len(queries))
	}
	for i, q := range queries {
		want, err := sx.SearchQuery(q, lccs.Query{K: 4, Budget: 80}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Results[i], want) {
			t.Fatalf("row %d: %v, SearchQuery answers %v", i, got.Results[i], want)
		}
	}
}

func TestServeValidationAndMethodErrors(t *testing.T) {
	data, _ := testWorkload(3, 100, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx})

	cases := []struct {
		name string
		req  searchRequest
	}{
		{"k=0", searchRequest{Query: data[0], K: 0}},
		{"nil query", searchRequest{K: 5}},
		{"dim mismatch", searchRequest{Query: []float32{1, 2}, K: 5}},
		{"bad budget", searchRequest{Query: data[0], K: 5, Budget: -2}},
	}
	for _, c := range cases {
		var er errorResponse
		if code := postJSON(t, ts, "/v1/search", c.req, &er); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.name, code)
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", c.name)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search: HTTP %d, want 405", resp.StatusCode)
	}

	// Insert on a read-only backend.
	var er errorResponse
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data[:1]}, &er); code != http.StatusNotImplemented {
		t.Errorf("insert on a static backend: HTTP %d, want 501", code)
	}
}

func TestServeInsertAndCacheInvalidation(t *testing.T) {
	data, _ := testWorkload(4, 300, 8)
	dyn, err := lccs.NewDynamicIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 6}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: dyn, CacheSize: 128})

	g := rng.New(99)
	novel := g.UniformVector(8, -30, 30) // far from every cluster

	// Prime the cache with the exact query we are about to insert.
	var first searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: novel, K: 1}, &first); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if first.Cached {
		t.Fatal("first query cannot be cached")
	}

	// The identical query now hits the cache.
	var second searchResponse
	postJSON(t, ts, "/v1/search", searchRequest{Query: novel, K: 1}, &second)
	if !second.Cached {
		t.Fatal("identical repeat query should hit the cache")
	}
	if len(second.Neighbors) != len(first.Neighbors) || second.Neighbors[0] != first.Neighbors[0] {
		t.Fatalf("cache returned different results: %+v vs %+v", second.Neighbors, first.Neighbors)
	}

	// Insert the query vector itself: the write bumps the generation, so
	// the stale cached answer must not be served.
	var ins insertResponse
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: [][]float32{novel}}, &ins); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	if len(ins.IDs) != 1 || ins.IDs[0] != 300 {
		t.Fatalf("insert ids: %+v", ins.IDs)
	}

	var third searchResponse
	postJSON(t, ts, "/v1/search", searchRequest{Query: novel, K: 1}, &third)
	if third.Cached {
		t.Fatal("post-insert query served a stale cache entry")
	}
	if len(third.Neighbors) != 1 || third.Neighbors[0].ID != 300 || third.Neighbors[0].Dist != 0 {
		t.Fatalf("inserted vector not found: %+v", third.Neighbors)
	}

	// Dimension-mismatched insert fails with 400.
	var er errorResponse
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: [][]float32{{1}}}, &er); code != http.StatusBadRequest {
		t.Errorf("bad insert: HTTP %d, want 400", code)
	}

	// Insert batches are atomic: a bad vector anywhere in the batch
	// rejects the whole request, so retries cannot duplicate a prefix.
	before := dyn.Len()
	bad := insertRequest{Vectors: [][]float32{novel, {1, 2}, nil}}
	if code := postJSON(t, ts, "/v1/insert", bad, &er); code != http.StatusBadRequest {
		t.Fatalf("mixed batch: HTTP %d, want 400", code)
	}
	if dyn.Len() != before {
		t.Fatalf("mixed batch inserted a prefix: Len %d → %d", before, dyn.Len())
	}
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: [][]float32{{}}}, &er); code != http.StatusBadRequest || !strings.Contains(er.Error, "empty vector") {
		t.Fatalf("empty vector insert: HTTP %d err=%q", code, er.Error)
	}
}

// TestServeDeleteAndCacheInvalidation pins the delete lifecycle at the
// HTTP layer: single and batch deletes tombstone ids, bump the write
// generation (the stale-cache-hit regression), surface in stats and
// metrics, and are idempotent.
func TestServeDeleteAndCacheInvalidation(t *testing.T) {
	data, _ := testWorkload(8, 300, 8)
	dyn, err := lccs.NewDynamicIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 10}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: dyn, CacheSize: 128})

	// Prime the cache with a query whose nearest neighbor we are about
	// to delete.
	q := data[42]
	var first searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: q, K: 1}, &first); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if first.Cached || first.Neighbors[0].ID != 42 {
		t.Fatalf("priming response: %+v", first)
	}
	var second searchResponse
	postJSON(t, ts, "/v1/search", searchRequest{Query: q, K: 1}, &second)
	if !second.Cached {
		t.Fatal("repeat query should hit the cache")
	}

	// Single delete via {"id": ...}.
	var del deleteResponse
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"id": 42}, &del); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if del.Deleted != 1 || len(del.Missing) != 0 {
		t.Fatalf("delete response: %+v", del)
	}

	// The stale cached answer (still naming id 42) must not be served.
	var third searchResponse
	postJSON(t, ts, "/v1/search", searchRequest{Query: q, K: 1}, &third)
	if third.Cached {
		t.Fatal("post-delete query served a stale cache entry")
	}
	if len(third.Neighbors) != 1 || third.Neighbors[0].ID == 42 {
		t.Fatalf("deleted id still served: %+v", third.Neighbors)
	}

	// Batch delete mixes live and unknown ids; idempotent re-delete.
	if code := postJSON(t, ts, "/v1/delete", deleteRequest{IDs: []int{1, 2, 42, 9999}}, &del); code != http.StatusOK {
		t.Fatalf("batch delete: HTTP %d", code)
	}
	if del.Deleted != 2 || len(del.Missing) != 2 {
		t.Fatalf("batch delete response: %+v", del)
	}
	if dyn.Len() != 297 || dyn.Deleted() != 3 {
		t.Fatalf("backend: Len=%d Deleted=%d", dyn.Len(), dyn.Deleted())
	}

	// An empty request is the client's error.
	var er errorResponse
	if code := postJSON(t, ts, "/v1/delete", deleteRequest{}, &er); code != http.StatusBadRequest {
		t.Fatalf("empty delete: HTTP %d, want 400", code)
	}

	// Stats and metrics reflect the deletes.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Total.Deletes != 3 || st.Backend.Tombstones != 3 {
		t.Fatalf("stats: deletes=%d tombstones=%d, want 3/3", st.Total.Deletes, st.Backend.Tombstones)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"lccs_deletes_total 3",
		"lccs_index_tombstones 3",
		"lccs_index_vectors 297",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServeDeleteReadOnlyBackend: facades without a Delete method serve
// /v1/delete as 501, mirroring /v1/insert.
func TestServeDeleteReadOnlyBackend(t *testing.T) {
	data, _ := testWorkload(9, 80, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx})
	var er errorResponse
	if code := postJSON(t, ts, "/v1/delete", deleteRequest{IDs: []int{1}}, &er); code != http.StatusNotImplemented {
		t.Fatalf("delete on a static backend: HTTP %d, want 501", code)
	}
}

// TestRetryAfterSeconds pins the load-derived Retry-After calculation:
// it scales with queue depth, drains across slots, falls back to the
// admission deadline before any latency is observed, and clamps to
// [1, 60].
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued     int64
		slots      int
		p50, tmout float64
		want       int
	}{
		{0, 1, 0.5, 2, 1},    // (0+1)*0.5 → ceil 1
		{3, 1, 0.5, 2, 2},    // 4*0.5 = 2
		{3, 4, 0.5, 2, 1},    // spread across 4 slots
		{9, 2, 1.0, 2, 5},    // 10*1/2 = 5
		{0, 1, 0, 3, 3},      // no observations → deadline
		{500, 1, 1.0, 2, 60}, // clamped high
		{0, 0, 0.001, 2, 1},  // degenerate slots → clamped low
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.slots, c.p50, c.tmout); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v, %v) = %d, want %d",
				c.queued, c.slots, c.p50, c.tmout, got, c.want)
		}
	}
}

func TestServeBodySizeLimit(t *testing.T) {
	data, _ := testWorkload(7, 50, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx, MaxBodyBytes: 256})

	small := searchRequest{Query: data[0], K: 3}
	if code := postJSON(t, ts, "/v1/search", small, nil); code != http.StatusOK {
		t.Fatalf("small body: HTTP %d", code)
	}
	big := batchRequest{Queries: data[:40], K: 3} // well over 256 bytes of JSON
	var er errorResponse
	if code := postJSON(t, ts, "/v1/search/batch", big, &er); code != http.StatusBadRequest {
		t.Fatalf("oversized body: HTTP %d, want 400", code)
	}
	if !strings.Contains(er.Error, "too large") {
		t.Errorf("oversized body error: %q", er.Error)
	}
}

// blockingBackend is a stub Searcher whose searches block on a gate, so
// admission behavior is deterministic under test.
type blockingBackend struct {
	started chan struct{}
	gate    chan struct{}
}

func (b *blockingBackend) Search(q []float32, k int) ([]lccs.Neighbor, error) {
	b.started <- struct{}{}
	<-b.gate
	return []lccs.Neighbor{{ID: 0, Dist: 0}}, nil
}

func (b *blockingBackend) SearchInto(q []float32, k int, dst []lccs.Neighbor) ([]lccs.Neighbor, error) {
	return b.SearchQuery(q, lccs.Query{K: k}, dst)
}

func (b *blockingBackend) SearchQuery(q []float32, qr lccs.Query, dst []lccs.Neighbor) ([]lccs.Neighbor, error) {
	res, err := b.Search(q, qr.K)
	return append(dst[:0], res...), err
}
func (b *blockingBackend) SearchCursor(q []float32, qr lccs.Query, cursor string) ([]lccs.Neighbor, string, error) {
	res, err := b.SearchQuery(q, qr, nil)
	return res, "", err
}
func (b *blockingBackend) Len() int                        { return 1 }
func (b *blockingBackend) Distance(a, c []float32) float64 { return 0 }

func TestServeAdmissionOverflowReturns503(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		Backend:     backend,
		MaxInFlight: 1,
		MaxQueue:    1,
		Timeout:     10 * time.Second,
	})

	req := searchRequest{Query: []float32{1}, K: 1}
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		codes <- postJSON(t, ts, "/v1/search", req, nil)
	}

	// First request occupies the single execution slot.
	wg.Add(1)
	go post()
	<-backend.started

	// Second request fills the queue (poll the live gauge to know it is
	// actually waiting, not merely scheduled).
	wg.Add(1)
	go post()
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request overflows: immediate 503 with Retry-After.
	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// Release the gate: both admitted requests complete successfully.
	close(backend.gate)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request: HTTP %d, want 200", code)
		}
	}
	if got := srv.StatsSnapshot().Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestServeCacheHitBypassesAdmission: a cached answer costs no backend
// work, so it is served even when every execution slot is taken and the
// queue is full.
func TestServeCacheHitBypassesAdmission(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{}, 8)}
	_, ts := newTestServer(t, Config{
		Backend:     backend,
		MaxInFlight: 1,
		MaxQueue:    -1, // no waiting: anything uncached 503s when busy
		Timeout:     10 * time.Second,
		CacheSize:   16,
	})
	cachedQ := searchRequest{Query: []float32{1, 2}, K: 1}
	otherQ := searchRequest{Query: []float32{9, 9}, K: 1}

	// Populate the cache: let the first request through the gate.
	backend.gate <- struct{}{}
	if code := postJSON(t, ts, "/v1/search", cachedQ, nil); code != http.StatusOK {
		t.Fatalf("priming request: HTTP %d", code)
	}
	<-backend.started // drain the priming request's start signal

	// Saturate the single slot with an uncached query.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts, "/v1/search", otherQ, nil)
	}()
	<-backend.started

	// Uncached load is shed, the cached answer is not.
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: []float32{3, 4}, K: 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("uncached under overload: HTTP %d, want 503", code)
	}
	var res searchResponse
	if code := postJSON(t, ts, "/v1/search", cachedQ, &res); code != http.StatusOK || !res.Cached {
		t.Fatalf("cached under overload: HTTP %d cached=%v, want 200/true", code, res.Cached)
	}
	backend.gate <- struct{}{}
	wg.Wait()
}

func TestServeAdmissionDeadlineReturns503(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		Backend:     backend,
		MaxInFlight: 1,
		MaxQueue:    4,
		Timeout:     30 * time.Millisecond,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts, "/v1/search", searchRequest{Query: []float32{1}, K: 1}, nil)
	}()
	<-backend.started

	// This one queues and must give up when the admission deadline hits.
	code := postJSON(t, ts, "/v1/search", searchRequest{Query: []float32{1}, K: 1}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("deadline request: HTTP %d, want 503", code)
	}
	if got := srv.StatsSnapshot().WaitTimeouts; got != 1 {
		t.Errorf("wait timeouts = %d, want 1", got)
	}
	close(backend.gate)
	wg.Wait()
}

func TestServeHealthzDrainAndStats(t *testing.T) {
	data, _ := testWorkload(5, 120, 8)
	dyn, err := lccs.NewDynamicIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 7}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Backend: dyn, CacheSize: 16})

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	srv.SetDraining(true)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz: %d %q", code, body)
	}
	if code, body := get("/v1/stats"); code != http.StatusOK || !strings.Contains(body, `"status":"draining"`) {
		t.Fatalf("draining stats: %d %q", code, body)
	}
	srv.SetDraining(false)

	// Generate some traffic, then check the stats payload.
	postJSON(t, ts, "/v1/search", searchRequest{Query: data[0], K: 3}, nil)
	postJSON(t, ts, "/v1/search", searchRequest{Query: data[0], K: 3}, nil)

	code, body := get("/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if st.Requests["search:200"] != 2 {
		t.Errorf("search:200 = %d, want 2", st.Requests["search:200"])
	}
	if st.Total.CacheHits != 1 || st.Total.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Total.CacheHits, st.Total.CacheMisses)
	}
	if st.Backend.Kind != "dynamic" || !st.Backend.Writable || st.Backend.Vectors != 120 {
		t.Errorf("backend stats: %+v", st.Backend)
	}
	// A memory-only DynamicIndex has the WAL methods but no log (Dir is
	// ""), so it reports no wal section and no WAL series.
	if st.WAL != nil {
		t.Errorf("memory-only backend reports a wal section: %+v", st.WAL)
	}
	if _, metrics := get("/metrics"); strings.Contains(metrics, "lccs_wal_") {
		t.Errorf("memory-only backend exports WAL series:\n%s", metrics)
	}
	if st.Total.Searches != 2 || st.Latency.P99Ms <= 0 {
		t.Errorf("latency stats: %+v after %d searches", st.Latency, st.Total.Searches)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	data, _ := testWorkload(6, 100, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 16})

	postJSON(t, ts, "/v1/search", searchRequest{Query: data[0], K: 3}, nil)
	postJSON(t, ts, "/v1/search", searchRequest{Query: data[0], K: 0}, nil) // a 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`lccs_requests_total{collection="default",endpoint="search",code="200"} 1`,
		`lccs_requests_total{collection="default",endpoint="search",code="400"} 1`,
		"lccs_request_seconds_count 1",
		"lccs_admission_rejected_total 0",
		"lccs_index_vectors 100",
		"lccs_cache_misses_total 1",
		"# TYPE lccs_requests_total counter",
		"# TYPE lccs_inflight_requests gauge",
		"# TYPE lccs_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
