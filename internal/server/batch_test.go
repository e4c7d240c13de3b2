package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lccs"
)

// TestBatchMetersItsQueries: a batch is its queries' work. Every surface
// that meters a collection's cost — its Usage, the cumulative counters
// and windows of /v1/collections/{name}/usage, and
// lccs_collection_scan_bytes_total — grows by the
// sum of the Cost that direct SearchQuery calls at the batch's k and
// budget report, and searches by exactly one; a batch over the slow
// threshold enters /v1/debug/slow as search_batch.
func TestBatchMetersItsQueries(t *testing.T) {
	data, queries := testWorkload(5, 600, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Backend: sx, SlowThreshold: time.Nanosecond})
	const k, budget = 5, 90
	var want lccs.Cost
	for _, q := range queries {
		if _, err := sx.SearchQuery(q, lccs.Query{K: k, Budget: budget, Cost: &want}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if want.Comparisons == 0 || want.Candidates == 0 || want.BytesScanned == 0 {
		t.Fatalf("direct searches cost nothing: %+v", want)
	}
	c, err := srv.eng.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Usage().Snapshot()
	if code := postJSON(t, ts, "/v1/search/batch", batchRequest{Queries: queries, K: k, Budget: budget}, nil); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}

	u := c.Usage().Snapshot()
	if got := u.Searches - before.Searches; got != 1 {
		t.Errorf("searches grew by %d, want 1", got)
	}
	var cu CollectionStats
	getJSON(t, ts, "/v1/collections/"+DefaultCollection+"/usage", &cu)
	m := scrapeMetrics(t, ts)
	eq(t, "searches", 1, u.Searches, cu.Cumulative.Searches,
		int64(m.get(t, "lccs_collection_searches_total", "collection", DefaultCollection)))
	eq(t, "comparisons", want.Comparisons, u.Comparisons, cu.Cumulative.Comparisons,
		cu.Windows[0].Comparisons, cu.Windows[1].Comparisons)
	eq(t, "candidates", want.Candidates, u.Candidates, cu.Cumulative.Candidates)
	eq(t, "bytes scanned", want.BytesScanned, u.BytesScanned, cu.Cumulative.BytesScanned,
		int64(m.get(t, "lccs_collection_scan_bytes_total", "collection", DefaultCollection)),
		cu.Windows[0].BytesScanned, cu.Windows[1].BytesScanned)
	eq(t, "filter rejected", 0, u.FilterRejected, cu.Cumulative.FilterRejected)

	var sl slowLogResponse
	getJSON(t, ts, "/v1/debug/slow", &sl)
	if len(sl.Slow) != 1 || sl.Slow[0].Endpoint != "search_batch" || sl.Slow[0].Collection != DefaultCollection ||
		sl.Slow[0].K != k || sl.Slow[0].Budget != budget {
		t.Errorf("slow log %+v, want the one batch", sl.Slow)
	}
}

// countingBackend is a stub Searcher that records the most SearchQuery
// calls it ever saw running at once. Each call holds for a moment so
// that calls which may overlap do.
type countingBackend struct {
	mu               sync.Mutex
	calls, run, peak int
}

func (b *countingBackend) SearchQuery(q []float32, qr lccs.Query, dst []lccs.Neighbor) ([]lccs.Neighbor, error) {
	b.mu.Lock()
	b.calls++
	b.run++
	b.peak = max(b.peak, b.run)
	b.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	b.mu.Lock()
	b.run--
	b.mu.Unlock()
	return append(dst[:0], lccs.Neighbor{ID: 0, Dist: 0}), nil
}

func (b *countingBackend) Search(q []float32, k int) ([]lccs.Neighbor, error) {
	return b.SearchQuery(q, lccs.Query{K: k}, nil)
}
func (b *countingBackend) SearchInto(q []float32, k int, dst []lccs.Neighbor) ([]lccs.Neighbor, error) {
	return b.SearchQuery(q, lccs.Query{K: k}, dst)
}
func (b *countingBackend) SearchCursor(q []float32, qr lccs.Query, cursor string) ([]lccs.Neighbor, string, error) {
	res, err := b.SearchQuery(q, qr, nil)
	return res, "", err
}
func (b *countingBackend) Len() int                        { return 1 }
func (b *countingBackend) Distance(a, c []float32) float64 { return 0 }

// TestBatchHoldsOneSlot: under MaxInFlight 1 a batch of 16 queries, with
// single searches posted beside it, never has two backend searches
// running at once — the batch's one admission slot bounds its work.
func TestBatchHoldsOneSlot(t *testing.T) {
	backend := &countingBackend{}
	_, ts := newTestServer(t, Config{Backend: backend, MaxInFlight: 1, Timeout: 10 * time.Second})
	queries := make([][]float32, 16)
	for i := range queries {
		queries[i] = []float32{float32(i)}
	}
	var wg sync.WaitGroup
	codes := make(chan int, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		codes <- postJSON(t, ts, "/v1/search/batch", batchRequest{Queries: queries, K: 1}, nil)
	}()
	for i := range 2 {
		go func() {
			defer wg.Done()
			codes <- postJSON(t, ts, "/v1/search", searchRequest{Query: []float32{float32(100 + i)}, K: 1}, nil)
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("HTTP %d, want 200", code)
		}
	}
	if backend.calls != 18 || backend.peak != 1 {
		t.Fatalf("%d searches, at most %d at once; want 18, one at a time", backend.calls, backend.peak)
	}
}

// TestBatchStopsWhenClientLeaves: under MaxInFlight 1, a batch of
// brute-force queries that would hold the only slot for seconds stops
// once its client gives up after 0.1 s. The next search gets the slot
// within about one query's time, and the batch is counted under code 499
// and metered for the queries it ran, as a failing batch is.
func TestBatchStopsWhenClientLeaves(t *testing.T) {
	data, queries := testWorkload(41, 5000, 16)
	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Backend: ix, MaxInFlight: 1, Timeout: time.Minute})
	n := ix.Len()
	var single lccs.Cost
	start := time.Now()
	for _, q := range queries {
		single = lccs.Cost{}
		if _, err := ix.SearchQuery(q, lccs.Query{K: 10, Budget: n, Cost: &single}, nil); err != nil {
			t.Fatal(err)
		}
	}
	perQuery := time.Since(start) / time.Duration(len(queries))
	batch := make([][]float32, int(3*time.Second/perQuery)+1)
	for i := range batch {
		batch[i] = queries[i%len(queries)]
	}
	body, err := json.Marshal(batchRequest{Queries: batch, K: 10, Budget: n})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("a %d-query batch answered HTTP %d within 0.1 s", len(batch), resp.StatusCode)
	}

	start = time.Now()
	last := queries[len(queries)-1] // the query single costs
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: last, K: 10, Budget: n}, nil); code != http.StatusOK {
		t.Fatalf("search after the batch's client left: HTTP %d", code)
	}
	if waited, bound := time.Since(start), 4*perQuery+500*time.Millisecond; waited > bound {
		t.Fatalf("the next search took %v, over %v (a query takes %v): the abandoned batch held the slot", waited, bound, perQuery)
	}
	m := scrapeMetrics(t, ts)
	eq(t, "abandoned batches", 1, m.get(t, "lccs_requests_total", "collection", DefaultCollection,
		"endpoint", "search_batch", "code", "499"))
	c, err := srv.eng.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	u := c.Usage().Snapshot()
	if u.Errors != 1 || u.Searches != 1 || u.Comparisons <= single.Comparisons {
		t.Fatalf("usage %+v: want the batch as one error metered for the queries it ran, beside one search of %d comparisons",
			u, single.Comparisons)
	}
}

// TestBatchQueryContract is the query contract at the batch door, on a
// writable collection: an empty batch answers [], k and the budget are
// checked even when there is no query, the first failing query in order
// fails the batch with its typed error, budget 0 is the default, and a k
// and budget of math.MaxInt answer like the row count.
func TestBatchQueryContract(t *testing.T) {
	srv, ts := newCollServer(t, Config{})
	data, _ := testWorkload(9, 120, 4)
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	c, err := srv.eng.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Dynamic()

	raw, _ := json.Marshal(batchRequest{Queries: [][]float32{}, K: 3})
	resp, err := http.Post(ts.URL+"/v1/search/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"results":[]`) {
		t.Fatalf("empty batch: HTTP %d %s, want 200 and []", resp.StatusCode, body)
	}

	good := data[7]
	for _, tc := range []struct {
		name string
		req  batchRequest
		want error
	}{
		{"empty batch, k=0", batchRequest{K: 0}, lccs.ErrInvalidK},
		{"empty batch, budget -1", batchRequest{Queries: [][]float32{}, K: 3, Budget: -1}, lccs.ErrInvalidBudget},
		{"k=0", batchRequest{Queries: [][]float32{good}, K: 0}, lccs.ErrInvalidK},
		{"budget -1", batchRequest{Queries: [][]float32{good}, K: 3, Budget: -1}, lccs.ErrInvalidBudget},
		{"empty query first", batchRequest{Queries: [][]float32{good, {}, {1, 2}}, K: 3}, lccs.ErrEmptyQuery},
		{"dimension mismatch first", batchRequest{Queries: [][]float32{good, {1, 2}, {}}, K: 3}, lccs.ErrDimensionMismatch},
	} {
		var er errorResponse
		if code := postJSON(t, ts, "/v1/search/batch", tc.req, &er); code != http.StatusBadRequest || !strings.Contains(er.Error, tc.want.Error()) {
			t.Errorf("%s: HTTP %d %q, want 400 naming %q", tc.name, code, er.Error, tc.want)
		}
	}

	queries := [][]float32{good, data[50], data[119]}
	n := len(data)
	for _, tc := range []struct {
		name      string
		k, budget int
		want      lccs.Query
	}{
		{"budget 0 is the default", 3, 0, lccs.Query{K: 3}},
		{"huge k and budget are the row count", math.MaxInt, math.MaxInt, lccs.Query{K: n, Budget: n}},
	} {
		var got batchResponse
		if code := postJSON(t, ts, "/v1/search/batch", batchRequest{Queries: queries, K: tc.k, Budget: tc.budget}, &got); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", tc.name, code)
		}
		for i, q := range queries {
			want, err := d.SearchQuery(q, tc.want, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Results[i], want) {
				t.Errorf("%s: row %d is %v, SearchQuery answers %v", tc.name, i, got.Results[i], want)
			}
		}
	}
}
