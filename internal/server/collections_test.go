package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lccs"
	"lccs/internal/engine"
)

// doJSON issues a request with method/path/body and decodes the
// response into out (skipped when nil), returning the status code.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// newCollServer stands up a server over a rooted engine in a temporary
// directory — an empty default collection at the root — with sensible
// index defaults and no fsyncs.
func newCollServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Engine = newTestEngine(t)
	return newTestServer(t, cfg)
}

// newTestEngine opens a rooted engine over a temporary directory with the
// index defaults the collection tests share and Sync "none", and closes
// it when the test ends.
func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.New(t.TempDir(), engine.Spec{Metric: "euclidean", M: 8, Seed: 7, BucketWidth: 4, Sync: "none"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestCollectionsCRUD drives the registry endpoints end to end: create
// two collections with different metrics, write to both, drop one, and
// check the survivor is untouched.
func TestCollectionsCRUD(t *testing.T) {
	_, ts := newCollServer(t, Config{})

	var info collectionInfo
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a"}, &info); code != http.StatusCreated {
		t.Fatalf("create tenant-a: HTTP %d", code)
	}
	if !info.Loaded || info.Name != "tenant-a" {
		t.Fatalf("create response: %+v", info)
	}
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-b", Spec: engine.Spec{Metric: "angular", M: 16}}, nil); code != http.StatusCreated {
		t.Fatalf("create tenant-b: HTTP %d", code)
	}
	// Duplicates conflict; bad names are rejected.
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: HTTP %d", code)
	}
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "no/slashes"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad name create: HTTP %d", code)
	}

	for i := 0; i < 8; i++ {
		v := []float32{float32(i), 1, 0}
		if code := postJSON(t, ts, "/v1/collections/tenant-a/insert",
			insertRequest{Vectors: [][]float32{v}}, nil); code != http.StatusOK {
			t.Fatalf("insert a[%d]: HTTP %d", i, code)
		}
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-b/insert",
		insertRequest{Vectors: [][]float32{{1, 0, 0}, {0, 1, 0}}}, nil); code != http.StatusOK {
		t.Fatalf("insert b: HTTP %d", code)
	}

	var list listCollectionsResponse
	if code := doJSON(t, ts, "GET", "/v1/collections", nil, &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Collections) != 3 || list.Collections[0].Name != DefaultCollection ||
		list.Collections[1].Name != "tenant-a" || list.Collections[1].Vectors != 8 ||
		list.Collections[2].Name != "tenant-b" || list.Collections[2].Vectors != 2 {
		t.Fatalf("list = %+v", list.Collections)
	}

	var cst CollectionStats
	if code := doJSON(t, ts, "GET", "/v1/collections/tenant-a/usage", nil, &cst); code != http.StatusOK {
		t.Fatalf("collection stats: HTTP %d", code)
	}
	if cst.Collection != "tenant-a" || cst.Cumulative.Inserts != 8 || cst.Backend.Vectors != 8 || !cst.Backend.Writable {
		t.Fatalf("tenant-a stats = %+v", cst)
	}

	// Search routes per collection.
	var sr searchResponse
	if code := postJSON(t, ts, "/v1/collections/tenant-a/search",
		searchRequest{Query: []float32{3, 1, 0}, K: 1}, &sr); code != http.StatusOK {
		t.Fatalf("search a: HTTP %d", code)
	}
	if len(sr.Neighbors) != 1 || sr.Neighbors[0].ID != 3 {
		t.Fatalf("search a = %+v", sr.Neighbors)
	}

	// Drop tenant-a; it 404s afterwards and tenant-b is untouched.
	if code := doJSON(t, ts, "DELETE", "/v1/collections/tenant-a", nil, nil); code != http.StatusOK {
		t.Fatalf("drop: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-a/search",
		searchRequest{Query: []float32{3, 1, 0}, K: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("search dropped: HTTP %d", code)
	}
	if code := doJSON(t, ts, "DELETE", "/v1/collections/tenant-a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double drop: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-b/search",
		searchRequest{Query: []float32{1, 0, 0}, K: 2}, &sr); code != http.StatusOK || len(sr.Neighbors) != 2 {
		t.Fatalf("survivor search: HTTP %d, %d neighbors", code, len(sr.Neighbors))
	}

	// /v1/stats aggregates and breaks out per collection.
	var st Stats
	if code := doJSON(t, ts, "GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if st.Total.Inserts != 10 { // tenant-a's 8 outlive it in the process-wide total
		t.Fatalf("aggregate inserts = %d, want 10", st.Total.Inserts)
	}
	if _, ok := st.Collections["tenant-a"]; ok {
		t.Fatalf("stats still break out the dropped tenant-a: %v", st.Collections)
	}
	if _, ok := st.Collections["tenant-b"]; !ok {
		t.Fatalf("stats missing tenant-b breakout: %v", st.Collections)
	}
}

// TestCountersSurviveDrop: dropping a collection takes its own series
// with it, but no process-wide counter falls: lccs_inserts_total,
// lccs_deletes_total and /v1/stats' total and requests keep what it
// counted.
func TestCountersSurviveDrop(t *testing.T) {
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections", createCollectionRequest{Name: "gone"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	var ins insertResponse
	if code := postJSON(t, ts, "/v1/collections/gone/insert",
		insertRequest{Vectors: [][]float32{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}, &ins); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/gone/delete", deleteRequest{IDs: ins.IDs[:1]}, nil); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	var before Stats
	getJSON(t, ts, "/v1/stats", &before)
	if code := doJSON(t, ts, "DELETE", "/v1/collections/gone", nil, nil); code != http.StatusOK {
		t.Fatalf("drop: HTTP %d", code)
	}

	m := scrapeMetrics(t, ts)
	var st Stats
	getJSON(t, ts, "/v1/stats", &st)
	if got := m.get(t, "lccs_inserts_total"); got < 3 {
		t.Fatalf("lccs_inserts_total = %v after the drop, want ≥ 3", got)
	}
	eq(t, "inserts", 3, int64(m.get(t, "lccs_inserts_total")), st.Total.Inserts)
	eq(t, "deletes", 1, int64(m.get(t, "lccs_deletes_total")), st.Total.Deletes)
	for key, n := range before.Requests {
		if st.Requests[key] < n {
			t.Errorf("/v1/stats requests[%s] fell from %d to %d", key, n, st.Requests[key])
		}
	}
	if st.Requests["insert:200"] != 1 || st.Requests["delete:200"] != 1 {
		t.Errorf("/v1/stats requests = %v, want the dropped collection's insert and delete", st.Requests)
	}
	for _, s := range m.samples {
		if s.labels["collection"] == "gone" {
			t.Errorf("scrape still has %s%v", s.name, s.labels)
		}
	}
	if _, ok := st.Collections["gone"]; ok {
		t.Errorf("/v1/stats still breaks out the dropped collection")
	}
}

// TestCreateNeedsDataDir: a server built with a Backend and no Engine —
// lccs-serve over a dataset file — answers a collection create with 501,
// and the list still holds only the default collection.
func TestCreateNeedsDataDir(t *testing.T) {
	data, _ := testWorkload(3, 20, 4)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 3, BucketWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx})
	var er errorResponse
	if code := doJSON(t, ts, "POST", "/v1/collections", createCollectionRequest{Name: "tenant"}, &er); code != http.StatusNotImplemented ||
		!strings.Contains(er.Error, "data directory") {
		t.Fatalf("create without a data dir: HTTP %d, %q; want 501 naming the data directory", code, er.Error)
	}
	var list listCollectionsResponse
	doJSON(t, ts, "GET", "/v1/collections", nil, &list)
	if len(list.Collections) != 1 || list.Collections[0].Name != DefaultCollection {
		t.Fatalf("list after the refused create = %+v", list.Collections)
	}
	if code := postJSON(t, ts, "/v1/collections/tenant/search", searchRequest{Query: data[0], K: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("search on the refused collection: HTTP %d, want 404", code)
	}
}

// seedAttrWorkload fills a collection with n vectors whose parity is
// recorded in attributes: even ids are "red" with rank=id, odd "blue".
func seedAttrWorkload(t *testing.T, ts *httptest.Server, coll string, n int) {
	t.Helper()
	vecs := make([][]float32, n)
	attrs := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		vecs[i] = []float32{float32(i), float32(i % 3), 0}
		color := "blue"
		if i%2 == 0 {
			color = "red"
		}
		attrs[i] = map[string]any{"color": color, "rank": i}
	}
	var ir insertResponse
	if code := postJSON(t, ts, "/v1/collections/"+coll+"/insert",
		insertRequest{Vectors: vecs, Attrs: attrs}, &ir); code != http.StatusOK {
		t.Fatalf("seed insert: HTTP %d", code)
	}
	if len(ir.IDs) != n {
		t.Fatalf("seed ids = %d, want %d", len(ir.IDs), n)
	}
}

// TestFilteredSearchHTTP pushes filter predicates through the wire
// format and checks the results against a locally built identical
// index.
func TestFilteredSearchHTTP(t *testing.T) {
	const n = 60
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "docs"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	seedAttrWorkload(t, ts, "docs", n)

	// The same data in a local index with the identical spec gives the
	// ground-truth answers.
	local, err := lccs.NewDynamicIndex(nil, lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 7, BucketWidth: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		color := "blue"
		if i%2 == 0 {
			color = "red"
		}
		if _, err := local.AddWithAttrs([]float32{float32(i), float32(i % 3), 0},
			lccs.Attrs{"color": lccs.StrAttr(color), "rank": lccs.IntAttr(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	q := []float32{20.2, 1, 0}
	lo, hi := int64(10), int64(40)
	cases := []struct {
		name  string
		terms []filterTermJSON
		f     *lccs.Filter
	}{
		{"eq_str", []filterTermJSON{{Key: "color", Value: "red"}},
			&lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqStr("color", "red")}}},
		{"eq_int", []filterTermJSON{{Key: "rank", Value: float64(21)}},
			&lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqInt("rank", 21)}}},
		{"range", []filterTermJSON{{Key: "rank", Op: "range", Min: &lo, Max: &hi}},
			&lccs.Filter{Terms: []lccs.FilterTerm{lccs.Range("rank", &lo, &hi)}}},
		{"conjunction", []filterTermJSON{
			{Key: "color", Value: "blue"},
			{Key: "rank", Op: "range", Min: &lo, Max: &hi},
		}, &lccs.Filter{Terms: []lccs.FilterTerm{
			lccs.EqStr("color", "blue"), lccs.Range("rank", &lo, &hi)}}},
	}
	for _, tc := range cases {
		want, err := local.SearchQuery(q, lccs.Query{K: 5, Filter: tc.f}, nil)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		var sr searchResponse
		if code := postJSON(t, ts, "/v1/collections/docs/search",
			searchRequest{Query: q, K: 5, Filter: tc.terms}, &sr); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", tc.name, code)
		}
		if len(sr.Neighbors) != len(want) {
			t.Fatalf("%s: %d results, want %d", tc.name, len(sr.Neighbors), len(want))
		}
		for i := range want {
			if sr.Neighbors[i].ID != want[i].ID {
				t.Fatalf("%s[%d]: id %d, want %d", tc.name, i, sr.Neighbors[i].ID, want[i].ID)
			}
		}
	}

	// Wire-format validation errors are the client's fault.
	for name, terms := range map[string][]filterTermJSON{
		"float_value": {{Key: "rank", Value: 1.5}},
		"bool_value":  {{Key: "ok", Value: true}},
		"bad_op":      {{Key: "rank", Op: "lt", Value: float64(3)}},
		"empty_range": {{Key: "rank", Op: "range"}},
	} {
		if code := postJSON(t, ts, "/v1/collections/docs/search",
			searchRequest{Query: q, K: 5, Filter: terms}, nil); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
}

// TestCursorDrainHTTP drains a paginated scan over the wire and checks
// it reproduces the one-shot ordering exactly, then invalidates the
// token with a write.
func TestCursorDrainHTTP(t *testing.T) {
	const n = 50
	_, ts := newCollServer(t, Config{CacheSize: 32})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "scan"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	seedAttrWorkload(t, ts, "scan", n)

	q := []float32{13.7, 1, 0}
	filter := []filterTermJSON{{Key: "color", Value: "red"}}
	var oneShot searchResponse
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, K: n, Filter: filter}, &oneShot); code != http.StatusOK {
		t.Fatalf("one-shot: HTTP %d", code)
	}
	if len(oneShot.Neighbors) != n/2 {
		t.Fatalf("one-shot returned %d, want %d", len(oneShot.Neighbors), n/2)
	}

	var drained []lccs.Neighbor
	cursor := ""
	pages := 0
	for {
		var page searchResponse
		if code := postJSON(t, ts, "/v1/collections/scan/search",
			searchRequest{Query: q, Limit: 7, Filter: filter, Cursor: cursor}, &page); code != http.StatusOK {
			t.Fatalf("page %d: HTTP %d", pages, code)
		}
		drained = append(drained, page.Neighbors...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > n {
			t.Fatal("cursor never exhausted")
		}
	}
	if len(drained) != len(oneShot.Neighbors) {
		t.Fatalf("drained %d, one-shot %d", len(drained), len(oneShot.Neighbors))
	}
	for i := range drained {
		if drained[i] != oneShot.Neighbors[i] {
			t.Fatalf("position %d: drained %+v, one-shot %+v", i, drained[i], oneShot.Neighbors[i])
		}
	}
	if pages != (n/2+6)/7 {
		t.Fatalf("pages = %d", pages)
	}

	// Fetch a token, mutate the collection, and watch the token die.
	var first searchResponse
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, Limit: 5}, &first); code != http.StatusOK || first.NextCursor == "" {
		t.Fatalf("page for invalidation: HTTP %d, cursor %q", code, first.NextCursor)
	}
	if code := postJSON(t, ts, "/v1/collections/scan/insert",
		insertRequest{Vectors: [][]float32{{99, 0, 0}}}, nil); code != http.StatusOK {
		t.Fatalf("invalidating insert: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, Limit: 5, Cursor: first.NextCursor}, nil); code != http.StatusGone {
		t.Fatalf("stale cursor: HTTP %d, want 410", code)
	}
	// A syntactically invalid token is a plain 400.
	if code := postJSON(t, ts, "/v1/collections/scan/search",
		searchRequest{Query: q, Limit: 5, Cursor: "not-a-token"}, nil); code != http.StatusBadRequest {
		t.Fatalf("garbage cursor: HTTP %d, want 400", code)
	}
}

// TestCrossTenantCacheIsolation is the regression test for the cache
// key: two collections receiving the byte-identical query must never
// see each other's cached results, and filtered/paginated variants of
// one query must not alias its unfiltered entry.
func TestCrossTenantCacheIsolation(t *testing.T) {
	srv, ts := newCollServer(t, Config{CacheSize: 64})
	for name, v := range map[string][]float32{"a": {0, 0, 0}, "b": {5, 5, 5}} {
		if code := doJSON(t, ts, "POST", "/v1/collections",
			createCollectionRequest{Name: name}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d", name, code)
		}
		if code := postJSON(t, ts, "/v1/collections/"+name+"/insert",
			insertRequest{Vectors: [][]float32{v},
				Attrs: []map[string]any{{"tenant": name}}}, nil); code != http.StatusOK {
			t.Fatalf("insert %s: HTTP %d", name, code)
		}
	}

	q := searchRequest{Query: []float32{0, 0, 0}, K: 1}
	var ra, rb searchResponse
	// Prime the cache through collection a, then repeat to confirm the
	// entry is actually served from cache.
	if code := postJSON(t, ts, "/v1/collections/a/search", q, &ra); code != http.StatusOK {
		t.Fatalf("search a: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/a/search", q, &ra); code != http.StatusOK || !ra.Cached {
		t.Fatalf("repeat search a: HTTP %d cached=%v", code, ra.Cached)
	}
	// The identical query against b must reflect b's data, not a's
	// cached answer.
	if code := postJSON(t, ts, "/v1/collections/b/search", q, &rb); code != http.StatusOK {
		t.Fatalf("search b: HTTP %d", code)
	}
	if rb.Cached {
		t.Fatal("b's first search claims a cache hit: keys alias across tenants")
	}
	if rb.Neighbors[0].Dist == ra.Neighbors[0].Dist {
		t.Fatalf("b returned a's cached distance %v", rb.Neighbors[0].Dist)
	}

	// A filtered variant of the cached query must miss too.
	var rf searchResponse
	if code := postJSON(t, ts, "/v1/collections/a/search",
		searchRequest{Query: q.Query, K: 1,
			Filter: []filterTermJSON{{Key: "tenant", Value: "nobody"}}}, &rf); code != http.StatusOK {
		t.Fatalf("filtered search: HTTP %d", code)
	}
	if rf.Cached || len(rf.Neighbors) != 0 {
		t.Fatalf("filtered variant aliased the unfiltered entry: %+v", rf)
	}

	// Successive cursor pages key separately: page two is not page one.
	var p1, p2 searchResponse
	if code := postJSON(t, ts, "/v1/collections/a/search",
		searchRequest{Query: q.Query, Limit: 1}, &p1); code != http.StatusOK {
		t.Fatalf("page 1: HTTP %d", code)
	}
	if p1.NextCursor != "" {
		if code := postJSON(t, ts, "/v1/collections/a/search",
			searchRequest{Query: q.Query, Limit: 1, Cursor: p1.NextCursor}, &p2); code != http.StatusOK {
			t.Fatalf("page 2: HTTP %d", code)
		}
		if p2.Cached {
			t.Fatal("page 2 served page 1's cache entry")
		}
	}

	// A successor of a dropped collection must not inherit its cached
	// entries: its index starts at a fresh generation epoch, so the same
	// request keys differently even though the cache still holds them.
	if code := doJSON(t, ts, "DELETE", "/v1/collections/a", nil, nil); code != http.StatusOK {
		t.Fatalf("drop a: HTTP %d", code)
	}
	if got := srv.cache.stats().Entries; got == 0 {
		t.Fatal("cache emptied on drop; this check needs the dead tenant's entries in place")
	}
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "a"}, nil); code != http.StatusCreated {
		t.Fatalf("re-create a: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/collections/a/insert",
		insertRequest{Vectors: [][]float32{{7, 7, 7}}}, nil); code != http.StatusOK {
		t.Fatalf("insert into re-created a: HTTP %d", code)
	}
	var rn searchResponse
	if code := postJSON(t, ts, "/v1/collections/a/search", q, &rn); code != http.StatusOK {
		t.Fatalf("search re-created a: HTTP %d", code)
	}
	if rn.Cached || len(rn.Neighbors) != 1 || rn.Neighbors[0].Dist == ra.Neighbors[0].Dist {
		t.Fatalf("re-created a answered %+v (cached=%v): the dead tenant's entry", rn.Neighbors, rn.Cached)
	}
	if code := postJSON(t, ts, "/v1/collections/a/search", q, &rn); code != http.StatusOK || !rn.Cached {
		t.Fatalf("repeat search of re-created a: HTTP %d cached=%v", code, rn.Cached)
	}
}

// TestCollectionQuota checks the per-collection concurrency share: a
// hot collection is shed with 503 while the global controller still has
// room.
func TestCollectionQuota(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		Backend:               backend,
		MaxInFlight:           4,
		MaxQueue:              4,
		CollectionMaxInFlight: 1,
		Timeout:               10 * time.Second,
	})

	req := searchRequest{Query: []float32{1}, K: 1}
	done := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- postJSON(t, ts, "/v1/search", req, nil)
	}()
	<-backend.started // the first request now occupies the share

	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-share request: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 503 without Retry-After")
	}

	close(backend.gate)
	wg.Wait()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request: HTTP %d", code)
	}
	st := srv.StatsSnapshot()
	cst, ok := st.Collections[DefaultCollection]
	if !ok || cst.QuotaRejected != 1 {
		t.Fatalf("quota stats = %+v (ok=%v)", cst, ok)
	}
	if cst.InFlight != 0 {
		t.Fatalf("occupancy leaked: %d", cst.InFlight)
	}
	// The global controller never rejected anything.
	if st.Rejected != 0 {
		t.Fatalf("global rejected = %d, want 0", st.Rejected)
	}
}

// TestInsertAttrsValidation covers the attribute wire format's error
// paths.
func TestInsertAttrsValidation(t *testing.T) {
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "v"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	vec := [][]float32{{1, 2, 3}}
	for name, req := range map[string]insertRequest{
		"misaligned": {Vectors: [][]float32{{1, 2, 3}, {4, 5, 6}}, Attrs: []map[string]any{{"a": "b"}}},
		"float_attr": {Vectors: vec, Attrs: []map[string]any{{"score": 1.5}}},
		"bool_attr":  {Vectors: vec, Attrs: []map[string]any{{"ok": true}}},
	} {
		if code := postJSON(t, ts, "/v1/collections/v/insert", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	// A null attrs row is a vector without metadata, not an error.
	var ir insertResponse
	if code := postJSON(t, ts, "/v1/collections/v/insert",
		insertRequest{Vectors: [][]float32{{1, 2, 3}, {4, 5, 6}},
			Attrs: []map[string]any{nil, {"color": "red"}}}, &ir); code != http.StatusOK {
		t.Fatalf("null attrs row: HTTP %d", code)
	}
	if len(ir.IDs) != 2 {
		t.Fatalf("ids = %v", ir.IDs)
	}
	// And the metadata is actually queryable.
	var sr searchResponse
	if code := postJSON(t, ts, "/v1/collections/v/search",
		searchRequest{Query: []float32{4, 5, 6}, K: 2,
			Filter: []filterTermJSON{{Key: "color", Value: "red"}}}, &sr); code != http.StatusOK {
		t.Fatalf("filtered search: HTTP %d", code)
	}
	if len(sr.Neighbors) != 1 || sr.Neighbors[0].ID != ir.IDs[1] {
		t.Fatalf("filtered results = %+v", sr.Neighbors)
	}
}

// TestEmptyResultEncodesAsArray: an empty result is [] on the wire, never
// null — from the backend (an empty store answers with a nil row), from
// the cache, and inside a batch.
func TestEmptyResultEncodesAsArray(t *testing.T) {
	_, ts := newCollServer(t, Config{CacheSize: 8})
	if code := doJSON(t, ts, "POST", "/v1/collections", createCollectionRequest{Name: "empty"}, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	body := func(path string, req any) string {
		t.Helper()
		raw, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, out)
		}
		return string(out)
	}
	req := searchRequest{Query: []float32{1, 2}, K: 3}
	for _, source := range []string{"backend", "cache"} {
		if got := body("/v1/collections/empty/search", req); !strings.Contains(got, `"neighbors":[]`) {
			t.Errorf("empty result from the %s: %s", source, got)
		}
	}
	if got := body("/v1/collections/empty/search/batch", batchRequest{Queries: [][]float32{{1, 2}}, K: 3}); !strings.Contains(got, `"results":[[]]`) {
		t.Errorf("empty row in a batch: %s", got)
	}
	if got := body("/v1/collections/empty/search/batch", batchRequest{K: 3}); !strings.Contains(got, `"results":[]`) {
		t.Errorf("empty batch: %s", got)
	}
}

// FuzzCollectionCreate feeds arbitrary bodies to POST /v1/collections on
// a rooted registry: the handler never panics and answers 201 or a 4xx.
// A 4xx leaves GET /v1/collections as it was; a 201 lists the new
// collection, which is dropped again, so every input meets the same
// registry.
func FuzzCollectionCreate(f *testing.F) {
	eng, err := engine.New(f.TempDir(), engine.Spec{Metric: "euclidean", M: 8, Seed: 7, Sync: "none"}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng, MaxBodyBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	list := func() string { return serve(http.MethodGet, "/v1/collections", nil).Body.String() }
	for _, body := range []string{
		`{"name":"a"}`,
		`{"name":"b","metric":"angular","m":16,"sync":"interval","sync_interval_ms":5}`,
		`{"name":"c","metric":"hamming","budget":50,"rebuild_at":8,"segment_bytes":4096}`,
		`{"name":"default"}`,
		`{"name":""}`,
		`{"name":"../x"}`,
		`{"name":"d","metric":"cosine"}`,
		`{"name":"e","m":-1}`,
		`{"name":"f","budget":-3}`,
		`{"name":"g","bucket_width":-1}`,
		`{"name":"h","sync":"sometimes"}`,
		`{"name":"i","rebuild_at":-5,"segment_bytes":-1,"sync_interval_ms":-1}`,
		`{"name":"j","m":1e30}`,
		`{"name":`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	before := list()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(http.MethodPost, "/v1/collections", body)
		switch {
		case rec.Code == http.StatusCreated:
			var resp createCollectionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Name == "" {
				t.Fatalf("HTTP 201 for body %q answered %s", body, rec.Body)
			}
			if l := list(); !strings.Contains(l, `"name":"`+resp.Name+`"`) {
				t.Fatalf("created %q, yet the list is %s", resp.Name, l)
			}
			if rec := serve(http.MethodDelete, "/v1/collections/"+resp.Name, nil); rec.Code != http.StatusOK {
				t.Fatalf("dropping created %q: HTTP %d %s", resp.Name, rec.Code, rec.Body)
			}
			if l := list(); l != before {
				t.Fatalf("after creating and dropping %q the list is %s, was %s", resp.Name, l, before)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if l := list(); l != before {
				t.Fatalf("HTTP %d for body %q, yet the list went from %s to %s", rec.Code, body, before, l)
			}
		default:
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
