package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"lccs"
)

// TestCachedPageFollowsIndexGeneration is the regression test for a
// cached cursor page outliving the index state it was computed on. A
// checkpoint that compacts a buffered tombstone, and a Rebuild, change
// the index without a write request; the cached first page must not keep
// handing out a token the index refuses with 410. Every answer served
// from the cache must be the backend's fresh answer at that state.
func TestCachedPageFollowsIndexGeneration(t *testing.T) {
	const n, budget, limit = 300, 40, 5
	data, _ := testWorkload(31, n, 6)
	for _, tc := range []struct {
		name   string
		change func(*lccs.DynamicIndex) error
	}{
		{"checkpoint", func(d *lccs.DynamicIndex) error { _, err := d.Checkpoint(); return err }},
		{"rebuild", (*lccs.DynamicIndex).Rebuild},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newCollServer(t, Config{CacheSize: 64})
			c, err := srv.eng.Get(DefaultCollection)
			if err != nil {
				t.Fatal(err)
			}
			d := c.Dynamic()
			if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
				t.Fatalf("insert: HTTP %d", code)
			}
			if code := postJSON(t, ts, "/v1/delete", deleteRequest{IDs: []int{7}}, nil); code != http.StatusOK {
				t.Fatalf("delete: HTTP %d", code)
			}
			if d.Buffered() != n {
				t.Fatalf("%d rows buffered, want all %d: the tombstone must be in the buffer", d.Buffered(), n)
			}
			q := data[3]
			page := searchRequest{Query: q, Limit: limit, Budget: budget}
			oneShot := searchRequest{Query: q, K: limit, Budget: budget}
			cachedSeen := 0
			fetch := func(stage string, req searchRequest) searchResponse {
				t.Helper()
				var resp searchResponse
				if code := postJSON(t, ts, "/v1/search", req, &resp); code != http.StatusOK {
					t.Fatalf("%s: HTTP %d", stage, code)
				}
				return resp
			}
			// checkCached holds an answer the cache gave to the backend's
			// fresh one at K = limit: page 1 of a scan is the one-shot
			// query at K = limit.
			checkCached := func(stage string, resp searchResponse) {
				t.Helper()
				if !resp.Cached {
					return
				}
				cachedSeen++
				fresh, err := d.SearchQuery(q, lccs.Query{K: limit, Budget: budget}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(resp.Neighbors, fresh) {
					t.Fatalf("%s: cached answer %v, the index answers %v", stage, resp.Neighbors, fresh)
				}
			}
			for _, req := range []searchRequest{page, oneShot} {
				checkCached("before", fetch("before", req))
				again := fetch("before, repeated", req)
				if !again.Cached {
					t.Fatal("a repeated request missed the cache")
				}
				checkCached("before, repeated", again)
			}
			if err := tc.change(d); err != nil {
				t.Fatal(err)
			}
			first := fetch("after, page 1", page)
			if first.NextCursor == "" {
				t.Fatal("page 1 carries no cursor")
			}
			var second searchResponse
			resume := searchRequest{Query: q, Limit: limit, Budget: budget, Cursor: first.NextCursor}
			if code := postJSON(t, ts, "/v1/search", resume, &second); code != http.StatusOK {
				t.Fatalf("resuming page 1 after %s: HTTP %d, want 200", tc.name, code)
			}
			if len(second.Neighbors) != limit {
				t.Fatalf("page 2 holds %d rows, want %d", len(second.Neighbors), limit)
			}
			checkCached("after, page 1", first)
			checkCached("after, page 1 repeated", fetch("after, page 1 repeated", page))
			checkCached("after, one-shot", fetch("after, one-shot", oneShot))
			checkCached("after, one-shot repeated", fetch("after, one-shot repeated", oneShot))
			if cachedSeen < 4 {
				t.Fatalf("%d cached answers checked, want at least 4", cachedSeen)
			}
		})
	}
}

// TestCollectionLifecycleHammer creates, searches and drops one name
// over and over while other clients search it and read every stats
// surface. Once a drop returns the name answers 404 — its collection
// document too — and no surface that lists collections — /v1/stats, the
// per-collection /metrics families, lccs_requests_total — names it. A
// re-created collection under one cache never answers with the dead
// one's entries: each round holds a different number of rows.
func TestCollectionLifecycleHammer(t *testing.T) {
	const name, rounds = "churn", 12
	srv, ts := newCollServer(t, Config{CacheSize: 256})
	query := searchRequest{Query: []float32{0, 0}, K: 64}
	path := "/v1/collections/" + name + "/search"

	// do is doJSON for goroutines other than the test's own: it reports
	// failures instead of stopping the test.
	do := func(method, p string, body, out any) (int, error) {
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				return 0, err
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, ts.URL+p, rd)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, err
		}
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, err := do("POST", path, query, nil); err != nil || (code != http.StatusOK && code != http.StatusNotFound) {
					t.Errorf("concurrent search: HTTP %d, %v", code, err)
					return
				}
			}
		}()
	}
	usage := "/v1/collections/" + name + "/usage" // 404 between a drop and the next create
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, p := range []string{"/v1/stats", usage, "/metrics", "/v1/collections"} {
				select {
				case <-stop:
					return
				default:
				}
				if code, err := do("GET", p, nil, nil); err != nil || (code != http.StatusOK && (p != usage || code != http.StatusNotFound)) {
					t.Errorf("GET %s: HTTP %d, %v", p, code, err)
					return
				}
			}
		}
	}()

	for round := range rounds {
		if code := doJSON(t, ts, "POST", "/v1/collections",
			createCollectionRequest{Name: name}, nil); code != http.StatusCreated {
			t.Fatalf("round %d: create: HTTP %d", round, code)
		}
		rows := make([][]float32, round+1)
		for i := range rows {
			rows[i] = []float32{float32(round + 1), float32(i)}
		}
		if code := postJSON(t, ts, "/v1/collections/"+name+"/insert", insertRequest{Vectors: rows}, nil); code != http.StatusOK {
			t.Fatalf("round %d: insert: HTTP %d", round, code)
		}
		c, err := srv.eng.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Backend().SearchQuery(query.Query, lccs.Query{K: query.K}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(rows) {
			t.Fatalf("round %d: the index answers %d rows, holds %d", round, len(want), len(rows))
		}
		for try := range 2 {
			var got searchResponse
			if code := postJSON(t, ts, path, query, &got); code != http.StatusOK {
				t.Fatalf("round %d: search: HTTP %d", round, code)
			}
			if !slices.Equal(got.Neighbors, want) {
				t.Fatalf("round %d: served %v (cached=%v), the index answers %v", round, got.Neighbors, got.Cached, want)
			}
			if try == 1 && !got.Cached {
				t.Fatalf("round %d: a repeated search missed the cache", round)
			}
		}
		if code := doJSON(t, ts, "DELETE", "/v1/collections/"+name, nil, nil); code != http.StatusOK {
			t.Fatalf("round %d: drop: HTTP %d", round, code)
		}
		if code := postJSON(t, ts, path, query, nil); code != http.StatusNotFound {
			t.Fatalf("round %d: search after drop: HTTP %d, want 404", round, code)
		}
		assertUnlisted(t, ts, name, fmt.Sprintf("round %d", round))
	}
}

// assertUnlisted fails the test when a surface that lists collections
// names name.
func assertUnlisted(t *testing.T, ts *httptest.Server, name, stage string) {
	t.Helper()
	var st Stats
	getJSON(t, ts, "/v1/stats", &st)
	if _, ok := st.Collections[name]; ok {
		t.Fatalf("%s: /v1/stats lists dropped %q", stage, name)
	}
	if code := doJSON(t, ts, "GET", "/v1/collections/"+name+"/usage", nil, nil); code != http.StatusNotFound {
		t.Fatalf("%s: the collection document of dropped %q answers HTTP %d, want 404", stage, name, code)
	}
	for _, s := range scrapeMetrics(t, ts).samples {
		if (strings.HasPrefix(s.name, "lccs_collection_") || s.name == "lccs_requests_total") && s.labels["collection"] == name {
			t.Fatalf("%s: /metrics has %s for dropped %q", stage, s.name, name)
		}
	}
}

// TestDroppedCollectionsLeaveNoSeries: a collection's request series go
// with it, so tenants that come and go do not grow every scrape. After 50
// names are created, searched and dropped, no lccs_requests_total series
// and no /v1/stats entry names one, and the scrape holds as many
// lccs_requests_total series as after the first.
func TestDroppedCollectionsLeaveNoSeries(t *testing.T) {
	_, ts := newCollServer(t, Config{})
	query := searchRequest{Query: []float32{0, 0}, K: 1}
	var afterFirst int
	for i := range 50 {
		name := fmt.Sprintf("tenant-%02d", i)
		if code := doJSON(t, ts, "POST", "/v1/collections", createCollectionRequest{Name: name}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d", name, code)
		}
		base := "/v1/collections/" + name
		if code := postJSON(t, ts, base+"/insert", insertRequest{Vectors: [][]float32{{1, 2}}}, nil); code != http.StatusOK {
			t.Fatalf("insert %s: HTTP %d", name, code)
		}
		if code := postJSON(t, ts, base+"/search", query, nil); code != http.StatusOK {
			t.Fatalf("search %s: HTTP %d", name, code)
		}
		if code := doJSON(t, ts, "DELETE", base, nil, nil); code != http.StatusOK {
			t.Fatalf("drop %s: HTTP %d", name, code)
		}
		if i == 0 {
			afterFirst = len(scrapeMetrics(t, ts).series("lccs_requests_total"))
		}
	}
	series := scrapeMetrics(t, ts).series("lccs_requests_total")
	for _, s := range series {
		if c := s.labels["collection"]; strings.HasPrefix(c, "tenant-") {
			t.Fatalf("lccs_requests_total names dropped collection %q", c)
		}
	}
	// The scrape after the first round also counted the /metrics request
	// that produced it; every later one adds no series.
	if len(series) != afterFirst {
		t.Errorf("%d lccs_requests_total series after 50 tenants, %d after one", len(series), afterFirst)
	}
	var st Stats
	getJSON(t, ts, "/v1/stats", &st)
	for name := range st.Collections {
		if strings.HasPrefix(name, "tenant-") {
			t.Errorf("/v1/stats lists dropped collection %q", name)
		}
	}
}
