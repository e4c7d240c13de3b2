package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lccs"
)

// hostileBackend is the small lifecycle-complete backend the hostile-input
// tests query: two index shards, a non-empty insert buffer, a tombstone in
// each, every third row attributed.
func hostileBackend(tb testing.TB) (*lccs.DynamicIndex, [][]float32) {
	tb.Helper()
	data, _ := testWorkload(5, 150, 8)
	d, err := lccs.NewDynamicIndex(nil, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 3}, 64)
	if err != nil {
		tb.Fatal(err)
	}
	for i, v := range data {
		var a lccs.Attrs
		if i%3 == 0 {
			a = lccs.Attrs{"color": lccs.StrAttr("red")}
		}
		if _, err := d.AddWithAttrs(v, a); err != nil {
			tb.Fatal(err)
		}
		d.WaitRebuild()
	}
	for _, id := range []int{3, 70, 140} {
		d.Delete(id)
	}
	if d.Shards() != 2 || d.Buffered() != 22 || d.Deleted() != 3 {
		tb.Fatalf("fixture: %d shards, %d buffered, %d tombstones", d.Shards(), d.Buffered(), d.Deleted())
	}
	return d, data
}

// TestServeHostileNumbers: a k, limit or budget up to math.MaxInt in a
// /v1/search body is answered 200 with what the row count would have got
// — the backend clamps before any arithmetic — never a dropped connection
// (a handler panic) or a leaked admission slot; and a cursor minted under
// such numbers resumes with its own tokens.
func TestServeHostileNumbers(t *testing.T) {
	d, data := hostileBackend(t)
	srv, ts := newTestServer(t, Config{Backend: d, CacheSize: 16})
	q, n := data[9], len(data)
	atN, err := d.SearchQuery(q, lccs.Query{K: 10, Budget: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := d.SearchQuery(q, lccs.Query{K: n, Budget: n}, nil)
	if err != nil || len(all) != d.Len() {
		t.Fatalf("direct K n: %d results, err %v", len(all), err)
	}
	same := func(what string, got, want []lccs.Neighbor) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d neighbors, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s pos %d: %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	post := func(what string, req searchRequest) searchResponse {
		t.Helper()
		var resp searchResponse
		if code := postJSON(t, ts, "/v1/search", req, &resp); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", what, code)
		}
		return resp
	}
	for _, huge := range []int{math.MaxInt, math.MaxInt - 5, 1 << 40, math.MaxInt32} {
		same("budget", post("budget", searchRequest{Query: q, K: 10, Budget: huge}).Neighbors, atN)
		same("k+budget", post("k+budget", searchRequest{Query: q, K: huge, Budget: huge}).Neighbors, all)
		page := post("limit+budget", searchRequest{Query: q, Limit: huge, Budget: huge})
		same("limit+budget", page.Neighbors, all)
		if page.NextCursor != "" {
			t.Fatalf("limit %d: the one page left a cursor", huge)
		}
		var drained []lccs.Neighbor
		for cursor, pages := "", 0; ; pages++ {
			page := post("cursor page", searchRequest{Query: q, Limit: 40, Budget: huge, Cursor: cursor})
			drained = append(drained, page.Neighbors...)
			if cursor = page.NextCursor; cursor == "" || pages > 10 {
				break
			}
		}
		same("drained cursor", drained, all)
	}
	if st := srv.StatsSnapshot(); st.Collections[DefaultCollection].InFlight != 0 || srv.adm.inFlight() != 0 {
		t.Fatalf("admission slots leaked: %+v", st.Collections[DefaultCollection])
	}
}

// searchSeedBodies are the seed /v1/search bodies of the fuzz targets,
// around the JSON array q.
func searchSeedBodies(q string) []string {
	return []string{
		`{"query":` + q + `,"k":5}`,
		`{"query":` + q + `,"limit":3,"budget":40,"trace":true}`,
		`{"query":[1e39],"k":1}`,
		`{"query":[],"k":-1,"budget":-1}`,
		`{"k":`,
		``,
	}
}

// FuzzSearchRequest feeds arbitrary bytes to POST /v1/search on an
// in-process server over the tombstoned dynamic backend: the handler
// never panics, answers only with the statuses the API documents, and
// leaves no admission slot held.
func FuzzSearchRequest(f *testing.F) {
	d, data := hostileBackend(f)
	srv, err := New(Config{Backend: d, CacheSize: 16, MaxBodyBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	q, _ := json.Marshal(data[9])
	// testdata/fuzz/FuzzSearchRequest holds the bodies that once panicked
	// the handler (k, limit and budget at math.MaxInt, a forged cursor).
	for _, body := range searchSeedBodies(string(q)) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGone, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if n := srv.adm.inFlight(); n != 0 {
			t.Fatalf("%d admission slots held after body %q", n, body)
		}
	})
}

// TestServeNonFiniteDistance: a finite query whose distances overflow
// float32 — coordinates near 1e30 — is answered 400 with an error that
// says so, on /v1/search (from the backend and from the cache) and on
// /v1/search/batch, never 200 with an empty body; and the request
// counters record the 400s.
func TestServeNonFiniteDistance(t *testing.T) {
	d, _ := hostileBackend(t)
	srv, ts := newTestServer(t, Config{Backend: d, CacheSize: 16})
	q := make([]float32, d.Dim())
	for i := range q {
		q[i] = 1e30
	}
	if res, err := d.SearchQuery(q, lccs.Query{K: 3}, nil); err != nil || len(res) == 0 || !math.IsInf(res[0].Dist, 1) {
		t.Fatalf("fixture: direct search gave %+v, %v; want +Inf distances", res, err)
	}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/search", searchRequest{Query: q, K: 3}},
		{"/v1/search", searchRequest{Query: q, K: 3}},
		{"/v1/search/batch", batchRequest{Queries: [][]float32{q}, K: 3}},
	} {
		var er errorResponse
		if code := postJSON(t, ts, c.path, c.body, &er); code != http.StatusBadRequest || !strings.Contains(er.Error, "result distance is not finite") {
			t.Fatalf("%s: HTTP %d, error %q; want 400 naming the non-finite distance", c.path, code, er.Error)
		}
	}
	st := srv.StatsSnapshot()
	if st.Requests["search:400"] != 2 || st.Requests["search_batch:400"] != 1 || st.Requests["search:200"]+st.Requests["search_batch:200"] != 0 {
		t.Fatalf("request counters %v, want two search and one batch 400", st.Requests)
	}
	if st.Total.CacheHits != 1 {
		t.Fatalf("cache hits %d, want the second search answered from the cache", st.Total.CacheHits)
	}
}
