package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"lccs"
	"lccs/internal/vec"
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

// TestServeNonFiniteDistance: a finite query whose float32 distances
// overflow — coordinates near 1e30 — is answered 200 with finite
// distances, each within 1e-6 relative of the float64 distance
// (vec.Distance64), on /v1/search (from the backend and from the cache)
// and on /v1/search/batch; and the request counters record the 200s.
// While the float32 overflow reached the response as +Inf, which JSON
// cannot encode, all three answered 400 "result distance is not finite".
func TestServeNonFiniteDistance(t *testing.T) {
	d, data := hostileBackend(t)
	srv, ts := newTestServer(t, Config{Backend: d, CacheSize: 16})
	q := make([]float32, d.Dim())
	for i := range q {
		q[i] = 1e30
	}
	check := func(path string, res []lccs.Neighbor) {
		t.Helper()
		if len(res) != 3 {
			t.Fatalf("%s: %d neighbors, want 3", path, len(res))
		}
		for _, nb := range res {
			want := vec.Distance64(data[nb.ID], q)
			if math.IsInf(nb.Dist, 0) || math.Abs(nb.Dist-want) > 1e-6*want {
				t.Fatalf("%s: neighbor %d at %v, want %v", path, nb.ID, nb.Dist, want)
			}
		}
	}
	for i := 0; i < 2; i++ {
		var resp searchResponse
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: q, K: 3}, &resp); code != http.StatusOK {
			t.Fatalf("/v1/search: HTTP %d, want 200", code)
		}
		check("/v1/search", resp.Neighbors)
	}
	var br batchResponse
	if code := postJSON(t, ts, "/v1/search/batch", batchRequest{Queries: [][]float32{q}, K: 3}, &br); code != http.StatusOK || len(br.Results) != 1 {
		t.Fatalf("/v1/search/batch: HTTP %d with %d results, want 200 with 1", code, len(br.Results))
	}
	check("/v1/search/batch", br.Results[0])
	st := srv.StatsSnapshot()
	if st.Requests["search:200"] != 2 || st.Requests["search_batch:200"] != 1 || st.Requests["search:400"]+st.Requests["search_batch:400"] != 0 {
		t.Fatalf("request counters %v, want two search and one batch 200", st.Requests)
	}
	if st.Total.CacheHits != 1 {
		t.Fatalf("cache hits %d, want the second search answered from the cache", st.Total.CacheHits)
	}
}
