package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"lccs"
	"lccs/internal/engine"
)

// overflowBatch is a batch whose third vector is admissible under
// Euclidean but not under Angular: its float32 sum of squares overflows.
func overflowBatch() insertRequest {
	big := make([]float32, 8)
	for i := range big {
		big[i] = 3e38
	}
	ok := func(x float32) []float32 { return []float32{x, 1, 2, 3, 4, 5, 6, 7} }
	return insertRequest{Vectors: [][]float32{ok(1), ok(2), big, ok(3)}}
}

// TestInsertBatchAtomicAngular: a /v1/insert batch that the backend
// refuses part-way is refused whole — HTTP 400 with no ids, nothing in
// the collection and nothing in its log — under Angular, where the bad
// vector's length and dimension are fine; under Euclidean the same batch
// goes in.
func TestInsertBatchAtomicAngular(t *testing.T) {
	eng := newTestEngine(t)
	_, ts := newTestServer(t, Config{Engine: eng})
	for _, metric := range []string{"angular", "euclidean"} {
		if code := doJSON(t, ts, "POST", "/v1/collections",
			createCollectionRequest{Name: metric, Spec: engine.Spec{Metric: metric}}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d", metric, code)
		}
		coll, err := eng.Get(metric)
		if err != nil {
			t.Fatal(err)
		}
		d := coll.Dynamic()
		wal := d.WALStats().AppendedBytes
		var resp struct {
			Error string `json:"error"`
			IDs   []int  `json:"ids"`
		}
		code := postJSON(t, ts, "/v1/collections/"+metric+"/insert", overflowBatch(), &resp)
		switch metric {
		case "angular":
			if code != http.StatusBadRequest || len(resp.IDs) != 0 {
				t.Fatalf("angular: HTTP %d ids %v (%s); want 400 and no ids", code, resp.IDs, resp.Error)
			}
			if d.Len() != 0 || d.WALStats().AppendedBytes != wal {
				t.Fatalf("angular: a refused batch left %d vectors and %d log bytes", d.Len(), d.WALStats().AppendedBytes-wal)
			}
		case "euclidean":
			if code != http.StatusOK || len(resp.IDs) != 4 || d.Len() != 4 {
				t.Fatalf("euclidean: HTTP %d ids %v, %d vectors; want 200 and all four", code, resp.IDs, d.Len())
			}
		}
	}
}

// FuzzInsertRequest feeds arbitrary bodies to POST /v1/insert on an
// in-process server whose default collection is Angular, over a data
// directory: the handler never panics and answers only 200, 400 or 503;
// a 4xx leaves the vector count and the log bytes as they were; and every
// id a 200 returns is found by an exhaustive search for its vector.
func FuzzInsertRequest(f *testing.F) {
	eng, err := engine.New(f.TempDir(), engine.Spec{Metric: "angular", M: 8, Seed: 7, Sync: "none"}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng, MaxBodyBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	coll, err := eng.Get(DefaultCollection)
	if err != nil {
		f.Fatal(err)
	}
	d, h := coll.Dynamic(), srv.Handler()
	repro, _ := json.Marshal(overflowBatch())
	for _, body := range []string{
		string(repro),
		`{"vectors":[[1,2,3,4,5,6,7,8],[0,0,0,0,0,0,0,1]]}`,
		`{"vectors":[[1,2,3,4,5,6,7,8]],"attrs":[{"color":"red","n":3}]}`,
		`{"vectors":[[1,2],[1,2,3]]}`,
		`{"vectors":[[]]}`,
		`{"vectors":[[1e39]]}`,
		`{"vectors":[[1,2]],"attrs":[{"x":1.5}]}`,
		`{"vectors":`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		n, wal := d.Len(), d.WALStats().AppendedBytes
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/insert", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if d.Len() != n || d.WALStats().AppendedBytes != wal {
				t.Fatalf("HTTP 400 for body %q, yet %d vectors and %d log bytes went in",
					body, d.Len()-n, d.WALStats().AppendedBytes-wal)
			}
			return
		case http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var req insertRequest
		var resp insertResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("HTTP 200 for a body that does not decode: %q", body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.IDs) != len(req.Vectors) {
			t.Fatalf("HTTP 200 for %d vectors answered %s", len(req.Vectors), rec.Body)
		}
		for i, id := range resp.IDs {
			res, err := d.SearchQuery(req.Vectors[i], lccs.Query{K: d.Len(), Budget: d.Len()}, nil)
			if err != nil || !slices.ContainsFunc(res, func(nb lccs.Neighbor) bool { return nb.ID == id }) {
				t.Fatalf("id %d of body %q not found by an exhaustive search (err %v)", id, body, err)
			}
		}
	})
}

// FuzzDeleteRequest feeds arbitrary bodies to POST /v1/delete on an
// in-process server whose default collection is durable, over a data
// directory holding 64 rows: the handler never panics and answers only
// 200, 400 or 503; a 4xx leaves the tombstone count and the log bytes as
// they were; and a 200's deleted count plus its missing ids account for
// every id the body sent, duplicates included, with the tombstones grown
// by exactly the deleted count.
func FuzzDeleteRequest(f *testing.F) {
	eng, err := engine.New(f.TempDir(), engine.Spec{Metric: "euclidean", M: 8, Seed: 7, BucketWidth: 4, Sync: "none"}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng, MaxBodyBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	coll, err := eng.Get(DefaultCollection)
	if err != nil {
		f.Fatal(err)
	}
	d, h := coll.Dynamic(), srv.Handler()
	data, _ := testWorkload(12, 64, 4)
	if _, err := d.AddBatch(data); err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"ids":[1,2,3]}`,
		`{"id":5}`,
		`{"id":6,"ids":[6,6,7]}`,
		`{"ids":[-1,64,1000000]}`,
		`{"ids":[9223372036854775807]}`,
		`{"ids":[]}`,
		`{}`,
		`{"ids":[1.5]}`,
		`{"ids":[1e30]}`,
		`{"id":null,"ids":null}`,
		`{"ids":`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dead, wal := d.Deleted(), d.WALStats().AppendedBytes
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/delete", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if d.Deleted() != dead || d.WALStats().AppendedBytes != wal {
				t.Fatalf("HTTP 400 for body %q, yet %d tombstones and %d log bytes went in",
					body, d.Deleted()-dead, d.WALStats().AppendedBytes-wal)
			}
			return
		case http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var req deleteRequest
		var resp deleteResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("HTTP 200 for a body that does not decode: %q", body)
		}
		sent := len(req.IDs)
		if req.ID != nil {
			sent++
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Deleted+len(resp.Missing) != sent {
			t.Fatalf("HTTP 200 for %d ids answered %s", sent, rec.Body)
		}
		if d.Deleted() != dead+resp.Deleted {
			t.Fatalf("body %q deleted %d ids, yet the tombstones grew by %d", body, resp.Deleted, d.Deleted()-dead)
		}
	})
}
