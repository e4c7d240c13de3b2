package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// openDurableBackend stands up a journaled DynamicIndex over a test temp
// dir.
func openDurableBackend(t *testing.T, dir string) *lccs.DynamicIndex {
	t.Helper()
	di, err := lccs.OpenDurable(dir, lccs.DurableConfig{
		Config:       lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 1, BucketWidth: 4},
		SegmentBytes: 4096,
		RebuildAt:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { di.Close() })
	return di
}

// TestDurableBackendEndToEnd drives the full HTTP surface over a
// durable backend: batch insert through AddBatch (one journal wait),
// durable delete, WAL health in /v1/stats and /metrics, and recovery
// after an in-process crash (the index is abandoned, a second one is
// opened over the same dir).
func TestDurableBackendEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data, queries := testWorkload(91, 200, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di})

	var ins insertResponse
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, &ins); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	if len(ins.IDs) != len(data) || ins.IDs[0] != 0 {
		t.Fatalf("insert ids: %d starting at %d", len(ins.IDs), ins.IDs[0])
	}
	var del deleteResponse
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"ids": []int{3, 9999}}, &del); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if del.Deleted != 1 || len(del.Missing) != 1 {
		t.Fatalf("delete response %+v", del)
	}

	// Stats must expose the durable backend kind and WAL health.
	var st Stats
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Backend.Kind != "durable" || !st.Backend.Writable {
		t.Fatalf("backend stats %+v", st.Backend)
	}
	if st.WAL == nil {
		t.Fatal("stats missing wal section on a durable backend")
	}
	if st.WAL.Depth != uint64(len(data))+1 {
		t.Fatalf("wal depth %d, want %d", st.WAL.Depth, len(data)+1)
	}
	if st.WAL.Policy != "always" || st.WAL.Fsyncs == 0 {
		t.Fatalf("wal stats %+v", st.WAL)
	}

	// Metrics must carry the WAL gauges.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"lccs_wal_depth_records", "lccs_wal_fsyncs_total", "lccs_wal_segments", "lccs_wal_bytes"} {
		if !strings.Contains(string(blob), metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}

	// Crash: abandon the backend (no checkpoint, no close), reopen the
	// directory, and serve the recovered index — every acknowledged
	// write must be there.
	di.WaitRebuild()
	di2 := openDurableBackend(t, dir)
	if di2.Len() != len(data)-1 {
		t.Fatalf("recovered %d live vectors, want %d", di2.Len(), len(data)-1)
	}
	_, ts2 := newTestServer(t, Config{Backend: di2})
	var res searchResponse
	if code := postJSON(t, ts2, "/v1/search", searchRequest{Query: queries[0], K: 5, Budget: 1 << 20}, &res); code != http.StatusOK {
		t.Fatalf("search after recovery: HTTP %d", code)
	}
	if len(res.Neighbors) != 5 {
		t.Fatalf("search after recovery returned %d neighbors", len(res.Neighbors))
	}
	for _, nb := range res.Neighbors {
		if nb.ID == 3 {
			t.Fatal("deleted id 3 resurrected after crash recovery")
		}
	}
}

// TestDurableInsertNotAckedAfterClose pins the lost-ack fix: once the
// WAL cannot accept writes, /v1/insert and /v1/delete answer 5xx, never
// a 200 the crash could betray.
func TestDurableInsertNotAckedAfterClose(t *testing.T) {
	dir := t.TempDir()
	data, _ := testWorkload(92, 10, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di})
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data[:5]}, nil); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	// Break the log the way an exhausted disk would: close it.
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data[5:]}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("insert on broken WAL: HTTP %d, want 503", code)
	}
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"id": 0}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("delete on broken WAL: HTTP %d, want 503", code)
	}
}

// TestSearchHugeRowsFinite: over 40 inserted rows of N(0,1)×1e20 at d = 8,
// whose float32 sums of squares all overflow, a /v1/search at k = 3
// answers 200 with finite distances, each within 1e-6 relative of the
// float64 distance (vec.Distance64) — where the distances once came back
// +Inf, which JSON cannot encode, and the search answered 400 blaming an
// admissible query.
func TestSearchHugeRowsFinite(t *testing.T) {
	eng, err := engine.New(t.TempDir(), engine.Spec{Metric: "euclidean", M: 8, Seed: 7, Sync: "none"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, ts := newTestServer(t, Config{Engine: eng})
	g := rng.New(25)
	rows := make([][]float32, 40)
	for i := range rows {
		rows[i] = g.GaussianVector(8)
		for j := range rows[i] {
			rows[i][j] *= 1e20
		}
		if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: rows[i : i+1]}, nil); code != http.StatusOK {
			t.Fatalf("insert %d: HTTP %d", i, code)
		}
	}
	for _, qid := range []int{0, 21} {
		var resp searchResponse
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: rows[qid], K: 3}, &resp); code != http.StatusOK {
			t.Fatalf("search from row %d: HTTP %d", qid, code)
		}
		if len(resp.Neighbors) != 3 {
			t.Fatalf("search from row %d answered %+v, want 3 neighbors", qid, resp.Neighbors)
		}
		for _, nb := range resp.Neighbors {
			want := vec.Distance64(rows[nb.ID], rows[qid])
			if math.IsInf(nb.Dist, 0) || math.Abs(nb.Dist-want) > 1e-6*want {
				t.Fatalf("search from row %d: neighbor %d at %v, want %v", qid, nb.ID, nb.Dist, want)
			}
		}
	}
}

// TestInsertHugeRowsBuilds: 1e20-scale rows, whose float32 distances all
// overflow, are admissible, and the bucket width the delta builds derive
// from them is finite: every one-vector /v1/insert into a durable
// collection at rebuild_at 16 answers a plain 200 (no warning key), the
// builds swap shards in, and a checkpoint empties the log.
func TestInsertHugeRowsBuilds(t *testing.T) {
	eng, err := engine.New(t.TempDir(), engine.Spec{Metric: "euclidean", M: 8, Seed: 7, RebuildAt: 16, Sync: "none"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, ts := newTestServer(t, Config{Engine: eng})
	g := rng.New(25)
	for i := 0; i < 40; i++ {
		v := g.GaussianVector(8)
		for j := range v {
			v[j] *= 1e20
		}
		var body map[string]any
		if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: [][]float32{v}}, &body); code != http.StatusOK {
			t.Fatalf("insert %d: HTTP %d %v", i, code, body)
		}
		if len(body) != 2 || body["ids"] == nil || body["request_id"] == nil {
			t.Fatalf("insert %d answered %v, want ids and request_id only", i, body)
		}
	}
	c, err := eng.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Dynamic()
	d.WaitRebuild()
	if d.Shards() == 0 {
		t.Fatal("no shard built")
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if depth := d.WALStats().Depth; depth != 0 {
		t.Fatalf("WAL depth %d after the checkpoint, want 0", depth)
	}
}
