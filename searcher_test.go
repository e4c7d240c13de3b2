package lccs

import (
	"errors"
	"path/filepath"
	"sort"
	"testing"
)

// searcherFixtures builds a one-shard and a three-shard Index and a
// DynamicIndex over identical seeded data with one fully resolved
// configuration, so their hashing is seed-equivalent.
func searcherFixtures(t *testing.T, data [][]float32, cfg Config) map[string]Searcher {
	t.Helper()
	ix, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := newSharded(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Searcher{"Index": ix, "Index/3 shards": sx, "DynamicIndex": dyn}
}

// TestSearcherConformanceIdenticalResults: at an exhaustive candidate
// budget every facade verifies every vector, so an Index of one or three
// shards and a DynamicIndex must return identical (id, distance) lists on
// identical seeded data — the Searcher interface's core contract.
func TestSearcherConformanceIdenticalResults(t *testing.T) {
	data, g := testData(91, 600, 10, 6, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 17}
	facades := searcherFixtures(t, data, cfg)

	const k = 8
	exhaustive := 3 * len(data) // covers every shard even after ⌈λ/S⌉ splitting
	for qi := 0; qi < 12; qi++ {
		q := g.GaussianVector(10)
		want := must(facades["Index"].SearchQuery(q, Query{K: k, Budget: exhaustive}, nil))
		for name, s := range facades {
			got := must(s.SearchQuery(q, Query{K: k, Budget: exhaustive}, nil))
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", name, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %d pos %d: %+v, want %+v", name, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearcherConformanceTombstoneFiltering extends the conformance
// contract to the deletion lifecycle: with tombstones in place, the
// DynamicIndex and the Index snapshot derived from it must
// agree with each other at an exhaustive budget AND with a brute-force
// scan over only the live vectors — deleted ids appear nowhere, live
// ids keep their stable values.
func TestSearcherConformanceTombstoneFiltering(t *testing.T) {
	data, g := testData(95, 500, 10, 5, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 23}
	dyn, err := NewDynamicIndex(data, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{}
	for _, id := range []int{0, 13, 14, 99, 100, 101, 250, 499} {
		if !dyn.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
		dead[id] = true
	}
	_, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	facades := map[string]Searcher{"DynamicIndex": dyn, "Snapshot": snap}

	const k = 8
	exhaustive := 3 * len(data)
	for qi := 0; qi < 12; qi++ {
		q := g.GaussianVector(10)
		// Brute-force reference over live vectors only.
		type ref struct {
			id   int
			dist float64
		}
		var refs []ref
		for id, v := range data {
			if !dead[id] {
				refs = append(refs, ref{id, dyn.Distance(q, v)})
			}
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].dist != refs[j].dist {
				return refs[i].dist < refs[j].dist
			}
			return refs[i].id < refs[j].id
		})
		for name, s := range facades {
			got := must(s.SearchQuery(q, Query{K: k, Budget: exhaustive}, nil))
			if len(got) != k {
				t.Fatalf("%s query %d: %d results, want %d", name, qi, len(got), k)
			}
			for i, nb := range got {
				if dead[nb.ID] {
					t.Fatalf("%s query %d: deleted id %d surfaced", name, qi, nb.ID)
				}
				if nb.ID != refs[i].id || nb.Dist != refs[i].dist {
					t.Fatalf("%s query %d pos %d: got (%d, %v), brute force says (%d, %v)",
						name, qi, i, nb.ID, nb.Dist, refs[i].id, refs[i].dist)
				}
			}
		}
	}
}

// TestFacadeValidationConformance: every facade answers the same
// invalid input with the same typed error — never a silent empty
// result.
func TestFacadeValidationConformance(t *testing.T) {
	data, _ := testData(92, 120, 8, 4, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 18}
	facades := searcherFixtures(t, data, cfg)

	valid := data[0]
	cases := []struct {
		name    string
		q       []float32
		k, l    int
		wantErr error
	}{
		{"k=0", valid, 0, 50, ErrInvalidK},
		{"k<0", valid, -3, 50, ErrInvalidK},
		{"lambda=0 selects the default", valid, 5, 0, nil},
		{"lambda<0", valid, 5, -1, ErrInvalidBudget},
		{"nil query", nil, 5, 50, ErrEmptyQuery},
		{"empty query", []float32{}, 5, 50, ErrEmptyQuery},
		{"dim mismatch", []float32{1, 2, 3}, 5, 50, ErrDimensionMismatch},
	}
	for name, s := range facades {
		for _, c := range cases {
			if _, err := s.SearchQuery(c.q, Query{K: c.k, Budget: c.l}, nil); !errors.Is(err, c.wantErr) {
				t.Errorf("%s/SearchQuery/%s: err=%v, want %v", name, c.name, err, c.wantErr)
			}
		}
		// Search (default budget) applies the same k/query checks.
		if _, err := s.Search(valid, 0); !errors.Is(err, ErrInvalidK) {
			t.Errorf("%s/Search k=0: err=%v, want ErrInvalidK", name, err)
		}
		if _, err := s.Search(nil, 3); !errors.Is(err, ErrEmptyQuery) {
			t.Errorf("%s/Search nil query: err=%v, want ErrEmptyQuery", name, err)
		}
		// Valid input still succeeds after all that.
		if res := must(s.Search(valid, 3)); len(res) != 3 {
			t.Errorf("%s: valid search returned %d results", name, len(res))
		}
	}
}

func TestParseMetric(t *testing.T) {
	good := map[string]MetricKind{
		"euclidean": Euclidean, "l2": Euclidean, "L2": Euclidean,
		"angular": Angular, "cosine": Angular,
		"hamming": Hamming, " hamming ": Hamming,
		"jaccard": Jaccard, "minhash": Jaccard, "Jaccard": Jaccard,
	}
	for in, want := range good {
		got, err := ParseMetric(in)
		if err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "chebyshev", "l3"} {
		if _, err := ParseMetric(in); err == nil {
			t.Errorf("ParseMetric(%q) should fail", in)
		}
	}
}

// TestDynamicSnapshotRoundTrip: a snapshot taken with buffered inserts
// persists through the container and serves identical results
// after a reload — the serve daemon's shutdown path.
func TestDynamicSnapshotRoundTrip(t *testing.T) {
	data, g := testData(93, 300, 8, 4, 0.5)
	dyn, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 19}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Cross the threshold once (background shard) and leave a tail in
	// the buffer, so the snapshot exercises both paths.
	var lastID int
	for i := 0; i < 130; i++ {
		if lastID, err = dyn.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()
	if dyn.Buffered() == 0 {
		t.Fatal("test setup: expected a non-empty buffer")
	}

	vectors, sx, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != 430 || sx.Len() != 430 {
		t.Fatalf("snapshot covers %d/%d vectors, want 430", len(vectors), sx.Len())
	}
	path := filepath.Join(t.TempDir(), "snap.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, vectors)
	if err != nil {
		t.Fatal(err)
	}
	// The buffered insert is preserved: it is findable at distance 0
	// under its stable id, before and after the round trip.
	for _, s := range []Searcher{sx, loaded} {
		res := must(s.SearchQuery(vectors[lastID], Query{K: 1, Budget: 3 * len(vectors)}, nil))
		if len(res) != 1 || res[0].ID != lastID || res[0].Dist != 0 {
			t.Fatalf("buffered insert lost after snapshot: %+v", res)
		}
	}
	// Full parity between the in-memory snapshot and the reloaded one.
	for qi := 0; qi < 10; qi++ {
		q := g.GaussianVector(8)
		a := must(sx.SearchQuery(q, Query{K: 5, Budget: 60}, nil))
		b := must(loaded.SearchQuery(q, Query{K: 5, Budget: 60}, nil))
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	// The snapshot did not disturb the live index.
	res := must(dyn.Search(vectors[lastID], 1))
	if len(res) != 1 || res[0].ID != lastID {
		t.Fatalf("live index broken after snapshot: %+v", res)
	}
}

// TestDynamicFromShardedStaysWritable: the warm-restart path — a
// snapshot reopened with Load and wrapped back into a DynamicIndex with
// NewDynamicIndexFrom keeps serving inserts, so writability survives any
// number of snapshot/restart cycles.
func TestDynamicFromShardedStaysWritable(t *testing.T) {
	data, g := testData(94, 200, 8, 4, 0.5)
	dyn, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 21}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	firstInsert, err := dyn.Add(g.GaussianVector(8))
	if err != nil {
		t.Fatal(err)
	}
	vectors, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.lccs")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, vectors)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewDynamicIndexFrom(loaded, 50)
	if warm.Len() != 201 || warm.Buffered() != 0 {
		t.Fatalf("Len=%d Buffered=%d", warm.Len(), warm.Buffered())
	}
	// The pre-restart insert is still served under its stable id.
	res := must(warm.SearchQuery(vectors[firstInsert], Query{K: 1, Budget: 4 * len(vectors)}, nil))
	if len(res) != 1 || res[0].ID != firstInsert || res[0].Dist != 0 {
		t.Fatalf("pre-restart insert lost: %+v", res)
	}
	// New inserts keep working, ids continue from the snapshot, and the
	// rebuild threshold still triggers background shard builds.
	v := g.GaussianVector(8)
	id, err := warm.Add(v)
	if err != nil {
		t.Fatal(err)
	}
	if id != 201 {
		t.Fatalf("post-restart id = %d, want 201", id)
	}
	res = must(warm.Search(v, 1))
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("post-restart insert not found: %+v", res)
	}
	for i := 0; i < 60; i++ {
		if _, err := warm.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	warm.WaitRebuild()
	if warm.Buffered() >= 50 {
		t.Fatalf("Buffered=%d, background build never triggered", warm.Buffered())
	}

	// A mismatched data slice is rejected where it enters, by Load.
	if _, err := Load(path, vectors[:10]); err == nil {
		t.Fatal("short data slice should fail")
	}
}

// TestSnapshotEmptyDynamic: an empty dynamic index has nothing to
// persist and says so.
func TestSnapshotEmptyDynamic(t *testing.T) {
	dyn, err := NewDynamicIndex(nil, Config{Metric: Euclidean, M: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dyn.Snapshot(); err == nil {
		t.Fatal("empty snapshot should fail")
	}
}
