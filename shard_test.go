package lccs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"lccs/internal/vec"
)

// newSharded builds a static index of shards segments, each one CSA over
// a contiguous, near-equal range of the rows, all under the one
// configuration resolved from the whole dataset: the layout of a
// multi-shard container, which Load still opens. shards is capped at
// len(data) so every segment is non-empty; the segments build in
// parallel, so the frontier benchmark's build times are those of S
// parallel builds.
func newSharded(data [][]float32, cfg Config, shards int) (*Index, error) {
	store, err := storeFromRows(data, cfg.Metric)
	if err != nil {
		return nil, err
	}
	if cfg, err = resolveConfig(store, cfg); err != nil {
		return nil, err
	}
	n := store.Len()
	shards = min(shards, n)
	start := time.Now()
	offsets := splitOffsets(n, shards)
	set := segSet{cfg: cfg, tail: vec.NewStore(store.Dim()), segs: make([]segment, shards), indexed: n}
	var wg sync.WaitGroup
	for s := range set.segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set.segs[s] = segment{core: buildCore(store.Slice(offsets[s], offsets[s+1]), cfg), off: offsets[s]}
		}()
	}
	wg.Wait()
	set.metric = set.segs[0].core.Metric()
	return indexOf(set, time.Since(start)), nil
}

// newShardedWithAttrs is newSharded with per-vector metadata, under
// NewIndexWithAttrs's rule: attrs may be shorter than data, not longer.
func newShardedWithAttrs(data [][]float32, attrs []Attrs, cfg Config, shards int) (*Index, error) {
	if len(attrs) > len(data) {
		return nil, ErrAttrsMismatch
	}
	ix, err := newSharded(data, cfg, shards)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0 {
		ix.setAttrs(vec.MetaFromRows(append([]Attrs(nil), attrs...)))
	}
	return ix, nil
}

// splitOffsets splits n rows into an (shards+1)-entry offset table of
// near-equal contiguous ranges (the first n%shards ranges are one larger).
func splitOffsets(n, shards int) []int {
	offsets := make([]int, shards+1)
	base, rem := n/shards, n%shards
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		offsets[s+1] = offsets[s] + size
	}
	return offsets
}

// reloaded saves ix and loads the container back over data: the
// multi-segment set a file written by an older multi-shard build opens
// as. The reload must re-save byte for byte.
func reloaded(t *testing.T, ix *Index, data [][]float32) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reloaded.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if blob, err := os.ReadFile(path); err != nil || !bytes.Equal(blob, saveBytes(t, loaded)) {
		t.Fatalf("a loaded %d-segment container does not re-save byte for byte (err %v)", loaded.Shards(), err)
	}
	return loaded
}

// sortedIDSet extracts result ids as a set for top-k set comparisons.
func sortedIDSet(res []Neighbor) map[int]bool {
	set := make(map[int]bool, len(res))
	for _, nb := range res {
		set[nb.ID] = true
	}
	return set
}

func TestShardedMatchesSingleIndexTopK(t *testing.T) {
	// At an exhaustive candidate budget an Index of one shard and one of
	// several verify every vector, so the top-k sets must coincide
	// exactly (and match brute force) — the sharding changes the
	// partitioning, never the answer. A multi-segment set answers so
	// whether built or loaded from its container.
	data, g := testData(71, 1200, 10, 6, 0.5)
	cfg := Config{Metric: Euclidean, M: 24, Seed: 9}
	single, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 4, 7} {
		built, err := newSharded(data, cfg, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, sx := range []*Index{built, reloaded(t, built, data)} {
			if sx.Shards() != shards {
				t.Fatalf("got %d shards, want %d", sx.Shards(), shards)
			}
			checkExhaustive(t, single, sx, g.GaussianVector, len(data))
		}
	}
}

// checkExhaustive asserts sx answers 15 random queries at an exhaustive
// budget exactly as the one-segment single does.
func checkExhaustive(t *testing.T, single, sx *Index, query func(int) []float32, n int) {
	t.Helper()
	shards := sx.Shards()
	exhaustive := shards * n
	for qi := 0; qi < 15; qi++ {
		q := query(10)
		a := must(single.SearchQuery(q, Query{K: 10, Budget: n}, nil))
		b := must(sx.SearchQuery(q, Query{K: 10, Budget: exhaustive}, nil))
		if len(a) != len(b) {
			t.Fatalf("shards=%d query %d: %d vs %d results", shards, qi, len(a), len(b))
		}
		want, got := sortedIDSet(a), sortedIDSet(b)
		for id := range want {
			if !got[id] {
				t.Fatalf("shards=%d query %d: id %d missing from sharded top-k", shards, qi, id)
			}
		}
		// Distances agree pointwise (both ascending).
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("shards=%d query %d pos %d: dist %v vs %v", shards, qi, i, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestShardedDeterminism(t *testing.T) {
	data, g := testData(72, 900, 8, 5, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 11}
	a, err := newSharded(data, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSharded(data, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two builds write the same container, and its reload answers as
	// either build does.
	if !bytes.Equal(saveBytes(t, a), saveBytes(t, b)) {
		t.Fatal("two builds of one dataset save different containers")
	}
	loaded := reloaded(t, a, data)
	for qi := 0; qi < 20; qi++ {
		q := g.GaussianVector(8)
		ra := must(a.SearchQuery(q, Query{K: 8, Budget: 64}, nil))
		for _, other := range []*Index{b, loaded} {
			rb := must(other.SearchQuery(q, Query{K: 8, Budget: 64}, nil))
			if len(ra) != len(rb) {
				t.Fatalf("query %d: lengths %d vs %d", qi, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("query %d pos %d: %+v vs %+v", qi, i, ra[i], rb[i])
				}
			}
		}
	}
}

func TestShardedGlobalIDs(t *testing.T) {
	// Every vector must be findable under its global id: searching for a
	// stored vector with a generous budget returns it at distance 0.
	data, _ := testData(73, 500, 8, 50, 0.3)
	sx, err := newSharded(data, Config{Metric: Euclidean, M: 32, Seed: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(data); id += 37 {
		res := must(sx.SearchQuery(data[id], Query{K: 1, Budget: 5 * len(data)}, nil))
		if len(res) != 1 || res[0].Dist != 0 {
			t.Fatalf("id %d: %+v", id, res)
		}
		if sx.Distance(data[res[0].ID], data[id]) != 0 {
			t.Fatalf("id %d: returned id %d is not an exact match", id, res[0].ID)
		}
	}
}

func TestShardedConfigAndEdgeCases(t *testing.T) {
	data, _ := testData(74, 40, 6, 4, 0.5)
	// More shards than vectors: capped so every shard is non-empty.
	sx, err := newSharded(data[:3], Config{Metric: Euclidean, M: 8, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 3 || sx.Len() != 3 {
		t.Fatalf("Shards=%d Len=%d", sx.Shards(), sx.Len())
	}
	if lx := reloaded(t, sx, data[:3]); lx.Shards() != 3 || lx.Len() != 3 {
		t.Fatalf("loaded: Shards=%d Len=%d", lx.Shards(), lx.Len())
	}
	sx, err = newSharded(data, Config{Metric: Euclidean, M: 8, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 2 || sx.M() != 8 || sx.Len() != 40 || sx.Bytes() <= 0 {
		t.Fatalf("Shards=%d M=%d Len=%d Bytes=%d", sx.Shards(), sx.M(), sx.Len(), sx.Bytes())
	}
	if sx.BuildTime() < 0 {
		t.Fatal("negative build time")
	}
	// Degenerate queries surface typed errors, never silent empties.
	if _, err := sx.Search(data[0], 0); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k=0: err=%v, want ErrInvalidK", err)
	}
	if _, err := sx.SearchQuery(data[0], Query{K: 3, Budget: -1}, nil); !errors.Is(err, ErrInvalidBudget) {
		t.Fatalf("lambda<0: err=%v, want ErrInvalidBudget", err)
	}
	// Errors propagate.
	if _, err := newSharded(nil, Config{Metric: Euclidean}, 2); err == nil {
		t.Fatal("empty dataset should fail")
	}
	if _, err := newSharded(data, Config{Metric: "nope"}, 2); err == nil {
		t.Fatal("unknown metric should fail")
	}
}

func TestShardOffsets(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []int
	}{
		{10, 1, []int{0, 10}},
		{10, 3, []int{0, 4, 7, 10}},
		{12, 4, []int{0, 3, 6, 9, 12}},
		{5, 5, []int{0, 1, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		got := splitOffsets(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("n=%d s=%d: %v", c.n, c.shards, got)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("n=%d s=%d: %v want %v", c.n, c.shards, got, c.want)
			}
		}
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	data, g := testData(76, 800, 10, 5, 0.5)
	sx, err := newSharded(data, Config{Metric: Euclidean, M: 16, Seed: 21}, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 4 || loaded.Len() != 800 || loaded.M() != 16 {
		t.Fatalf("shape after load: shards=%d len=%d m=%d", loaded.Shards(), loaded.Len(), loaded.M())
	}
	for qi := 0; qi < 10; qi++ {
		q := g.GaussianVector(10)
		a, b := must(sx.SearchQuery(q, Query{K: 5, Budget: 80}, nil)), must(loaded.SearchQuery(q, Query{K: 5, Budget: 80}, nil))
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestLoadShardedAcceptsFormat1: the format-1 golden — a single-index
// file with no shard table, as old releases wrote — opens through Load as
// one shard and answers as a one-shard build does. (TestContainerCompat
// checks it re-saves as the sharded kind.)
func TestLoadShardedAcceptsFormat1(t *testing.T) {
	data, cfg := goldenSetup()
	ix, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load("testdata/golden_pkg1.lccs", data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 1 || loaded.Len() != len(data) {
		t.Fatalf("format-1 file: shards=%d len=%d", loaded.Shards(), loaded.Len())
	}
	a, b := must(ix.SearchQuery(data[7], Query{K: 5, Budget: 60}, nil)), must(loaded.SearchQuery(data[7], Query{K: 5, Budget: 60}, nil))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pos %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLoadShardedRejectsCorruption(t *testing.T) {
	data, _ := testData(78, 300, 8, 4, 0.5)
	sx, err := newSharded(data, Config{Metric: Euclidean, M: 16, Seed: 23}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Truncations at several depths: mid-header, mid-shard-table,
	// mid-shard-blob. All must error, never panic.
	for _, frac := range []float64{0.001, 0.01, 0.3, 0.9} {
		cut := blob[:int(float64(len(blob))*frac)]
		if _, err := Load(write("cut.lccs", cut), data); err == nil {
			t.Fatalf("truncation at %.1f%% should fail", frac*100)
		}
	}
	// Corrupt shard count (bytes right after the config header).
	bad := append([]byte(nil), blob...)
	hdrEnd := len(pkgMagic) + 2 + 4 + len(Euclidean) + 3*8 + 8 + 8 // magic, kind, flags, config
	bad[hdrEnd] = 0xFF
	bad[hdrEnd+1] = 0xFF
	if _, err := Load(write("badcount.lccs", bad), data); err == nil {
		t.Fatal("corrupt shard count should fail")
	}
	// Corrupt a shard size entry.
	bad = append([]byte(nil), blob...)
	bad[hdrEnd+4] = 0xEE
	if _, err := Load(write("badsize.lccs", bad), data); err == nil {
		t.Fatal("corrupt shard size should fail")
	}
	// Wrong data slice fails the per-shard hash spot check.
	other, _ := testData(979, 300, 8, 4, 0.5)
	if _, err := Load(path, other); err == nil {
		t.Fatal("different data should fail")
	}
	if _, err := Load(path, nil); err == nil {
		t.Fatal("nil data should fail")
	}
	// Nil vectors (right length, zero dimension) must error, not panic
	// inside the LSH family constructor.
	if _, err := Load(path, make([][]float32, 300)); err == nil {
		t.Fatal("zero-dimensional data should fail")
	}
	if _, err := Load(filepath.Join(dir, "missing.lccs"), data); err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestSegmentsShareHashFunctions pins the invariant the set's one query
// leans on when it hashes q once for every segment: on every way a set
// comes to hold segments, each segment's H(q) equals segment 0's. The
// bucket width is left to be derived from the data, the case in which
// two builds could disagree.
func TestSegmentsShareHashFunctions(t *testing.T) {
	const n, dim = 600, 8
	data, g := testData(17, n+160, dim, 6, 1)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 9}
	queries := make([][]float32, 16)
	for i := range queries {
		queries[i] = g.UniformVector(dim, -12, 12)
	}
	check := func(name string, set *segSet, minSegs int) {
		t.Helper()
		if len(set.segs) < minSegs {
			t.Fatalf("%s: %d segments, want at least %d", name, len(set.segs), minSegs)
		}
		for qi, q := range queries {
			h0 := set.segs[0].core.HashQuery(q, nil)
			for i, seg := range set.segs[1:] {
				if h := seg.core.HashQuery(q, nil); !slices.Equal(h, h0) {
					t.Fatalf("%s query %d: segment %d hashes %v, segment 0 %v", name, qi, i+1, h, h0)
				}
			}
		}
	}

	one := must(newSharded(data[:n], cfg, 1))
	check("one segment", &one.segSet, 1)
	three := must(newSharded(data[:n], cfg, 3))
	check("three segments", &three.segSet, 3)
	path := filepath.Join(t.TempDir(), "three.lccs")
	if err := three.Save(path); err != nil {
		t.Fatal(err)
	}
	check("Load", &must(Load(path, data[:n])).segSet, 3)

	// Background builds from an empty start, then a buffered tail.
	d := must(NewDynamicIndex(nil, cfg, 128))
	for _, v := range data[:n] {
		must(d.Add(v))
		d.WaitRebuild()
	}
	check("DynamicIndex/background builds", &d.segSet, n/128)
	_, snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	check("Snapshot with a tail", &snap.segSet, n/128+1)
	from := NewDynamicIndexFrom(snap, 16)
	for _, v := range data[n:] {
		must(from.Add(v))
		from.WaitRebuild()
	}
	check("NewDynamicIndexFrom + background builds", &from.segSet, n/128+2)
	if err := d.Rebuild(); err != nil || d.Shards() != 1 {
		t.Fatalf("Rebuild: %d shards, err %v", d.Shards(), err)
	}
	for _, v := range data[n:] {
		must(d.Add(v))
	}
	d.WaitRebuild()
	check("Rebuild + background build", &d.segSet, 2)

	// A checkpoint of several segments, recovered, then written to again.
	dir := t.TempDir()
	dc := DurableConfig{Config: cfg, Sync: SyncNone, RebuildAt: 128}
	di := must(OpenDurable(dir, dc))
	for _, v := range data[:n] {
		must(di.Add(v))
		di.WaitRebuild()
	}
	if _, err := di.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	re := must(OpenDurable(dir, dc))
	defer re.Close()
	check("OpenDurable recovery", &re.segSet, n/128+1)
	for _, v := range data[n:] {
		must(re.Add(v))
	}
	re.WaitRebuild()
	check("OpenDurable recovery + writes", &re.segSet, n/128+2)
}
