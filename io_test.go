package lccs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lccs/internal/rng"
)

// updateGolden regenerates the committed golden index files:
//
//	go test -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden index files")

// goldenSetup returns the deterministic dataset and configs behind the
// committed golden files. Changing either invalidates the files — rerun
// with -update-golden and commit the result.
func goldenSetup() ([][]float32, Config) {
	data, _ := testData(88, 150, 8, 4, 0.5)
	return data, Config{Metric: Euclidean, M: 16, Budget: 40, Seed: 88}
}

// TestGoldenFormat1 pins the on-disk compatibility promise: a format-1
// (LCCSPKG1) file written by an old release keeps loading — through both
// Load and LoadSharded — and returns the exact neighbors a fresh build
// returns.
func TestGoldenFormat1(t *testing.T) {
	const path = "testdata/golden_pkg1.lccs"
	data, cfg := goldenSetup()
	fresh, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Save(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatalf("golden format-1 file no longer loads: %v", err)
	}
	if loaded.M() != fresh.M() || loaded.Len() != fresh.Len() {
		t.Fatalf("golden shape: m=%d n=%d", loaded.M(), loaded.Len())
	}
	for qi := 0; qi < 10; qi++ {
		q := data[qi*11]
		a, b := must(fresh.SearchQuery(q, Query{K: 5, Budget: 40}, nil)), must(loaded.SearchQuery(q, Query{K: 5, Budget: 40}, nil))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, j, a[j], b[j])
			}
		}
	}
	// The migration path: old single-index files open as one shard.
	wrapped, err := LoadSharded(path, data)
	if err != nil {
		t.Fatalf("LoadSharded on golden format-1 file: %v", err)
	}
	if wrapped.Shards() != 1 || wrapped.Len() != len(data) {
		t.Fatalf("wrapped golden: shards=%d len=%d", wrapped.Shards(), wrapped.Len())
	}
}

// TestGoldenFormat2 pins the sharded container format the same way.
func TestGoldenFormat2(t *testing.T) {
	const path = "testdata/golden_pkg2.lccs"
	data, cfg := goldenSetup()
	fresh, err := NewShardedIndex(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Save(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	loaded, err := LoadSharded(path, data)
	if err != nil {
		t.Fatalf("golden format-2 file no longer loads: %v", err)
	}
	if loaded.Shards() != 3 || loaded.Len() != len(data) {
		t.Fatalf("golden shape: shards=%d len=%d", loaded.Shards(), loaded.Len())
	}
	for qi := 0; qi < 10; qi++ {
		q := data[qi*7]
		a, b := must(fresh.SearchQuery(q, Query{K: 5, Budget: 40}, nil)), must(loaded.SearchQuery(q, Query{K: 5, Budget: 40}, nil))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, j, a[j], b[j])
			}
		}
	}
}

// goldenLifecycleIndex builds the deterministic dynamic index behind
// the format-3 golden file: deletes in the main shard and the buffer,
// plus post-delete inserts, so the snapshot carries a compacted id map
// and live tombstones.
func goldenLifecycleIndex(t *testing.T) ([][]float32, *ShardedIndex) {
	t.Helper()
	data, cfg := goldenSetup()
	d, err := NewDynamicIndex(data, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(123)
	var added []int
	for i := 0; i < 6; i++ {
		id, err := d.Add(g.GaussianVector(8))
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	for _, id := range []int{3, 77, added[0]} {
		if !d.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	vectors, sx, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sx.Deleted() != 2 || sx.ids == nil {
		t.Fatalf("golden setup: Deleted=%d ids=%v, want 2 tombstones and a compacted id map",
			sx.Deleted(), sx.ids)
	}
	return vectors, sx
}

// TestGoldenFormat3 pins the lifecycle container: a format-3 (LCCSPKG3)
// file keeps loading with its id map and tombstones intact, serves
// identical results to the in-memory snapshot, and never resurrects a
// deleted id.
func TestGoldenFormat3(t *testing.T) {
	const path = "testdata/golden_pkg3.lccs"
	vectors, fresh := goldenLifecycleIndex(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Save(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	loaded, err := LoadSharded(path, vectors)
	if err != nil {
		t.Fatalf("golden format-3 file no longer loads: %v", err)
	}
	if loaded.Len() != fresh.Len() || loaded.Deleted() != fresh.Deleted() {
		t.Fatalf("golden shape: len=%d deleted=%d, want %d/%d",
			loaded.Len(), loaded.Deleted(), fresh.Len(), fresh.Deleted())
	}
	exhaustive := 4 * len(vectors)
	for qi := 0; qi < 10; qi++ {
		q := vectors[qi*13]
		a, b := must(fresh.SearchQuery(q, Query{K: 5, Budget: exhaustive}, nil)), must(loaded.SearchQuery(q, Query{K: 5, Budget: exhaustive}, nil))
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, j, a[j], b[j])
			}
		}
	}
	for _, deadID := range []int{3, 77} {
		for _, nb := range must(loaded.SearchQuery(vectors[deadID], Query{K: 10, Budget: exhaustive}, nil)) {
			if nb.ID == deadID {
				t.Fatalf("golden tombstone %d resurrected", deadID)
			}
		}
	}
	// A format-3 file is a sharded container: the single-index loader
	// directs callers to LoadSharded.
	if _, err := Load(path, vectors); err == nil {
		t.Fatal("Load accepted a format-3 container")
	}
}

// TestGoldenReencodeByteIdentical pins the on-disk layout itself, not
// just loadability: re-saving an index loaded from a legacy golden file
// must reproduce the file byte for byte. This proves the flat
// structure-of-arrays decoder/encoder speaks exactly the legacy PKG1 and
// PKG2 stream layout (the m per-shift arrays of the old encoder and the
// single contiguous block of the new one are the same bytes).
func TestGoldenReencodeByteIdentical(t *testing.T) {
	data, _ := goldenSetup()
	dir := t.TempDir()

	orig1, err := os.ReadFile("testdata/golden_pkg1.lccs")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Load("testdata/golden_pkg1.lccs", data)
	if err != nil {
		t.Fatal(err)
	}
	resaved1 := filepath.Join(dir, "pkg1.lccs")
	if err := ix.Save(resaved1); err != nil {
		t.Fatal(err)
	}
	got1, err := os.ReadFile(resaved1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig1, got1) {
		t.Fatalf("format-1 re-encode differs from golden: %d vs %d bytes", len(got1), len(orig1))
	}

	orig2, err := os.ReadFile("testdata/golden_pkg2.lccs")
	if err != nil {
		t.Fatal(err)
	}
	sx, err := LoadSharded("testdata/golden_pkg2.lccs", data)
	if err != nil {
		t.Fatal(err)
	}
	resaved2 := filepath.Join(dir, "pkg2.lccs")
	if err := sx.Save(resaved2); err != nil {
		t.Fatal(err)
	}
	got2, err := os.ReadFile(resaved2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig2, got2) {
		t.Fatalf("format-2 re-encode differs from golden: %d vs %d bytes", len(got2), len(orig2))
	}

	// Format 3: the lifecycle tail (id map + sorted tombstones) encodes
	// deterministically, so load → re-save is also byte-identical.
	vectors, _ := goldenLifecycleIndex(t)
	orig3, err := os.ReadFile("testdata/golden_pkg3.lccs")
	if err != nil {
		t.Fatal(err)
	}
	sx3, err := LoadSharded("testdata/golden_pkg3.lccs", vectors)
	if err != nil {
		t.Fatal(err)
	}
	resaved3 := filepath.Join(dir, "pkg3.lccs")
	if err := sx3.Save(resaved3); err != nil {
		t.Fatal(err)
	}
	got3, err := os.ReadFile(resaved3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig3, got3) {
		t.Fatalf("format-3 re-encode differs from golden: %d vs %d bytes", len(got3), len(orig3))
	}
}

// TestSaveWithoutLifecycleStaysFormat2 pins the compatibility promise
// from the other side: a snapshot with no deletion state writes the
// exact format-2 container older readers understand.
func TestSaveWithoutLifecycleStaysFormat2(t *testing.T) {
	data, cfg := goldenSetup()
	d, err := NewDynamicIndex(data, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	vectors, sx, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clean.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:8]) != "LCCSPKG2" {
		t.Fatalf("clean snapshot wrote magic %q, want LCCSPKG2", blob[:8])
	}
	if _, err := LoadSharded(path, vectors); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCorruptedLifecycleSection flips bytes across the format-3
// lifecycle tail (id-map flag, watermark, counts, ids) and checks every
// corruption fails loudly.
func TestLoadCorruptedLifecycleSection(t *testing.T) {
	vectors, sx := goldenLifecycleIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "pkg3.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The lifecycle section is the file tail: flag(1) + next(8) +
	// idCount(8) + ids + deadCount(8) + dead ids. Truncations anywhere
	// inside it must fail.
	tail := 1 + 8 + 8 + 8*len(vectors) + 8 + 8*sx.Deleted()
	for _, cut := range []int{tail, tail - 5, 9, 1} {
		p := filepath.Join(dir, "cut.lccs")
		if err := os.WriteFile(p, blob[:len(blob)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSharded(p, vectors); err == nil {
			t.Fatalf("truncated lifecycle (-%d bytes) loaded", cut)
		}
	}
	// A corrupt flag byte is rejected.
	bad := append([]byte(nil), blob...)
	bad[len(blob)-tail] = 7
	p := filepath.Join(dir, "badflag.lccs")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(p, vectors); err == nil {
		t.Fatal("corrupt id-map flag loaded")
	}
	// A tombstone id that resolves to no slot is rejected.
	bad = append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		bad[len(blob)-8+i] = 0xFF // last dead id → garbage
	}
	p = filepath.Join(dir, "badtomb.lccs")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(p, vectors); err == nil {
		t.Fatal("unresolvable tombstone id loaded")
	}
}

// TestFormat1WarmRestartDoesNotMutateLoadedIndex pins the store-view
// contract across the format-1 warm-restart chain: LoadSharded wraps a
// single-index file as one shard, NewDynamicIndexFromSharded adopts its
// store, and Adds to the dynamic index must grow a private copy — the
// loaded index keeps its original length and the snapshot of the grown
// dynamic index must round-trip.
func TestFormat1WarmRestartDoesNotMutateLoadedIndex(t *testing.T) {
	data, _ := testData(51, 200, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "single.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	sx, err := LoadSharded(path, data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicIndexFromSharded(sx, data, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add([]float32{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if got := sx.Len(); got != len(data) {
		t.Fatalf("loaded index grew with the dynamic store: Len=%d, want %d", got, len(data))
	}
	shard, _ := sx.Shard(0)
	if got := shard.Len(); got != len(data) {
		t.Fatalf("loaded shard grew with the dynamic store: Len=%d, want %d", got, len(data))
	}
	vecs, snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "snap.lccs")
	if err := snap.Save(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(snapPath, vecs); err != nil {
		t.Fatalf("snapshot after warm-restart Add does not reload: %v", err)
	}
}

// TestLoadCorruptedHeaderBytes flips bytes inside the format-1 header
// region and checks every corruption is reported as an error — never a
// panic or a silently wrong index.
func TestLoadCorruptedHeaderBytes(t *testing.T) {
	data, _ := testData(37, 200, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header = magic(8) + metric len(4)/str + [M,Probes,Budget] int64 +
	// bucket width float64 + seed uint64. Flips in Probes or Budget yield
	// a coherent-but-different config that legitimately loads, so the
	// test targets the regions the loader must verify: the magic, the
	// metric, the M field (cross-checked against the core index), and
	// the seed (caught by the hash-string spot check).
	metricEnd := 8 + 4 + len(Euclidean)
	headerLen := metricEnd + 3*8 + 8 + 8
	var offsets []int
	for off := 0; off < metricEnd+8; off++ {
		offsets = append(offsets, off) // magic, metric, M
	}
	for off := headerLen - 8; off < headerLen; off++ {
		offsets = append(offsets, off) // seed
	}
	for _, off := range offsets {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0xA5
		p := filepath.Join(dir, "bad.lccs")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(p, data)
		if err == nil {
			t.Fatalf("byte flip at offset %d loaded without error (%v)", off, loaded.cfg)
		}
	}
}

func TestSaveLoadRoundTripEuclidean(t *testing.T) {
	data, _ := testData(31, 600, 12, 6, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M() != ix.M() || loaded.Len() != ix.Len() {
		t.Fatalf("shape mismatch after load: m=%d n=%d", loaded.M(), loaded.Len())
	}
	// Identical queries must produce identical results (same seed, same
	// CSA).
	for i := 0; i < 10; i++ {
		q := data[i*37]
		a := must(ix.SearchQuery(q, Query{K: 5, Budget: 50}, nil))
		b := must(loaded.SearchQuery(q, Query{K: 5, Budget: 50}, nil))
		if len(a) != len(b) {
			t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("result %d differs: %+v vs %+v", j, a[j], b[j])
			}
		}
	}
}

func TestSaveLoadMultiProbe(t *testing.T) {
	data, _ := testData(32, 400, 10, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Probes: 17, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mp.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.core.Probes() != ix.core.Probes() || loaded.core.Probes() <= 1 {
		t.Fatal("multi-probe configuration lost on load")
	}
	q := data[3]
	a, b := must(ix.Search(q, 5)), must(loaded.Search(q, 5))
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("MP results differ after load: %+v vs %+v", a[j], b[j])
		}
	}
}

func TestSaveLoadAngularAndHamming(t *testing.T) {
	data, _ := testData(33, 300, 16, 4, 0.5)
	for _, metric := range []MetricKind{Angular, Hamming} {
		d := data
		if metric == Hamming {
			// Binarize.
			d = make([][]float32, len(data))
			for i, v := range data {
				b := make([]float32, len(v))
				for j, x := range v {
					if x > 0 {
						b[j] = 1
					}
				}
				d[i] = b
			}
		}
		ix, err := NewIndex(d, Config{Metric: metric, M: 24, Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		path := filepath.Join(t.TempDir(), string(metric)+".lccs")
		if err := ix.Save(path); err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		loaded, err := Load(path, d)
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		a, b := must(ix.SearchQuery(d[0], Query{K: 3, Budget: 30}, nil)), must(loaded.SearchQuery(d[0], Query{K: 3, Budget: 30}, nil))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: results differ", metric)
			}
		}
	}
}

func TestLoadRejectsWrongData(t *testing.T) {
	data, _ := testData(34, 300, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	// Different dataset of the same shape: the hash-string spot check
	// must fail.
	other, _ := testData(99, 300, 8, 4, 0.5)
	if _, err := Load(path, other); err == nil {
		t.Fatal("loading with different data should fail")
	}
	// Different length fails at the header check.
	if _, err := Load(path, data[:100]); err == nil {
		t.Fatal("loading with truncated data should fail")
	}
	if _, err := Load(path, nil); err == nil {
		t.Fatal("loading with nil data should fail")
	}
	if _, err := Load(path, make([][]float32, 300)); err == nil {
		t.Fatal("loading with zero-dimensional data should fail")
	}
}

func TestLoadRejectsGarbageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.lccs")
	if err := os.WriteFile(path, []byte("this is not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ := testData(35, 10, 4, 2, 0.5)
	if _, err := Load(path, data); err == nil {
		t.Fatal("garbage file should fail")
	}
	if _, err := Load(filepath.Join(dir, "missing.lccs"), data); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	data, _ := testData(36, 200, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "full.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := filepath.Join(dir, "cut.lccs")
		if err := os.WriteFile(cut, blob[:int(float64(len(blob))*frac)], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(cut, data); err == nil {
			t.Fatalf("truncated file (%.0f%%) should fail", frac*100)
		}
	}
}

// goldenAttrsRows returns the deterministic metadata behind the
// format-5 golden file: color cycles three values, price is the row
// index, every 7th row carries nothing.
func goldenAttrsRows(n int) []Attrs {
	colors := []string{"red", "green", "blue"}
	rows := make([]Attrs, n)
	for i := range rows {
		if i%7 == 6 {
			continue
		}
		rows[i] = Attrs{
			"color": StrAttr(colors[i%3]),
			"price": IntAttr(int64(i)),
		}
	}
	return rows
}

// TestGoldenFormat5 pins the metadata container: a format-5 (LCCSPKG5)
// file keeps loading with its attribute rows intact, serves identical
// filtered results to a fresh build, and re-saves byte for byte.
func TestGoldenFormat5(t *testing.T) {
	const path = "testdata/golden_pkg5.lccs"
	data, cfg := goldenSetup()
	attrs := goldenAttrsRows(len(data))
	fresh, err := NewShardedIndexWithAttrs(data, attrs, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Save(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:8]) != "LCCSPKG5" {
		t.Fatalf("golden file has magic %q, want LCCSPKG5", blob[:8])
	}
	loaded, err := LoadSharded(path, data)
	if err != nil {
		t.Fatalf("golden format-5 file no longer loads: %v", err)
	}
	for i := range data {
		if !loaded.Attrs(i).Equal(attrs[i]) {
			t.Fatalf("attrs(%d) = %v, want %v", i, loaded.Attrs(i), attrs[i])
		}
	}
	f := &Filter{Terms: []FilterTerm{EqStr("color", "red")}}
	for qi := 0; qi < 10; qi++ {
		q := data[qi*7]
		a, err := fresh.SearchQuery(q, Query{K: 5, Budget: len(data), Filter: f}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.SearchQuery(q, Query{K: 5, Budget: len(data), Filter: f}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !neighborsEqual(a, b) {
			t.Fatalf("query %d: %v vs %v", qi, a, b)
		}
	}
	// Re-saving the loaded index reproduces the file byte for byte.
	resaved := filepath.Join(t.TempDir(), "pkg5.lccs")
	if err := loaded.Save(resaved); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, got) {
		t.Fatalf("format-5 re-encode differs from golden: %d vs %d bytes", len(got), len(blob))
	}
	// A sharded format-5 container is rejected by the single loader.
	if _, err := Load(path, data); err == nil {
		t.Fatal("Load accepted a sharded format-5 container")
	}
}

// TestFormat5SingleRoundTrip checks the single-Index side of format 5,
// including the LoadSharded migration path carrying the metadata along.
func TestFormat5SingleRoundTrip(t *testing.T) {
	data, cfg := goldenSetup()
	attrs := goldenAttrsRows(len(data))
	ix, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "single.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:8]) != "LCCSPKG5" {
		t.Fatalf("single index with attrs wrote magic %q, want LCCSPKG5", blob[:8])
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !loaded.Attrs(i).Equal(attrs[i]) {
			t.Fatalf("attrs(%d) = %v, want %v", i, loaded.Attrs(i), attrs[i])
		}
	}
	f := &Filter{Terms: []FilterTerm{EqInt("price", 33)}}
	a, err := ix.SearchQuery(data[0], Query{K: 3, Budget: len(data), Filter: f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.SearchQuery(data[0], Query{K: 3, Budget: len(data), Filter: f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !neighborsEqual(a, b) {
		t.Fatalf("filtered search differs after load: %v vs %v", a, b)
	}
	// The migration path keeps the metadata.
	wrapped, err := LoadSharded(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if !wrapped.Attrs(10).Equal(attrs[10]) {
		t.Fatalf("wrapped attrs(10) = %v, want %v", wrapped.Attrs(10), attrs[10])
	}
	// Truncations inside the attribute tail must fail loudly.
	dir := t.TempDir()
	for _, cut := range []int{1, 8, 17} {
		p := filepath.Join(dir, "cut.lccs")
		if err := os.WriteFile(p, blob[:len(blob)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p, data); err == nil {
			t.Fatalf("truncated attribute section (-%d bytes) loaded", cut)
		}
	}
}

// TestSaveWithoutAttrsKeepsLegacyFormats pins the compatibility promise
// from the other side: indexes whose rows carry no metadata keep writing
// the exact legacy containers older readers understand.
func TestSaveWithoutAttrsKeepsLegacyFormats(t *testing.T) {
	data, cfg := goldenSetup()
	// All-nil attribute rows count as "no metadata".
	ix, err := NewIndexWithAttrs(data, make([]Attrs, len(data)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:8]) != "LCCSPKG1" {
		t.Fatalf("attr-free index wrote magic %q, want LCCSPKG1", blob[:8])
	}
}
