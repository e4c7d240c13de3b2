package lccs

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lccs/internal/rng"
)

// updateGolden regenerates the golden files this build can still write
// — golden_pkg5.lccs, the one layout Save emits, and the unsorted-CSA
// fuzz seed derived from golden_pkg2:
//
//	go test -run 'TestGolden|TestLoadRejectsUnsortedCSA' -update-golden
//
// golden_pkg1…4.lccs are read-only fixtures written by earlier releases;
// nothing regenerates them.
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden index files")

// goldenSetup returns the deterministic dataset and configs behind the
// committed golden files. Changing either invalidates the files.
func goldenSetup() ([][]float32, Config) {
	data, _ := testData(88, 150, 8, 4, 0.5)
	return data, Config{Metric: Euclidean, M: 16, Budget: 40, Seed: 88}
}

// TestGoldenFormat1 pins the on-disk compatibility promise: a format-1
// (LCCSPKG1) file written by an old release keeps loading, as one shard,
// and returns the exact neighbors a fresh build returns.
func TestGoldenFormat1(t *testing.T) {
	const path = "testdata/golden_pkg1.lccs"
	data, cfg := goldenSetup()
	fresh, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatalf("golden format-1 file no longer loads: %v", err)
	}
	if loaded.M() != fresh.M() || loaded.Len() != fresh.Len() || loaded.Shards() != 1 {
		t.Fatalf("golden shape: m=%d n=%d shards=%d", loaded.M(), loaded.Len(), loaded.Shards())
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
}

// TestGoldenFormat2 pins the sharded container format the same way.
func TestGoldenFormat2(t *testing.T) {
	const path = "testdata/golden_pkg2.lccs"
	data, cfg := goldenSetup()
	fresh, err := newSharded(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
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
func goldenLifecycleIndex(t *testing.T) ([][]float32, *Index) {
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
	loaded, err := Load(path, vectors)
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
}

// TestGoldenReencodeByteIdentical pins the on-disk layout itself, not
// just loadability: re-saving the index loaded from golden_pkg5.lccs —
// the golden in the one layout Save writes — must reproduce the file
// byte for byte. (The four legacy goldens re-save in that layout too,
// so their bytes change by design; TestContainerCompat pins what they
// become.)
func TestGoldenReencodeByteIdentical(t *testing.T) {
	const path = "testdata/golden_pkg5.lccs"
	data, _ := goldenSetup()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, sx); !bytes.Equal(golden, got) {
		t.Fatalf("re-encode differs from golden: %d vs %d bytes", len(got), len(golden))
	}
}

// saveBytes saves ix to a scratch file and returns the file's bytes.
func saveBytes(t *testing.T, ix interface{ Save(string) error }) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "saved.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// containerState is everything a container must carry across a
// save/load cycle, in comparable form.
type containerState struct {
	Shards, Len int
	Results     [][]Neighbor // default-budget and exhaustive answers to fixed queries
	Dead        []int        // tombstoned slots, ascending
	IDs         []int        // slot-ordered external ids; nil for the identity map
	NextID      int
	Attrs       []Attrs // one per slot, nil where the slot has none
}

// stateOf extracts the containerState of a loaded or built index over
// its slot-ordered vectors.
func stateOf(t *testing.T, ix *Index, vectors [][]float32) containerState {
	t.Helper()
	st := containerState{Shards: ix.Shards(), Len: ix.Len()}
	ix.dead.Each(func(slot int) { st.Dead = append(st.Dead, slot) })
	if ix.ids != nil {
		st.IDs, st.NextID = ix.ids.AppendIDs(nil), ix.ids.Next()
	}
	for slot := range vectors {
		a := ix.attrRow(slot)
		if len(a) == 0 {
			a = nil
		}
		st.Attrs = append(st.Attrs, a)
	}
	for qi := 0; qi < 10; qi++ {
		q := vectors[qi*13]
		st.Results = append(st.Results,
			must(ix.SearchQuery(q, Query{K: 5, Budget: 40}, nil)),
			must(ix.SearchQuery(q, Query{K: 5, Budget: 4 * len(vectors)}, nil)))
	}
	return st
}

// checkOneLayout saves ix, checks the file is the one layout with the
// given flags byte, reloads it, and checks the reloaded index carries the
// same state and saves to the same bytes.
func checkOneLayout(t *testing.T, ix *Index, vectors [][]float32, flags byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("LCCSPKG5"), containerSharded, flags); !bytes.HasPrefix(first, want) {
		t.Fatalf("saved header %q, want %q", first[:10], want)
	}
	reloaded, err := Load(path, vectors)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if want, got := stateOf(t, ix, vectors), stateOf(t, reloaded, vectors); !reflect.DeepEqual(want, got) {
		t.Fatalf("state changed across save/load:\nsaved  %+v\nloaded %+v", want, got)
	}
	if second := saveBytes(t, reloaded); !bytes.Equal(first, second) {
		t.Fatalf("second save differs from the first: %d vs %d bytes", len(second), len(first))
	}
}

// singleKind rewrites a one-shard file Save wrote into the single kind an
// earlier Index.Save wrote: kind byte 1 and no shard table (a 4-byte count
// and one 8-byte size after the config).
func singleKind(t *testing.T, blob []byte, cfg Config) []byte {
	t.Helper()
	table := len(pkgMagic) + 2 + 4 + len(cfg.Metric) + 3*8 + 8 + 8
	if blob[8] != containerSharded || binary.LittleEndian.Uint32(blob[table:]) != 1 {
		t.Fatalf("singleKind: not a one-shard file (kind %d)", blob[8])
	}
	out := append([]byte(nil), blob[:table]...)
	out[8] = containerSingle
	return append(out, blob[table+12:]...)
}

// TestContainerCompat is the container's compatibility table. Read side:
// each of the five golden files — one per magic ever written — loads
// through Load, re-saves as the one layout, and reloads to the same
// results, tombstones, id map and attribute rows, after which saving is a
// fixed point. Write side: every combination of shard count and optional
// section writes that one layout and round-trips the same way, and a
// one-shard index rewritten into the single kind an earlier Index.Save
// wrote loads back to the same state and bytes. The sq8 rows rewrite each
// file into the one Save wrote while the index verified with SQ8
// (withQuantSection), which loads as the exact index: the same state, and
// the bytes Save now writes.
func TestContainerCompat(t *testing.T) {
	data, cfg := goldenSetup()
	lifeVectors, _ := goldenLifecycleIndex(t)
	goldens := []struct {
		file    string
		vectors [][]float32
		flags   byte
	}{
		{"golden_pkg1.lccs", data, 0},
		{"golden_pkg2.lccs", data, 0},
		{"golden_pkg3.lccs", lifeVectors, flagLifecycle},
		{"golden_pkg4.lccs", data, 0},
		{"golden_pkg5.lccs", data, 0},
	}
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			ix, err := Load(filepath.Join("testdata", g.file), g.vectors)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			checkOneLayout(t, ix, g.vectors, g.flags)
		})
	}

	attrs := goldenAttrsRows(len(data))
	for _, quantized := range []bool{false, true} {
		for _, withAttrs := range []bool{false, true} {
			name, rows := "plain", []Attrs(nil)
			if quantized {
				name = "sq8"
			}
			if withAttrs {
				name, rows = name+"+attrs", attrs
			}
			t.Run("Index/"+name, func(t *testing.T) {
				ix, err := NewIndexWithAttrs(data, rows, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkOneLayout(t, ix, data, 0)
				blob := saveBytes(t, ix)
				written := blob // the file the single kind is made from
				if quantized {
					written = withQuantSection(t, ix, blob)
					loadsAs(t, ix, data, written)
				}
				if !withAttrs {
					// No metadata is 16 zero bytes, and all-nil attribute rows
					// count as no metadata.
					if !bytes.HasSuffix(blob, make([]byte, 16)) {
						t.Fatalf("attribute-free file ends %x, want the empty attribute section", blob[len(blob)-16:])
					}
					nilRows, err := NewIndexWithAttrs(data, make([]Attrs, len(data)), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blob, saveBytes(t, nilRows)) {
						t.Fatal("all-nil attribute rows write different bytes than no rows")
					}
				}
				// The single kind opens as one shard with everything it
				// carries and re-saves as the sharded kind.
				path := filepath.Join(t.TempDir(), "single.lccs")
				if err := os.WriteFile(path, singleKind(t, written, cfg), 0o644); err != nil {
					t.Fatal(err)
				}
				old, err := Load(path, data)
				if err != nil {
					t.Fatal(err)
				}
				if want, got := stateOf(t, ix, data), stateOf(t, old, data); !reflect.DeepEqual(want, got) {
					t.Fatalf("single-kind load differs:\nsaved  %+v\nloaded %+v", want, got)
				}
				if !bytes.Equal(blob, saveBytes(t, old)) {
					t.Fatal("a single-kind file re-saves differently from the index it was written from")
				}
			})
			t.Run("ShardedIndex/"+name, func(t *testing.T) {
				sx, err := newShardedWithAttrs(data, rows, cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				checkOneLayout(t, sx, data, 0)
				if quantized {
					loadsAs(t, sx, data, withQuantSection(t, sx, saveBytes(t, sx)))
				}
			})
			t.Run("ShardedIndex/lifecycle+"+name, func(t *testing.T) {
				// A dynamic snapshot with deletes inside a shard and a
				// compacted buffer: tombstones and a non-identity id map.
				d, err := NewDynamicIndex(data[:140], cfg, 10000)
				if err != nil {
					t.Fatal(err)
				}
				for i := 140; i < len(data); i++ {
					var a Attrs
					if withAttrs {
						a = rows[i]
					}
					if _, err := d.AddWithAttrs(data[i], a); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []int{3, 77, 141} {
					if !d.Delete(id) {
						t.Fatalf("delete %d failed", id)
					}
				}
				vectors, sx, err := d.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if sx.Deleted() != 2 || sx.ids == nil {
					t.Fatalf("setup: Deleted=%d ids=%v, want 2 tombstones and a compacted id map", sx.Deleted(), sx.ids)
				}
				checkOneLayout(t, sx, vectors, flagLifecycle)
				if quantized {
					loadsAs(t, sx, vectors, withQuantSection(t, sx, saveBytes(t, sx)))
				}
			})
		}
	}
}

// TestLoadCorruptedLifecycleSection flips bytes across the lifecycle
// section (id-map flag, watermark, counts, ids) and checks every
// corruption fails loudly.
func TestLoadCorruptedLifecycleSection(t *testing.T) {
	vectors, sx := goldenLifecycleIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "life.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The lifecycle section — flag(1) + next(8) + idCount(8) + ids +
	// deadCount(8) + dead ids — sits in front of the 16-byte empty
	// attribute section that ends the file. Truncations anywhere inside
	// either must fail.
	const attrsTail = 16
	tail := attrsTail + 1 + 8 + 8 + 8*len(vectors) + 8 + 8*sx.Deleted()
	for _, cut := range []int{tail, tail - 5, attrsTail + 9, attrsTail + 1, attrsTail, 1} {
		p := filepath.Join(dir, "cut.lccs")
		if err := os.WriteFile(p, blob[:len(blob)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p, vectors); err == nil {
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
	if _, err := Load(p, vectors); err == nil {
		t.Fatal("corrupt id-map flag loaded")
	}
	// A tombstone id that resolves to no slot is rejected.
	bad = append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		bad[len(blob)-attrsTail-8+i] = 0xFF // last dead id → garbage
	}
	p = filepath.Join(dir, "badtomb.lccs")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p, vectors); err == nil {
		t.Fatal("unresolvable tombstone id loaded")
	}
}

// TestFormat1WarmRestartDoesNotMutateLoadedIndex pins the store-view
// contract across the one-shard warm-restart chain: Load opens a
// one-shard file, NewDynamicIndexFrom adopts its shard and the rows it
// verifies against, and Adds to the dynamic index go to a buffer block of
// its own — the loaded index keeps its original length and the snapshot
// of the grown dynamic index must round-trip.
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
	sx, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamicIndexFrom(sx, 64)
	if _, err := d.Add([]float32{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if got := sx.Len(); got != len(data) {
		t.Fatalf("loaded index grew with the dynamic store: Len=%d, want %d", got, len(data))
	}
	vecs, snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "snap.lccs")
	if err := snap.Save(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(snapPath, vecs); err != nil {
		t.Fatalf("snapshot after warm-restart Add does not reload: %v", err)
	}
}

// TestLoadCorruptedHeaderBytes flips bytes inside the header region and checks every corruption is reported as an error — never a
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
	// Header = magic(8) + kind(1) + flags(1) + metric len(4)/str +
	// [M,probes slot,Budget] int64 + bucket width float64 + seed uint64.
	// Flips in the probes slot or Budget yield a coherent-but-different
	// config that legitimately loads, so the test targets the regions the loader must
	// verify: the magic, the kind and flags bytes, the metric, the M
	// field (cross-checked against the core index), and the seed (caught
	// by the hash-string spot check).
	metricEnd := 8 + 2 + 4 + len(Euclidean)
	headerLen := metricEnd + 3*8 + 8 + 8
	var offsets []int
	for off := 0; off < metricEnd+8; off++ {
		offsets = append(offsets, off) // magic, kind, flags, metric, M
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

// TestSaveLoadMultiProbe pins the read-only shim for files saved while the
// facade offered multi-probe querying, when the config's probes slot held
// the probe count: such a file loads as the single-probe index over the
// same CSA — the answers of the same file with the slot at 0 — and saves
// back with the slot at 0, the same bytes. A negative slot is corruption
// and is refused.
func TestSaveLoadMultiProbe(t *testing.T) {
	data, _ := goldenSetup()
	dir := t.TempDir()
	for _, g := range []struct {
		file     string
		configAt int // the magic, then format 5's kind and flags bytes
	}{
		{"golden_pkg1.lccs", 8},
		{"golden_pkg5.lccs", 10},
	} {
		golden, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		probesAt := g.configAt + 4 + len(Euclidean) + 8 // metric length, metric, m
		if slot := binary.LittleEndian.Uint64(golden[probesAt:]); slot != 0 {
			t.Fatalf("%s: probes slot holds %d, want 0", g.file, slot)
		}
		withProbes := func(probes int64) string {
			blob := append([]byte(nil), golden...)
			binary.LittleEndian.PutUint64(blob[probesAt:], uint64(probes))
			path := filepath.Join(dir, fmt.Sprintf("probes%d-%s", probes, g.file))
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		want := must(Load(filepath.Join("testdata", g.file), data))
		got, err := Load(withProbes(17), data)
		if err != nil {
			t.Fatalf("%s with probes=17: %v", g.file, err)
		}
		for qi := 0; qi < 10; qi++ {
			q := data[qi*13]
			for _, budget := range []int{40, 4 * len(data)} {
				a := must(want.SearchQuery(q, Query{K: 5, Budget: budget}, nil))
				b := must(got.SearchQuery(q, Query{K: 5, Budget: budget}, nil))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s, query %d, λ=%d: probes=17 answers %+v, the golden %+v", g.file, qi, budget, b, a)
				}
			}
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
			t.Fatalf("%s: the probes=17 file re-saves differently from the golden", g.file)
		}
		if _, err := Load(withProbes(-1), data); err == nil {
			t.Fatalf("%s: a negative probes slot loaded", g.file)
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

// TestGoldenFormat5 pins the one layout Save writes, on an index that
// carries metadata: golden_pkg5.lccs keeps loading with its attribute
// rows intact and serves identical filtered results to a fresh build
// (TestGoldenReencodeByteIdentical pins its bytes).
func TestGoldenFormat5(t *testing.T) {
	const path = "testdata/golden_pkg5.lccs"
	data, cfg := goldenSetup()
	attrs := goldenAttrsRows(len(data))
	fresh, err := newShardedWithAttrs(data, attrs, cfg, 3)
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
	loaded, err := Load(path, data)
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
}

// TestFormat5SingleRoundTrip checks a one-shard Index with metadata
// through the public accessors: attribute rows, a filtered search, and
// truncations inside the attribute section.
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
