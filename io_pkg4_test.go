package lccs

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenQuantizedSetup mirrors goldenSetup with SQ8 quantization turned
// on — the deterministic inputs behind testdata/golden_pkg4.lccs.
func goldenQuantizedSetup() ([][]float32, Config) {
	data, cfg := goldenSetup()
	cfg.Quantize = QuantizeSQ8
	cfg.Rerank = 24
	return data, cfg
}

// TestGoldenFormat4 pins the legacy quantized container: a format-4
// (LCCSPKG4) file keeps loading with its codebooks, codes, and re-rank
// depth intact and serves identical results to a fresh quantized build.
func TestGoldenFormat4(t *testing.T) {
	const path = "testdata/golden_pkg4.lccs"
	data, cfg := goldenQuantizedSetup()
	fresh, err := NewShardedIndex(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatalf("golden format-4 file no longer loads: %v", err)
	}
	if loaded.Shards() != 3 || loaded.Len() != len(data) {
		t.Fatalf("golden shape: shards=%d len=%d", loaded.Shards(), loaded.Len())
	}
	for s, seg := range loaded.segs {
		if seg.core.SQ8() == nil || seg.core.Rerank() != cfg.Rerank {
			t.Fatalf("shard %d quantization (%v, %d), want (sq8, %d)", s, seg.core.SQ8() != nil, seg.core.Rerank(), cfg.Rerank)
		}
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

// TestFormat4SingleRoundTrip pins a quantized one-shard Index through the
// public accessors: Load restores the quantized store with its re-rank
// depth and exact search parity.
func TestFormat4SingleRoundTrip(t *testing.T) {
	data, cfg := goldenQuantizedSetup()
	ix, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "single.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if kind, rerank := loaded.Quantization(); kind != QuantizeSQ8 || rerank != cfg.Rerank {
		t.Fatalf("loaded quantization (%q, %d), want (%q, %d)", kind, rerank, QuantizeSQ8, cfg.Rerank)
	}
	for qi := 0; qi < 10; qi++ {
		q := data[qi*11]
		a, b := must(ix.SearchQuery(q, Query{K: 5, Budget: 40}, nil)), must(loaded.SearchQuery(q, Query{K: 5, Budget: 40}, nil))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, j, a[j], b[j])
			}
		}
	}
}

// TestFormat4WithLifecycle pins the combination through the public
// surface: a quantized dynamic snapshot carrying tombstones writes one
// file holding both the lifecycle and the quantization section, and
// after a round trip no tombstone resurrects and the answers match.
func TestFormat4WithLifecycle(t *testing.T) {
	data, cfg := goldenQuantizedSetup()
	d, err := NewDynamicIndex(data, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 77} {
		if !d.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	vectors, sx, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sx.Deleted() != 2 {
		t.Fatalf("snapshot has %d tombstones, want 2", sx.Deleted())
	}
	path := filepath.Join(t.TempDir(), "quantlife.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, vectors)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Deleted() != 2 {
		t.Fatalf("loaded %d tombstones, want 2", loaded.Deleted())
	}
	if kind, _ := loaded.Quantization(); kind != QuantizeSQ8 {
		t.Fatalf("quantized lifecycle snapshot lost quantization (kind %q)", kind)
	}
	exhaustive := 4 * len(vectors)
	for _, deadID := range []int{3, 77} {
		for _, nb := range must(loaded.SearchQuery(vectors[deadID], Query{K: 10, Budget: exhaustive}, nil)) {
			if nb.ID == deadID {
				t.Fatalf("tombstone %d resurrected", deadID)
			}
		}
	}
	for qi := 0; qi < 10; qi++ {
		q := vectors[qi*13]
		a, b := must(sx.SearchQuery(q, Query{K: 5, Budget: exhaustive}, nil)), must(loaded.SearchQuery(q, Query{K: 5, Budget: exhaustive}, nil))
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, j, a[j], b[j])
			}
		}
	}
}

// TestFormat4CorruptQuantSection truncates and corrupts the quantization
// section and checks every damage pattern is an error, never a panic or a
// silently unquantized index.
func TestFormat4CorruptQuantSection(t *testing.T) {
	data, cfg := goldenQuantizedSetup()
	sx, err := NewShardedIndex(data, cfg, 3)
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
	// The file ends with the 16-byte empty attribute section; the
	// quantization section is everything in front of it.
	for _, cut := range []int{1, 7, 16, 17, 23, 80, 1040} {
		p := filepath.Join(dir, "cut.lccs")
		if err := os.WriteFile(p, blob[:len(blob)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p, data); err == nil {
			t.Fatalf("truncated quant section (-%d bytes) loaded", cut)
		}
	}
	// A corrupt container-kind byte (right after the magic) is rejected.
	bad := append([]byte(nil), blob...)
	bad[8] = 9
	p := filepath.Join(dir, "badkind.lccs")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p, data); err == nil {
		t.Fatal("corrupt container kind loaded")
	}
	// A flags byte naming a section this build does not know is rejected.
	bad = append([]byte(nil), blob...)
	bad[9] = 7
	p = filepath.Join(dir, "badflag.lccs")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p, data); err == nil {
		t.Fatal("unknown container flags loaded")
	}
}

// TestQuantizeConfigValidation pins the facade-level contract: SQ8 on a
// set metric and negative or unknown knobs are rejected up front.
func TestQuantizeConfigValidation(t *testing.T) {
	data, _ := testData(60, 100, 8, 4, 0.5)
	bin := make([][]float32, len(data))
	for i, v := range data {
		b := make([]float32, len(v))
		for j, x := range v {
			if x > 0 {
				b[j] = 1
			}
		}
		bin[i] = b
	}
	if _, err := NewIndex(bin, Config{Metric: Hamming, M: 16, Quantize: QuantizeSQ8}); err == nil {
		t.Fatal("SQ8 on hamming should fail")
	}
	if _, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Quantize: "pq"}); err == nil {
		t.Fatal("unknown quantization should fail")
	}
	if _, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Quantize: QuantizeSQ8, Rerank: -1}); err == nil {
		t.Fatal("negative rerank should fail")
	}
}
