package lccs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Files written while the facade verified with SQ8 carry a quantization
// section (format 4, or format 5 with flagQuantized): the quantizer name,
// the re-rank depth and an SQ8 mirror of each shard's rows. They load as
// the exact index over the same CSA. These tests pin that, and that the
// section is still checked as strictly as when it was read.

// legacyRerank is the re-rank depth the hand-made legacy sections carry,
// the one testdata/golden_pkg4.lccs was written with.
const legacyRerank = 24

// legacyQuantSection returns the quantization section Save wrote for ix
// while it verified with SQ8: quantizer "sq8", the re-rank depth, then for
// each shard its rows×dim header, codebook (min and scale), row norms and
// codes. The reader discards everything past the header checks, so the
// payload here is zeros.
func legacyQuantSection(ix *Index) []byte {
	var b bytes.Buffer
	le := binary.LittleEndian
	binary.Write(&b, le, int32(len("sq8")))
	b.WriteString("sq8")
	binary.Write(&b, le, int64(legacyRerank))
	dim := ix.Dim()
	for _, seg := range ix.segs {
		rows := seg.core.N()
		binary.Write(&b, le, [2]int64{int64(rows), int64(dim)})
		b.Write(make([]byte, 4*(2*dim+rows)+rows*dim))
	}
	return b.Bytes()
}

// withQuantSection rewrites blob, the format-5 file Save wrote for ix,
// into the one it wrote while ix verified with SQ8: flagQuantized set and
// the quantization section in front of the attribute section.
func withQuantSection(t *testing.T, ix *Index, blob []byte) []byte {
	t.Helper()
	var attrs bytes.Buffer
	if err := ix.encodeAttrsSection(&attrs); err != nil {
		t.Fatal(err)
	}
	at := len(blob) - attrs.Len()
	out := append([]byte(nil), blob[:at]...)
	out[9] |= flagQuantized
	out = append(out, legacyQuantSection(ix)...)
	return append(out, blob[at:]...)
}

// asFormat4 rewrites blob, an attribute-free file Save wrote for ix (of
// either kind, see singleKind), into the format-4 file written for ix
// while it verified with SQ8: magic LCCSPKG4, the kind byte, on the
// sharded kind the lifecycle byte, the body, and the quantization section
// where format 5 has its attribute section.
func asFormat4(t *testing.T, ix *Index, blob []byte) []byte {
	t.Helper()
	if !bytes.HasSuffix(blob, make([]byte, 16)) || blob[9]&^flagLifecycle != 0 {
		t.Fatalf("asFormat4: the file carries attributes or flags %#x", blob[9])
	}
	out := append([]byte("LCCSPKG4"), blob[8])
	if blob[8] == containerSharded {
		out = append(out, blob[9])
	}
	out = append(out, blob[10:len(blob)-16]...)
	return append(out, legacyQuantSection(ix)...)
}

// loadBlob writes blob to a scratch file and loads it over vectors.
func loadBlob(t *testing.T, blob []byte, vectors [][]float32) (*Index, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "legacy.lccs")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return Load(path, vectors)
}

// loadsAs checks that legacy, a file written for ix while ix verified
// with SQ8, loads to ix's state over vectors (stateOf: answers, tombstones,
// id map, attribute rows) and re-saves to the bytes ix saves, and returns
// the loaded index.
func loadsAs(t *testing.T, ix *Index, vectors [][]float32, legacy []byte) *Index {
	t.Helper()
	loaded, err := loadBlob(t, legacy, vectors)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if want, got := stateOf(t, ix, vectors), stateOf(t, loaded, vectors); !reflect.DeepEqual(want, got) {
		t.Fatalf("state changed across the quantization section:\nsaved  %+v\nloaded %+v", want, got)
	}
	if !bytes.Equal(saveBytes(t, ix), saveBytes(t, loaded)) {
		t.Fatal("a file with a quantization section re-saves differently from the index it was written for")
	}
	return loaded
}

// TestGoldenFormat4 pins the legacy quantized container: a format-4
// (LCCSPKG4) file written with SQ8 loads with its 3 shards as the exact
// index a fresh build makes, answers like it, and re-saves to its bytes.
func TestGoldenFormat4(t *testing.T) {
	data, cfg := goldenSetup()
	fresh, err := newSharded(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/golden_pkg4.lccs")
	if err != nil {
		t.Fatal(err)
	}
	if loaded := loadsAs(t, fresh, data, golden); loaded.Shards() != 3 {
		t.Fatalf("golden format-4 file loaded as %d shards", loaded.Shards())
	}
}

// TestFormat4SingleRoundTrip pins the single kind of format 4 (kind byte
// 1, no flags byte, no shard table): written for a one-shard index with
// SQ8, it loads as that index's exact form and re-saves to its bytes.
func TestFormat4SingleRoundTrip(t *testing.T) {
	data, cfg := goldenSetup()
	ix, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := loadsAs(t, ix, data, asFormat4(t, ix, singleKind(t, saveBytes(t, ix), cfg))); loaded.Shards() != 1 {
		t.Fatalf("single format-4 file loaded as %d shards", loaded.Shards())
	}
}

// TestFormat4WithLifecycle pins the sharded kind of format 4 with its
// lifecycle byte set: a dynamic snapshot carrying tombstones, written with
// both the lifecycle and the quantization section, loads as the exact
// snapshot — the same tombstones and answers — and re-saves to the
// snapshot's bytes.
func TestFormat4WithLifecycle(t *testing.T) {
	data, cfg := goldenSetup()
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
	loadsAs(t, sx, vectors, asFormat4(t, sx, saveBytes(t, sx)))
}

// TestFormat4CorruptQuantSection truncates and corrupts the quantization
// section of the golden format-4 file and of a format-5 file carrying one,
// and checks every damage pattern is an error, never a panic or a silently
// accepted file: truncation anywhere, a bad kind or flags byte, the
// quantizer's name length or name, a negative re-rank depth, a shard part
// whose rows×dim header is not its shard's, and a quantizer over a metric
// it never supported.
func TestFormat4CorruptQuantSection(t *testing.T) {
	data, cfg := goldenSetup()
	sx, err := newSharded(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/golden_pkg4.lccs")
	if err != nil {
		t.Fatal(err)
	}
	v5 := withQuantSection(t, sx, saveBytes(t, sx))
	if _, err := loadBlob(t, v5, data); err != nil {
		t.Fatalf("undamaged format-5 file with a quantization section: %v", err)
	}
	mustFail := func(what string, blob []byte) {
		t.Helper()
		if _, err := loadBlob(t, blob, data); err == nil {
			t.Fatalf("%s loaded", what)
		}
	}
	// The format-4 file ends with the quantization section; the format-5
	// one with the 16-byte empty attribute section, in front of which it
	// sits.
	for _, cut := range []int{1, 7, 16, 17, 23, 80, 1040} {
		mustFail(fmt.Sprintf("format 4: truncated quant section (-%d bytes)", cut), golden[:len(golden)-cut])
		mustFail(fmt.Sprintf("format 5: truncated quant section (-%d bytes)", cut), v5[:len(v5)-cut])
	}
	for name, blob := range map[string][]byte{"format 4": golden, "format 5": v5} {
		// A corrupt container-kind byte (right after the magic) is rejected.
		bad := append([]byte(nil), blob...)
		bad[8] = 9
		mustFail(name+": corrupt container kind", bad)
		// A flags byte naming a section this build does not know is rejected.
		bad = append([]byte(nil), blob...)
		bad[9] = 7
		mustFail(name+": unknown container flags", bad)
	}

	at := len(v5) - 16 - len(legacyQuantSection(sx)) // the section's first byte
	corrupt := func(what string, off int, val []byte) {
		t.Helper()
		bad := append([]byte(nil), v5...)
		copy(bad[at+off:], val)
		mustFail(what, bad)
	}
	le := binary.LittleEndian
	corrupt("negative quantizer name length", 0, le.AppendUint32(nil, 0xffffffff))
	corrupt("overlong quantizer name length", 0, le.AppendUint32(nil, 65))
	corrupt("unknown quantizer", 4, []byte("pq8"))
	corrupt("negative re-rank depth", 7, le.AppendUint64(nil, 1<<63))
	corrupt("shard rows mismatch", 15, le.AppendUint64(nil, 51))
	corrupt("shard dim mismatch", 23, le.AppendUint64(nil, 9))

	// SQ8 was only ever written over Euclidean and Angular indexes.
	bin := make([][]float32, len(data))
	for i, v := range data {
		bin[i] = make([]float32, len(v))
		for j, x := range v {
			if x > 0 {
				bin[i][j] = 1
			}
		}
	}
	hx, err := NewIndex(bin, Config{Metric: Hamming, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadBlob(t, withQuantSection(t, hx, saveBytes(t, hx)), bin); err == nil {
		t.Fatal("a quantization section over a hamming index loaded")
	}
}
