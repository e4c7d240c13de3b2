package lccs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lccs/internal/vec"
)

func TestFamilyForErrors(t *testing.T) {
	if _, err := familyFor(Config{Metric: Euclidean, BucketWidth: 0}, 4); err == nil {
		t.Error("euclidean without width should fail in familyFor")
	}
	if _, err := familyFor(Config{Metric: "mahalanobis"}, 4); err == nil {
		t.Error("unknown metric should fail")
	}
	for _, m := range []MetricKind{Angular, Hamming, Jaccard} {
		if _, err := familyFor(Config{Metric: m}, 4); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	data, _ := testData(61, 20, 4, 2, 0.5)
	store, err := storeFromRows(data, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	// Valid header but truncated right after.
	if _, err := decodeBody(bytes.NewReader(nil), store, header{}); err == nil {
		t.Error("body truncation should fail")
	}
	// Corrupt metric length.
	blob := []byte{0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := decodeBody(bytes.NewReader(blob), store, header{}); err == nil {
		t.Error("corrupt metric length should fail")
	}
	// The header table: every version's header bytes map to the sections
	// its body carries.
	accepted := []struct {
		bytes string
		want  header
	}{
		{"LCCSPKG1", header{}},
		{"LCCSPKG2", header{sharded: true}},
		{"LCCSPKG3", header{sharded: true, lifecycle: true}},
		{"LCCSPKG4\x01", header{quantized: true}},
		{"LCCSPKG4\x02\x00", header{sharded: true, quantized: true}},
		{"LCCSPKG4\x02\x01", header{sharded: true, lifecycle: true, quantized: true}},
		{"LCCSPKG5\x01\x00", header{attrs: true}},
		{"LCCSPKG5\x01\x02", header{quantized: true, attrs: true}},
		{"LCCSPKG5\x02\x00", header{sharded: true, attrs: true}},
		{"LCCSPKG5\x02\x03", header{sharded: true, lifecycle: true, quantized: true, attrs: true}},
	}
	for _, c := range accepted {
		r := bytes.NewReader([]byte(c.bytes + "body"))
		if got, err := readHeader(r); err != nil || got != c.want {
			t.Errorf("readHeader(%q) = %+v, %v; want %+v", c.bytes, got, err, c.want)
		} else if r.Len() != len("body") {
			t.Errorf("readHeader(%q) left %d bytes, want the 4 of the body", c.bytes, r.Len())
		}
	}
	rejected := []string{
		"", "LCCSPKG", "LCCSPKG0", "LCCSPKG6", "LCCSPKG9", "LCCSCSA1", "lccspkg1",
		"LCCSPKG4", "LCCSPKG4\x00", "LCCSPKG4\x03", "LCCSPKG4\x02", "LCCSPKG4\x02\x02",
		"LCCSPKG5\x01", "LCCSPKG5\x09\x00", "LCCSPKG5\x02\x04", "LCCSPKG5\x01\x01",
	}
	for _, in := range rejected {
		if h, err := readHeader(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("readHeader(%q) = %+v, want an error", in, h)
		}
	}
}

func TestNewDynamicIndexBadConfig(t *testing.T) {
	data, _ := testData(62, 20, 4, 2, 0.5)
	if _, err := NewDynamicIndex(data, Config{Metric: "nope"}, 0); err == nil {
		t.Error("bad metric should fail when initial data present")
	}
	// An empty start must reject the config too, not defer to a panic at
	// the first query.
	if _, err := NewDynamicIndex(nil, Config{Metric: "nope"}, 0); err == nil {
		t.Error("bad metric should fail on empty start")
	}
	if _, err := NewDynamicIndex(nil, Config{Metric: Euclidean, M: -1}, 0); err == nil {
		t.Error("negative M should fail on empty start")
	}
	// A valid empty start still works.
	if _, err := NewDynamicIndex(nil, Config{Metric: Euclidean}, 0); err != nil {
		t.Errorf("valid empty start: %v", err)
	}
}

// TestNonFiniteBucketWidthRejected: a NaN or infinite Euclidean bucket
// width hashes every point to one bucket, so it must be refused by every
// constructor and by Load, never built into an index whose strings all
// collide.
func TestNonFiniteBucketWidthRejected(t *testing.T) {
	data, _ := testData(64, 40, 4, 2, 0.5)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{Metric: Euclidean, M: 8, BucketWidth: w, Seed: 1}
		if _, err := NewIndex(data, cfg); err == nil {
			t.Errorf("NewIndex accepted bucket width %v", w)
		}
		if _, err := NewDynamicIndex(data, cfg, 0); err == nil {
			t.Errorf("NewDynamicIndex accepted bucket width %v", w)
		}
		if di, err := OpenDurable(t.TempDir(), DurableConfig{Config: cfg}); err == nil {
			di.Close()
			t.Errorf("OpenDurable accepted bucket width %v", w)
		}
	}

	// A container whose width bytes read NaN.
	const width = 3.25
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 8, BucketWidth: width, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	at := bytes.Index(blob, binary.LittleEndian.AppendUint64(nil, math.Float64bits(width)))
	if at < 0 {
		t.Fatal("the container does not hold the bucket width's bytes")
	}
	binary.LittleEndian.PutUint64(blob[at:], math.Float64bits(math.NaN()))
	path := filepath.Join(t.TempDir(), "nan.lccs")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Without the width check the load still fails, later and for
	// another reason: the stored hash strings stop matching the data.
	if _, err := Load(path, data); err == nil || !strings.Contains(err.Error(), "bucket width") {
		t.Errorf("Load of a container whose bucket width is NaN: %v, want a bucket-width error", err)
	}
}

// TestAngularNormOverflowRejected: under Angular a vector whose float32
// sum of squares overflows has a cosine of 0 (distance π/2) or NaN to
// everything, itself included, so it is refused with ErrNonFinite as a
// data row, on insert (before anything is journaled) and as a query.
// Under Euclidean the same vector stays admissible: its distances
// overflow to +Inf, which rank, and it is still found at 0 from itself.
func TestAngularNormOverflowRejected(t *testing.T) {
	const dim = 8
	data, _ := testData(65, 60, dim, 3, 0.5)
	fill := func(x float32) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = x
		}
		return v
	}
	cfg := Config{Metric: Angular, M: 8, Seed: 1}
	for _, x := range []float32{1e20, 3e38, -1e20} {
		big := fill(x)
		rows := append(append([][]float32(nil), data...), big)
		if _, err := NewIndex(rows, cfg); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%g: NewIndex with the row: %v, want ErrNonFinite", x, err)
		}
		if _, err := NewDynamicIndex(rows, cfg, 0); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%g: NewDynamicIndex with the row: %v, want ErrNonFinite", x, err)
		}

		ix := must(NewIndex(data, cfg))
		if res, err := ix.SearchQuery(big, Query{K: 3}, nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%g: SearchQuery: %v, err=%v, want ErrNonFinite", x, res, err)
		}
		dyn := must(NewDynamicIndex(data, cfg, 0))
		if _, err := dyn.Add(big); !errors.Is(err, ErrNonFinite) || dyn.Len() != len(data) {
			t.Errorf("%g: Add: err=%v, Len=%d", x, err, dyn.Len())
		}
		if ids, err := dyn.AddBatch([][]float32{data[0], big}); !errors.Is(err, ErrNonFinite) || ids != nil || dyn.Len() != len(data) {
			t.Errorf("%g: AddBatch: ids=%v err=%v Len=%d, want nothing inserted and ErrNonFinite", x, ids, err, dyn.Len())
		}
		if res, err := dyn.SearchQuery(big, Query{K: 3}, nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%g: DynamicIndex.SearchQuery: %v, err=%v, want ErrNonFinite", x, res, err)
		}

		di, err := OpenDurable(t.TempDir(), DurableConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		must(di.Add(data[0]))
		before := di.WALStats()
		if _, err := di.Add(big); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%g: journaled Add: %v, want ErrNonFinite", x, err)
		}
		if after := di.WALStats(); after.LastLSN != before.LastLSN || after.AppendedBytes != before.AppendedBytes {
			t.Errorf("%g: a refused write reached the log: %+v → %+v", x, before, after)
		}
		if err := di.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Euclidean keeps the vector: the row is found from itself at 0.
	big := fill(1e20)
	rows := append(append([][]float32(nil), data...), big)
	ix := must(NewIndex(rows, Config{Metric: Euclidean, M: 8, Seed: 1, BucketWidth: 4}))
	if res := must(ix.SearchQuery(big, Query{K: 1, Budget: len(rows)}, nil)); len(res) != 1 || res[0].ID != len(data) || res[0].Dist != 0 {
		t.Errorf("Euclidean: the row answered %v, want id %d at 0", res, len(data))
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	data, _ := testData(63, 20, 4, 2, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save("/nonexistent-dir/x/y/z.lccs"); err == nil {
		t.Error("unwritable path should fail")
	}
}

// storeFromRows checks and copies its row ranges in parallel; whichever
// ranges the bad rows fall in, at GOMAXPROCS 1 and 2, it must refuse a
// dataset with the serial pack's error text, byte for byte: the lowest
// offending row named, a dimension error before a non-finite one. A
// dataset it accepts is packed row for row.
func TestStoreFromRowsErrors(t *testing.T) {
	const n, dim = 11, 3
	nan, inf := float32(math.NaN()), float32(math.Inf(-1))
	cases := []struct {
		name   string
		metric MetricKind
		edit   func(rows [][]float32)
		want   string
	}{
		{"a NaN row alone", Euclidean, func(r [][]float32) { r[6][1] = nan },
			"lccs: vector has a NaN or infinite coordinate: data row 6"},
		{"a NaN row, a wrong dimension in the other range", Euclidean, func(r [][]float32) { r[1][0] = nan; r[8] = r[8][:2] },
			"lccs: vec: row 8 has dimension 2, want 3"},
		{"a NaN row, a wrong dimension in the same range", Euclidean, func(r [][]float32) { r[6][2] = nan; r[9] = append(r[9], 1) },
			"lccs: vec: row 9 has dimension 4, want 3"},
		{"a wrong dimension, a NaN row after it", Hamming, func(r [][]float32) { r[2] = r[2][:1]; r[3][0] = nan },
			"lccs: vec: row 2 has dimension 1, want 3"},
		{"two non-finite rows", Euclidean, func(r [][]float32) { r[9][0] = inf; r[4][2] = nan },
			"lccs: vector has a NaN or infinite coordinate: data row 4"},
		{"two wrong dimensions", Euclidean, func(r [][]float32) { r[10] = nil; r[5] = r[5][:2] },
			"lccs: vec: row 5 has dimension 2, want 3"},
		{"row 0 sets the dimension", Euclidean, func(r [][]float32) { r[0] = r[0][:2] },
			"lccs: vec: row 1 has dimension 3, want 2"},
		{"a zero-dimensional row 0", Euclidean, func(r [][]float32) { r[0] = nil; r[7][0] = nan },
			"lccs: vec: zero-dimensional row 0"},
		{"an angular norm overflow", Angular, func(r [][]float32) { r[3] = []float32{3e19, 3e19, 3e19} },
			"lccs: vector has a NaN or infinite coordinate: data row 3"},
		{"the same row under Euclidean", Euclidean, func(r [][]float32) { r[3] = []float32{3e19, 3e19, 3e19} }, ""},
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			rows := make([][]float32, n)
			for i := range rows {
				rows[i] = []float32{float32(i), float32(-i), 0.5}
			}
			c.edit(rows)
			store, err := storeFromRows(rows, c.metric)
			if c.want != "" {
				if err == nil || err.Error() != c.want {
					t.Errorf("GOMAXPROCS %d, %s: error %v, want %q", procs, c.name, err, c.want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, c.name, err)
			}
			for i, row := range rows {
				if !vec.Equal(store.Row(i), row) {
					t.Fatalf("GOMAXPROCS %d, %s: row %d packed as %v, want %v", procs, c.name, i, store.Row(i), row)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
