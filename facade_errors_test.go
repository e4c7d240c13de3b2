package lccs

import (
	"bytes"
	"testing"
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
	store, err := storeFromRows(data)
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
