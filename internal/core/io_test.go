package core

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"lccs/internal/lshfamily"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

func TestCoreEncodeDecodeRoundTrip(t *testing.T) {
	g := rng.New(81)
	data := clusteredData(g, 400, 12, 6, 0.5)
	fam := lshfamily.NewRandomProjection(12, 8)
	ix, err := Build(data, fam, Params{M: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeRows(bytes.NewReader(buf.Bytes()), data, fam)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M() != 24 || loaded.N() != 400 {
		t.Fatalf("shape: m=%d n=%d", loaded.M(), loaded.N())
	}
	for i := 0; i < 10; i++ {
		q := data[i*17]
		a := ix.Search(q, 5, 40)
		b := loaded.Search(q, 5, 40)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

// decodeRows is DecodeStore over row-slice data packed into a flat store.
func decodeRows(r io.Reader, data [][]float32, family lshfamily.Family) (*Index, error) {
	store, err := vec.FromRows(data)
	if err != nil {
		return nil, err
	}
	return DecodeStore(r, store, family)
}

// TestDecodeConsumesExactly: DecodeStore reads its own blob and nothing
// after it, whatever the reader — two indexes back to back plus a tail
// must come out as two indexes and that tail.
func TestDecodeConsumesExactly(t *testing.T) {
	g := rng.New(83)
	data := clusteredData(g, 120, 8, 4, 0.5)
	fam := lshfamily.NewRandomProjection(8, 4)
	var buf bytes.Buffer
	for _, m := range []int{16, 8} {
		ix, err := Build(data, fam, Params{M: m, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString("tail")
	readers := map[string]io.Reader{
		"bytes.Reader":  bytes.NewReader(buf.Bytes()),
		"OneByteReader": iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
	}
	for name, rd := range readers {
		for _, m := range []int{16, 8} {
			ix, err := decodeRows(rd, data, fam)
			if err != nil {
				t.Fatalf("%s: index m=%d: %v", name, m, err)
			}
			if ix.M() != m {
				t.Fatalf("%s: decoded m=%d, want %d", name, ix.M(), m)
			}
		}
		if rest, err := io.ReadAll(rd); err != nil || string(rest) != "tail" {
			t.Fatalf("%s: %q, %v left after two indexes, want \"tail\"", name, rest, err)
		}
	}
}

func TestCoreDecodeRejectsMismatches(t *testing.T) {
	g := rng.New(82)
	data := clusteredData(g, 200, 8, 4, 0.5)
	fam := lshfamily.NewRandomProjection(8, 4)
	ix, err := Build(data, fam, Params{M: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Wrong family name.
	if _, err := decodeRows(bytes.NewReader(blob), data, lshfamily.NewCrossPolytope(8)); err == nil {
		t.Error("wrong family should fail")
	}
	// Wrong dimension.
	if _, err := decodeRows(bytes.NewReader(blob), data, lshfamily.NewRandomProjection(9, 4)); err == nil {
		t.Error("wrong dimension should fail")
	}
	// Wrong dataset length.
	if _, err := decodeRows(bytes.NewReader(blob), data[:100], fam); err == nil {
		t.Error("wrong n should fail")
	}
	// Different bucket width changes hash values: the spot check fires.
	if _, err := decodeRows(bytes.NewReader(blob), data, lshfamily.NewRandomProjection(8, 2)); err == nil {
		t.Error("different bucket width should fail the hash spot check")
	}
	// Garbage.
	if _, err := decodeRows(bytes.NewReader([]byte("nope")), data, fam); err == nil {
		t.Error("garbage should fail")
	}
	// Truncation.
	if _, err := decodeRows(bytes.NewReader(blob[:len(blob)/2]), data, fam); err == nil {
		t.Error("truncation should fail")
	}
}

// TestWrapMPValidation checks the multi-probe state Build wraps around an
// index: it leaves the base index as a single-probe build of the same seed
// encodes it, issues the requested probe count, and is refused for a
// family without probe functions.
func TestWrapMPValidation(t *testing.T) {
	g := rng.New(83)
	data := clusteredData(g, 100, 8, 4, 0.5)
	fam := lshfamily.NewRandomProjection(8, 4)
	base, err := Build(data, fam, Params{M: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(data, noProbeFamily{fam}, Params{M: 16, Seed: 11, Probes: 5}); err == nil {
		t.Error("a family without probe functions should fail")
	}
	mp, err := Build(data, fam, Params{M: 16, Seed: 11, Probes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := probesOf(mp, data[0]); got != 5 {
		t.Fatalf("probes = %d, want 5", got)
	}
	var a, b bytes.Buffer
	if err := base.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := mp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("multi-probe index encodes differently from its single-probe base")
	}
}
