package lccs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSharded feeds arbitrary bytes through the container parsers —
// LoadSharded first (it accepts every container), then Load — and
// asserts the durability-grade contract: truncated or corrupt
// containers must return an error, never panic and never OOM. The
// committed golden files of all five magics, plus an attribute-free
// file in the layout Save writes, seed the corpus so the fuzzer starts
// from deep inside the valid format space.
func FuzzLoadSharded(f *testing.F) {
	data, cfg := goldenSetup()
	var seeds [][]byte
	for _, name := range []string{"golden_pkg1.lccs", "golden_pkg2.lccs", "golden_pkg3.lccs", "golden_pkg4.lccs", "golden_pkg5.lccs"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatalf("missing golden seed %s: %v", name, err)
		}
		seeds = append(seeds, blob)
	}
	ix, err := NewIndex(data, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var plain bytes.Buffer
	if err := ix.encode(&plain); err != nil {
		f.Fatal(err)
	}
	for _, blob := range append(seeds, plain.Bytes()) {
		f.Add(blob)
		f.Add(blob[:len(blob)/2]) // truncated container
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0xFF // flipped body byte
		f.Add(mut)
	}
	f.Add([]byte("LCCSPKG1"))
	f.Add([]byte("LCCSPKG9 not a real format"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.lccs")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		// Either call may succeed (the input is a valid container) or
		// error; panics fail the fuzz run.
		if sx, err := LoadSharded(path, data); err == nil {
			sx.Search(data[0], 3)
		}
		if ix, err := Load(path, data); err == nil {
			ix.Search(data[0], 3)
		}
	})
}
