package lccs

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSharded feeds arbitrary bytes through the container parsers
// behind Load, which opens every container kind (through loadStore, the
// reader entry Load and the durable open share), and asserts the
// durability-grade contract: truncated or corrupt containers must return
// an error, never panic and never OOM — and whatever loads, builds: a
// DynamicIndex made from it takes 4 admissible rows, every Add returning
// nil, and builds them into one more shard. The committed golden files of
// all five magics, plus an attribute-free one-shard file in the layout
// Save writes, seed the corpus so the fuzzer starts from deep inside the
// valid format space; testdata/fuzz/FuzzLoadSharded adds an Angular
// container whose bucket width is −1, which Load must refuse.
// Run it with -fuzzminimizetime=100x: under the default 60 s, minimising
// one new input grown from those ~30 KB seeds takes a whole short run.
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
		store, err := storeFromRows(data, "")
		if err != nil {
			t.Fatal(err)
		}
		// The call may succeed (the input is a valid container) or error;
		// panics fail the fuzz run. Load decodes its file through the same
		// entry.
		ix, err := loadStore(bytes.NewReader(blob), store)
		if err != nil {
			return
		}
		ix.Search(data[0], 3)
		// Whatever loads, builds: a DynamicIndex over it takes admissible
		// rows without an error and builds them into a shard.
		d := NewDynamicIndexFrom(ix, 4)
		shards := d.Shards()
		for i, v := range data[:4] {
			if _, err := d.Add(v); err != nil {
				t.Fatalf("Add %d into a loaded container: %v", i, err)
			}
		}
		d.WaitRebuild()
		if d.Shards() != shards+1 || d.Buffered() != 0 {
			t.Fatalf("after 4 rows at rebuildAt 4: %d shards (from %d), %d buffered; want one more shard and none buffered",
				d.Shards(), shards, d.Buffered())
		}
	})
}

// FuzzCursorToken feeds arbitrary strings to the cursor-token door. The
// decoder never panics, fails only with ErrCursorInvalid, and accepts only
// tokens whose λ and first page size k₀ are positive and whose λ, k₀ and
// consumed count are at most MaxInt32; a token it accepts re-encodes to a
// token that decodes back equal, as every token encodeCursor mints does;
// and whatever decodes is safe to resume with — rebound to a real query
// and handed to a sharded and a dynamic backend, it yields at most a
// page of results or a cursor error, never a panic.
func FuzzCursorToken(f *testing.F) {
	data, attrs := filterTestData(150, 6)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}
	sx := must(newShardedWithAttrs(data, attrs, cfg, 3))
	d := must(NewDynamicIndex(nil, cfg, 64)) // two shards, 22 buffered rows, tombstones in each
	for i, v := range data {
		must(d.AddWithAttrs(v, attrs[i]))
		d.WaitRebuild()
		if i%9 == 2 {
			d.Delete(i - 1)
		}
	}
	q := data[4]
	_, minted, err := sx.SearchCursor(q, Query{K: 7, Budget: math.MaxInt}, "")
	if err != nil || minted == "" {
		f.Fatalf("minting a seed token: %q, %v", minted, err)
	}
	// testdata/fuzz/FuzzCursorToken holds the hostile ones: consumed count
	// and k₀ at MaxInt32, λ at 1<<40 and k₀ = 0 (both refused by the
	// decoder's bounds), and the version-1 tokens of the per-source
	// layout, all refused. These are tokens the backends above mint and
	// accept.
	f.Add(minted)
	f.Add(minted[:len(minted)/2])
	f.Add(encodeCursor(cursorToken{gen: d.writes, lambda: 150, k0: 3, hash: cursorHash(q, nil), consumed: 149}))
	f.Add("not-base64!!")
	f.Add("")

	f.Fuzz(func(t *testing.T, token string) {
		tok, err := decodeCursor(token)
		if err != nil {
			if !errors.Is(err, ErrCursorInvalid) {
				t.Fatalf("decodeCursor(%q): %v is not ErrCursorInvalid", token, err)
			}
			return
		}
		if tok.lambda <= 0 || tok.k0 <= 0 || tok.consumed < 0 || max(tok.lambda, tok.k0, tok.consumed) > math.MaxInt32 {
			t.Fatalf("decodeCursor(%q) accepted %+v", token, tok)
		}
		if again, err := decodeCursor(encodeCursor(tok)); err != nil || again != tok {
			t.Fatalf("token %+v re-encodes to %+v, %v", tok, again, err)
		}
		tok.hash = cursorHash(q, nil)
		for _, s := range []Searcher{sx, d} {
			tok.gen = sx.epoch
			if s == Searcher(d) {
				tok.gen = d.writes
			}
			page, _, err := s.SearchCursor(q, Query{K: 5}, encodeCursor(tok))
			if err != nil && !errors.Is(err, ErrCursorInvalid) || len(page) > 5 {
				t.Fatalf("resuming %+v: %d results, %v", tok, len(page), err)
			}
		}
	})
}
