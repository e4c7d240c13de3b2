package lccs

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lccs/internal/rng"
	"lccs/internal/vec"
)

// The write contract holds because a background build cannot fail: every
// configuration is checked at the door it enters by (NewIndex, Load,
// OpenDurable) and every derived bucket width is positive and finite. These
// tests pin both doors with the inputs that once got through them.

// hugeRows returns n rows of N(0,1)×1e20 in d = 8: admissible Euclidean
// rows whose pairwise float32 sums of squares overflow, so every distance
// between two of them is taken in float64 (vec.Distance64).
func hugeRows(seed uint64, n int) [][]float32 {
	g := rng.New(seed)
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = g.GaussianVector(8)
		for j := range rows[i] {
			rows[i][j] *= 1e20
		}
	}
	return rows
}

// patchBucketWidth rewrites the bucket width in the header of the
// container at path: it follows the magic, the kind and flags bytes, the
// metric's length and name, and m, probes and budget.
func patchBucketWidth(t *testing.T, path string, w float64) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 10 + 4 + int(binary.LittleEndian.Uint32(blob[10:14])) + 3*8
	binary.LittleEndian.PutUint64(blob[off:], math.Float64bits(w))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesInvalidConfig: Load refuses a configuration NewIndex
// refuses. An Angular container never reads its bucket width, so one
// patched to −1 or NaN once loaded, and every background build of a
// DynamicIndex made from it then failed.
func TestLoadRefusesInvalidConfig(t *testing.T) {
	data, _ := goldenSetup()
	ix := must(NewIndex(data, Config{Metric: Angular, M: 16, Seed: 3}))
	path := filepath.Join(t.TempDir(), "angular.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, data); err != nil {
		t.Fatalf("the unpatched container: %v", err)
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		patchBucketWidth(t, path, w)
		if _, err := Load(path, data); err == nil {
			t.Errorf("an Angular container with bucket width %v loaded", w)
		}
		if _, err := NewIndex(data, Config{Metric: Angular, M: 16, Seed: 3, BucketWidth: w}); err == nil {
			t.Errorf("NewIndex took bucket width %v", w)
		}
	}
}

// TestOpenDurableRefusesInvalidContainer: a data directory whose snapshot
// container carries a bucket width of −1 does not open.
func TestOpenDurableRefusesInvalidContainer(t *testing.T) {
	dir := t.TempDir()
	dc := DurableConfig{Config: Config{Metric: Angular, M: 16, Seed: 3}, Sync: SyncNone}
	d := must(OpenDurable(dir, dc))
	data, _ := goldenSetup()
	if _, err := d.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	info := must(d.Checkpoint())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	patchBucketWidth(t, filepath.Join(dir, info.Container), -1)
	if d, err := OpenDurable(dir, dc); err == nil {
		d.Close()
		t.Fatal("OpenDurable opened a snapshot container with bucket width -1")
	}
}

// TestNewIndexHugeRows: rows whose float32 distances all overflow derive a
// positive, finite bucket width (the sampled distances are taken in
// float64), so the index builds and finds each row itself.
func TestNewIndexHugeRows(t *testing.T) {
	rows := hugeRows(1, 200)
	ix, err := NewIndex(rows, Config{Metric: Euclidean, M: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w := ix.cfg.BucketWidth; !(w > 0) || math.IsInf(w, 1) {
		t.Fatalf("derived bucket width %v", w)
	}
	for _, id := range []int{0, 57, 199} {
		res := must(ix.Search(rows[id], 1))
		if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
			t.Fatalf("Search(row %d) = %+v", id, res)
		}
	}
}

// TestSearchHugeRowsFinite: every Euclidean distance between finite rows is
// finite. Over 1e20-scale rows, whose float32 sums of squares all overflow,
// a k = 3 search at an exhaustive budget answers finite distances within
// 1e-6 relative of vec.Distance64, from a built index (the bounded gather)
// and from a DynamicIndex whose rows are all buffered (the tail's scan) —
// where both once answered +Inf for every row but the query's own.
func TestSearchHugeRowsFinite(t *testing.T) {
	rows := hugeRows(3, 40)
	ix := must(NewIndex(rows, Config{Metric: Euclidean, M: 16, Seed: 1}))
	d := must(NewDynamicIndex(nil, Config{Metric: Euclidean, M: 16, Seed: 1}, 64))
	must(d.AddBatch(rows))
	for name, s := range map[string]Searcher{"index": ix, "buffered": d} {
		for _, qid := range []int{0, 17, 39} {
			q := rows[qid]
			res := must(s.SearchQuery(q, Query{K: 3, Budget: math.MaxInt}, nil))
			if len(res) != 3 || res[0].ID != qid || res[0].Dist != 0 {
				t.Fatalf("%s: query %d answered %+v, want 3 neighbors led by itself at 0", name, qid, res)
			}
			for _, nb := range res[1:] {
				want := vec.Distance64(rows[nb.ID], q)
				if math.IsInf(nb.Dist, 0) || math.Abs(nb.Dist-want) > 1e-6*want {
					t.Fatalf("%s: query %d: neighbor %d at %v, want %v", name, qid, nb.ID, nb.Dist, want)
				}
			}
		}
	}
}

// TestDurableHugeRowsBuild: on a journaled index whose delta builds derive
// their width from 1e20-scale rows, every Add returns nil, the builds
// swap shards in, and Checkpoint empties the log — where the builds once
// failed, every later Add returned their error and the log could never
// truncate.
func TestDurableHugeRowsBuild(t *testing.T) {
	dir := t.TempDir()
	dc := DurableConfig{Config: Config{Metric: Euclidean, M: 16, Seed: 1}, RebuildAt: 16, Sync: SyncNone}
	d := must(OpenDurable(dir, dc))
	for i, v := range hugeRows(2, 40) {
		if _, err := d.Add(v); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	d.WaitRebuild()
	if d.Shards() < 2 {
		t.Fatalf("%d shards after 40 rows at rebuildAt 16, want at least 2", d.Shards())
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if depth := d.WALStats().Depth; depth != 0 {
		t.Fatalf("WAL depth %d after Checkpoint, want 0", depth)
	}
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := must(OpenDurable(dir, dc))
	defer re.Close()
	if re.Len() != 40 || re.Recovery().Records != 0 {
		t.Fatalf("reopened: %d rows, %d records replayed; want 40 and 0", re.Len(), re.Recovery().Records)
	}
}
