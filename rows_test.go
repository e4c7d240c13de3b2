package lccs

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"lccs/internal/dataset"
	"lccs/internal/vec"
)

// The tests of this file pin that every row is held once: a shard keeps
// the rows it was built or loaded over, the insert buffer has a block of
// its own, and no write, background build, compaction or checkpoint copies
// rows the buffer does not hold.

// TestWarmStartAddCopiesNoRows is the first-insert gate: the first Add to a
// DynamicIndex warm-started over a loaded index appends to a buffer block
// of its own instead of copying the loaded block, and a loaded row keeps
// its address across inserts, a background swap-in, a buffer compaction
// and a checkpoint.
func TestWarmStartAddCopiesNoRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	const n, dim, probe = 20000, 128, 1234
	data, g := testData(71, n, dim, 8, 0.5)
	cfg := Config{Metric: Euclidean, M: 8, Seed: 4}
	ix, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamicIndexFrom(loaded, 256)
	addr := unsafe.SliceData(d.Vector(probe))
	if addr != unsafe.SliceData(loaded.row(probe)) {
		t.Fatal("the warm start copied the loaded rows")
	}
	stable := func(d *DynamicIndex, after string) {
		t.Helper()
		if got := unsafe.SliceData(d.Vector(probe)); got != addr {
			t.Fatalf("loaded row %d moved after %s", probe, after)
		}
	}
	add := func(d *DynamicIndex) int {
		t.Helper()
		id, err := d.Add(g.GaussianVector(dim))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	v := g.GaussianVector(dim)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := d.Add(v); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("first Add after a warm start allocated %d bytes, want at most 64 KB (the loaded block is %d bytes)", got, n*dim*4)
	}
	stable(d, "inserts")
	for i := 0; i < 300; i++ {
		add(d)
	}
	d.WaitRebuild()
	if d.Shards() != 2 {
		t.Fatalf("%d shards after one background build, want 2", d.Shards())
	}
	stable(d, "a background swap-in")
	for i := 0; i < 100; i++ {
		if id := add(d); i%3 == 0 && !d.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	buffered := d.Buffered()
	if _, _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if d.Buffered() >= buffered {
		t.Fatalf("the snapshot left the buffer at %d rows, want fewer than %d", d.Buffered(), buffered)
	}
	stable(d, "a buffer compaction")

	// The same through the journal: OpenDurable warm-starts over the
	// checkpointed block, and Checkpoint compacts the buffer and streams
	// the rows out without moving them.
	dir := t.TempDir()
	dc := DurableConfig{Config: cfg, Sync: SyncNone, RebuildAt: 256}
	j, err := OpenDurable(dir, dc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = OpenDurable(dir, dc); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	addr = unsafe.SliceData(j.Vector(probe))
	for i := 0; i < 300; i++ {
		if id := add(j); i%7 == 0 && !j.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	j.WaitRebuild()
	stable(j, "a journaled swap-in")
	if _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stable(j, "a checkpoint")
}

// TestRowsHeldOnceLongRun is the long-run gate: after rounds of inserts
// with buffered deletes, background builds and (journaled) checkpoints,
// the blocks the set's rows live in hold each row once. They are weighed
// by the heap they alone keep alive — every backing array at its allocated
// size, however many views share it — against the rows the set holds.
func TestRowsHeldOnceLongRun(t *testing.T) {
	const n, dim, rebuildAt, rounds, perRound = 5000, 32, 512, 6, 600
	data, g := testData(72, n, dim, 8, 0.5)
	cfg := Config{Metric: Euclidean, M: 8, Seed: 6}
	drive := func(t *testing.T, d *DynamicIndex) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < perRound; i++ {
				id, err := d.Add(g.GaussianVector(dim))
				if err != nil {
					t.Fatal(err)
				}
				if i%10 == 9 && !d.Delete(id) {
					t.Fatalf("round %d: delete %d failed", r, id)
				}
			}
			d.WaitRebuild()
			if d.Dir() != "" {
				if _, err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if d.Shards() < rounds {
			t.Fatalf("%d shards after %d rounds, want at least one build a round", d.Shards(), rounds)
		}
		held, rows := rowBlockHeap(t, d)
		if limit := 1.3 * float64(rows*dim*4); float64(held) > limit {
			t.Fatalf("row blocks hold %d bytes for %d rows of %d bytes, want at most %.0f", held, rows, dim*4, limit)
		}
	}
	t.Run("memory-only", func(t *testing.T) {
		d, err := NewDynamicIndex(data, cfg, rebuildAt)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, d)
	})
	t.Run("journaled", func(t *testing.T) {
		dir := t.TempDir()
		dc := DurableConfig{Config: cfg, Sync: SyncNone, RebuildAt: rebuildAt}
		d, err := OpenDurable(dir, dc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddBatch(data); err != nil {
			t.Fatal(err)
		}
		d.WaitRebuild()
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if d, err = OpenDurable(dir, dc); err != nil {
			t.Fatal(err)
		}
		drive(t, d)
	})
	runtime.KeepAlive(data)
}

// rowBlockHeap closes d and returns the live heap its row blocks keep
// alive on their own, and the rows its set held. The caller must not use
// d afterwards.
func rowBlockHeap(t *testing.T, d *DynamicIndex) (held uint64, rows int) {
	t.Helper()
	d.WaitRebuild()
	d.mu.RLock()
	blocks, rows := d.blocks(), d.slots()
	d.mu.RUnlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	*d = DynamicIndex{} // drop everything but the blocks
	with := liveHeap()
	runtime.KeepAlive(blocks)
	without := liveHeap()
	if with < without {
		return 0, rows
	}
	return with - without, rows
}

// liveHeap returns the bytes of live heap objects after full collections
// (two, so pooled objects a first one only demotes are gone too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCheckpointStreamsRows pins the streamed checkpoint: the dataset file
// Checkpoint writes from the segments' and the tail's blocks, in slot
// order, is byte for byte the one dataset.NewFlat writes over their
// concatenation, so directories written before still open and new ones
// open anywhere.
func TestCheckpointStreamsRows(t *testing.T) {
	data, g := testData(73, 1000, 8, 4, 0.5)
	dir := t.TempDir()
	dc := DurableConfig{Config: Config{Metric: Euclidean, M: 8, Seed: 7}, Sync: SyncNone, RebuildAt: 128}
	d, err := OpenDurable(dir, dc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	d.WaitRebuild()
	for i := 0; i < 50; i++ {
		if _, err := d.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < len(data); id += 9 {
		d.Delete(id) // tombstones inside shards keep their rows
	}
	d.mu.RLock()
	rows, blocks := d.rowViews(), len(d.blocks())
	d.mu.RUnlock()
	if blocks < 3 {
		t.Fatalf("the rows live in %d blocks, want several", blocks)
	}
	info, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, info.Dataset))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := vec.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "ref.ds")
	if err := dataset.NewFlat("durable", "snapshot", flat, nil).Save(ref); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint dataset (%d bytes) differs from the flat dataset over the same rows (%d bytes)", len(got), len(want))
	}
}

// TestAttrsFollowRowsAcrossLifecycle answers filtered queries exactly —
// at an exhaustive budget, against brute force over a model — across
// every hand-over of attribute rows: a warm start over an index with
// metadata, inserts with and without it, background builds, buffered and
// indexed deletes, a checkpoint and a reopen.
func TestAttrsFollowRowsAcrossLifecycle(t *testing.T) {
	const dim = 8
	data, g := testData(74, 600, dim, 4, 0.5)
	var (
		vecs  = append([][]float32(nil), data...)
		attrs = make([]Attrs, len(data))
		dead  = map[int]bool{}
	)
	for i := range attrs {
		if i%3 != 0 {
			attrs[i] = Attrs{"c": IntAttr(int64(i % 4))}
		}
	}
	cfg := Config{Metric: Euclidean, M: 8, Seed: 8}
	filters := []*Filter{
		{Terms: []FilterTerm{EqInt("c", 1)}},
		{Terms: []FilterTerm{EqInt("c", 3)}},
	}
	check := func(d *DynamicIndex, when string) {
		t.Helper()
		live := func(id int) bool { return !dead[id] }
		for qi := 0; qi < 8; qi++ {
			q := vecs[(qi*37)%len(vecs)]
			for fi, f := range filters {
				got, err := d.SearchQuery(q, Query{K: 10, Budget: len(vecs), Filter: f}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteFilter(vecs, attrs, live, q, 10, f, d.Distance); !neighborsEqual(got, want) {
					t.Fatalf("%s: query %d filter %d: %v, brute force %v", when, qi, fi, got, want)
				}
			}
		}
		for id := 0; id < len(vecs); id += 7 {
			want := attrs[id]
			if dead[id] {
				want = nil
			}
			if got := d.Attrs(id); !got.Equal(want) {
				t.Fatalf("%s: Attrs(%d) = %v, want %v", when, id, got, want)
			}
		}
	}
	// write adds rows, every other one with metadata, and deletes every
	// fifth right away (buffered) and one loaded row in ten (indexed).
	write := func(d *DynamicIndex, rows int) {
		t.Helper()
		for i := 0; i < rows; i++ {
			v := g.GaussianVector(dim)
			var a Attrs
			if i%2 == 0 {
				a = Attrs{"c": IntAttr(int64(i % 4))}
			}
			id, err := d.AddWithAttrs(v, a)
			if err != nil {
				t.Fatal(err)
			}
			if id != len(vecs) {
				t.Fatalf("insert got id %d, want %d", id, len(vecs))
			}
			vecs, attrs = append(vecs, v), append(attrs, a)
			if i%5 == 4 && d.Delete(id) {
				dead[id] = true
			}
			if i%10 == 0 && d.Delete(i) {
				dead[i] = true
			}
		}
		d.WaitRebuild()
	}

	ix, err := newShardedWithAttrs(data, attrs, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewDynamicIndexFrom(ix, 64)
	check(mem, "warm start")
	write(mem, 200)
	check(mem, "memory-only writes")

	// The journaled chain replays the same history from a fresh directory.
	vecs, attrs, dead = vecs[:len(data)], attrs[:len(data)], map[int]bool{}
	dir := t.TempDir()
	dc := DurableConfig{Config: cfg, Sync: SyncNone, RebuildAt: 64}
	d, err := OpenDurable(dir, dc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBatchWithAttrs(data, attrs); err != nil {
		t.Fatal(err)
	}
	d.WaitRebuild()
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurable(dir, dc); err != nil {
		t.Fatal(err)
	}
	check(d, "reopen")
	write(d, 200)
	check(d, "journaled writes")
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurable(dir, dc); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	check(d, "checkpoint and reopen")
}
