package lccs

import (
	"path/filepath"
	"sync"
	"testing"

	"lccs/internal/rng"
)

// TestDynamicDeleteReturnsLiveness pins the Delete contract: true for a
// live id, false for unknown, already-deleted, and compacted-away ids.
func TestDynamicDeleteReturnsLiveness(t *testing.T) {
	data, _ := testData(61, 100, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 11}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Delete(42) {
		t.Fatal("deleting a live id should return true")
	}
	if d.Delete(42) {
		t.Fatal("double delete should return false")
	}
	if d.Delete(-1) || d.Delete(100000) {
		t.Fatal("deleting unknown ids should return false")
	}
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if d.Delete(42) {
		t.Fatal("deleting a compacted-away id should return false")
	}
	if d.Len() != 99 || d.Deleted() != 0 {
		t.Fatalf("Len=%d Deleted=%d", d.Len(), d.Deleted())
	}
}

// TestSnapshotExcludesDeletedRoundTrip is the resurrection regression:
// ids deleted before a snapshot must not appear in the snapshot's own
// results, in results after a save/load round trip, or in a warm
// dynamic index wrapped around the loaded snapshot — across deletes
// landing in the main shards AND the insert buffer.
func TestSnapshotExcludesDeletedRoundTrip(t *testing.T) {
	data, g := testData(62, 300, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 12}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Two buffered inserts; delete one of them plus two shard-resident
	// ids. Keep copies of the deleted vectors — their rows may be
	// reclaimed.
	bufKeep, err := d.Add(g.GaussianVector(8))
	if err != nil {
		t.Fatal(err)
	}
	bufDead, err := d.Add(g.GaussianVector(8))
	if err != nil {
		t.Fatal(err)
	}
	deadVecs := map[int][]float32{
		7:       append([]float32(nil), data[7]...),
		250:     append([]float32(nil), data[250]...),
		bufDead: append([]float32(nil), d.Vector(bufDead)...),
	}
	for id := range deadVecs {
		if !d.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}

	vectors, sx, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The buffered tombstone was compacted away entirely; the shard
	// tombstones remain as filtered rows.
	if got := len(vectors); got != 301 {
		t.Fatalf("snapshot rows = %d, want 301", got)
	}
	if sx.Len() != 299 || sx.Deleted() != 2 {
		t.Fatalf("snapshot Len=%d Deleted=%d, want 299/2", sx.Len(), sx.Deleted())
	}

	path := filepath.Join(t.TempDir(), "snap.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, vectors)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewDynamicIndexFrom(loaded, 10000)

	exhaustive := 4 * len(vectors)
	searchers := map[string]Searcher{"snapshot": sx, "loaded": loaded, "warm": warm}
	for name, s := range searchers {
		if s.Len() != 299 {
			t.Fatalf("%s: Len=%d, want 299", name, s.Len())
		}
		for id, v := range deadVecs {
			res := must(s.SearchQuery(v, Query{K: 5, Budget: exhaustive}, nil))
			if len(res) == 0 {
				t.Fatalf("%s: no results at all", name)
			}
			for _, nb := range res {
				if nb.ID == id {
					t.Fatalf("%s: deleted id %d resurrected", name, id)
				}
			}
		}
		// Live ids — including the surviving buffered insert, whose slot
		// shifted during buffer compaction — answer under their stable
		// external id.
		for _, id := range []int{0, 150, bufKeep} {
			res := must(s.SearchQuery(vectors[mustSlot(t, loaded, id)], Query{K: 1, Budget: exhaustive}, nil))
			if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
				t.Fatalf("%s: live id %d not served: %+v", name, id, res)
			}
		}
	}

	// The warm restart keeps the tombstones dead through a second
	// save/load generation and never reuses a deleted id for new adds.
	newID, err := warm.Add(g.GaussianVector(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, isDead := deadVecs[newID]; isDead || newID <= bufDead {
		t.Fatalf("new id %d reuses a dead or old id (watermark broken)", newID)
	}
	vectors2, snap2, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "snap2.lccs")
	if err := snap2.Save(path2); err != nil {
		t.Fatal(err)
	}
	loaded2, err := Load(path2, vectors2)
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range deadVecs {
		for _, nb := range must(loaded2.SearchQuery(v, Query{K: 5, Budget: exhaustive}, nil)) {
			if nb.ID == id {
				t.Fatalf("deleted id %d resurrected in second generation", id)
			}
		}
	}
}

// mustSlot maps an external id to its row position in the snapshot's
// vector slice via the loaded index's id map (identity when no
// compaction happened).
func mustSlot(t *testing.T, sx *Index, id int) int {
	t.Helper()
	if sx.ids == nil {
		return id
	}
	slot, ok := sx.ids.Slot(id)
	if !ok {
		t.Fatalf("id %d has no slot", id)
	}
	return slot
}

// blockBytes sums the bytes of the row blocks a set's sources view.
func blockBytes(s *segSet) int64 {
	var total int64
	for _, b := range s.blocks() {
		total += b.Bytes()
	}
	return total
}

// TestRebuildReclaimsMemory pins the churn-leak regression: repeated
// delete+Rebuild cycles must hold the store flat instead of
// accumulating dead rows and tombstones forever.
func TestRebuildReclaimsMemory(t *testing.T) {
	data, g := testData(63, 400, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 13}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	baseRows := d.slots()
	baseBytes := blockBytes(&d.segSet)
	for cycle := 0; cycle < 5; cycle++ {
		var ids []int
		for i := 0; i < 100; i++ {
			id, err := d.Add(g.GaussianVector(8))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if !d.Delete(id) {
				t.Fatalf("cycle %d: delete %d failed", cycle, id)
			}
		}
		if err := d.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if d.slots() != baseRows || blockBytes(&d.segSet) != baseBytes {
			t.Fatalf("cycle %d: store grew to %d rows / %d bytes (base %d / %d)",
				cycle, d.slots(), blockBytes(&d.segSet), baseRows, baseBytes)
		}
		if d.Len() != baseRows || d.Deleted() != 0 || d.Buffered() != 0 {
			t.Fatalf("cycle %d: Len=%d Deleted=%d Buffered=%d", cycle, d.Len(), d.Deleted(), d.Buffered())
		}
	}
	// The original vectors still answer under their original ids.
	res := must(d.Search(data[123], 1))
	if len(res) != 1 || res[0].ID != 123 || res[0].Dist != 0 {
		t.Fatalf("id 123 lost across compaction cycles: %+v", res)
	}
}

// TestDeltaBuildCompactsBufferedTombstones: vectors deleted while still
// in the insert buffer are dropped by the background delta build — no
// index work spent on them, no tombstone carried forward.
func TestDeltaBuildCompactsBufferedTombstones(t *testing.T) {
	data, g := testData(64, 100, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 14}, 40)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 39; i++ { // one under the threshold
		id, err := d.Add(g.GaussianVector(8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:20] {
		d.Delete(id)
	}
	// Crossing the threshold compacts the 20 dead buffered rows away —
	// and the remaining buffer (19 live + 1 new) stays under the
	// threshold, so no shard build runs at all.
	if _, err := d.Add(g.GaussianVector(8)); err != nil {
		t.Fatal(err)
	}
	d.WaitRebuild()
	if d.Shards() != 1 {
		t.Fatalf("Shards=%d: compaction should have kept the buffer under the threshold", d.Shards())
	}
	if d.Deleted() != 0 {
		t.Fatalf("Deleted=%d, buffered tombstones not reclaimed", d.Deleted())
	}
	if d.Len() != 120 || d.Buffered() != 20 {
		t.Fatalf("Len=%d Buffered=%d, want 120/20", d.Len(), d.Buffered())
	}
	// Enough further adds cross the threshold for real; the delta shard
	// then covers the compacted slots and ids still resolve.
	for i := 0; i < 40; i++ {
		if _, err := d.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitRebuild()
	if d.Shards() < 2 {
		t.Fatalf("Shards=%d, delta build never ran", d.Shards())
	}
	live := ids[25]
	res := must(d.Search(d.Vector(live), 1))
	if len(res) != 1 || res[0].ID != live || res[0].Dist != 0 {
		t.Fatalf("live id %d lost after buffer compaction: %+v", live, res)
	}
	for _, id := range ids[:20] {
		if d.Vector(id) != nil {
			t.Fatalf("dead buffered id %d still holds a row", id)
		}
	}
}

// TestOverfetchClampYieldsLiveResults: with most of a shard
// tombstoned, the per-shard fetch is clamped to the shard size yet k
// live results still come back.
func TestOverfetchClampYieldsLiveResults(t *testing.T) {
	data, _ := testData(65, 200, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 15}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone 90% of the single main shard.
	for id := 0; id < 180; id++ {
		if !d.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	const k = 10
	res := must(d.SearchQuery(data[190], Query{K: k, Budget: 3 * len(data)}, nil))
	if len(res) != k {
		t.Fatalf("got %d results, want %d live", len(res), k)
	}
	for _, nb := range res {
		if nb.ID < 180 {
			t.Fatalf("tombstoned id %d surfaced", nb.ID)
		}
	}
	// More live results than exist: all 20 survivors, nothing else.
	res = must(d.SearchQuery(data[190], Query{K: 50, Budget: 3 * len(data)}, nil))
	if len(res) != 20 {
		t.Fatalf("got %d results, want the 20 live vectors", len(res))
	}
}

// TestDeleteEverythingThenRebuild: the degenerate end of the lifecycle —
// an index whose every vector was deleted compacts to empty and stays
// usable.
func TestDeleteEverythingThenRebuild(t *testing.T) {
	data, g := testData(66, 50, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 16}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 50; id++ {
		d.Delete(id)
	}
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 || d.Deleted() != 0 || d.Shards() != 0 {
		t.Fatalf("Len=%d Deleted=%d Shards=%d", d.Len(), d.Deleted(), d.Shards())
	}
	if res := must(d.Search(data[0], 3)); res != nil {
		t.Fatalf("empty index returned %+v", res)
	}
	// Still writable; new ids continue past the watermark.
	id, err := d.Add(g.GaussianVector(8))
	if err != nil {
		t.Fatal(err)
	}
	if id != 50 {
		t.Fatalf("post-wipe id = %d, want 50", id)
	}
	res := must(d.Search(d.Vector(id), 1))
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("post-wipe insert not served: %+v", res)
	}
}

// TestDynamicHammerWithCompaction drives concurrent Add/Delete/Search
// against periodic synchronous Rebuild compactions — the full mutation
// lifecycle under -race. Ids must stay stable and deleted ids must
// never surface, no matter how slots shift underneath.
func TestDynamicHammerWithCompaction(t *testing.T) {
	const (
		writers   = 4
		perWriter = 50
		initial   = 120
		threshold = 30
	)
	data, _ := testData(67, initial, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 22}, threshold)
	if err != nil {
		t.Fatal(err)
	}

	type owned struct {
		id  int
		vec []float32
	}
	addedBy := make([][]owned, writers)
	deletedBy := make([][]owned, writers)
	var writerWG, compactorWG sync.WaitGroup
	stop := make(chan struct{})
	// Compactor: explicit Rebuilds race the writers and searchers.
	compactorWG.Add(1)
	go func() {
		defer compactorWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				if err := d.Rebuild(); err != nil {
					t.Errorf("rebuild: %v", err)
					return
				}
				continue
			}
			// Snapshots race the background delta builds too: a snapshot
			// whose buffer compaction shifts slots must invalidate any
			// in-flight build rather than let it swap in stale offsets.
			if _, _, err := d.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			g := rng.New(uint64(2000 + w))
			for i := 0; i < perWriter; i++ {
				v := g.GaussianVector(8)
				id, err := d.Add(v)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				addedBy[w] = append(addedBy[w], owned{id: id, vec: v})
				if i%5 == 4 {
					mine := addedBy[w]
					victim := mine[g.IntN(len(mine))]
					if d.Delete(victim.id) {
						deletedBy[w] = append(deletedBy[w], victim)
					}
				}
				if i%7 == 0 {
					if _, err := d.Search(v, 3); err != nil {
						t.Errorf("writer %d search: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	compactorWG.Wait()
	d.WaitRebuild()

	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	dead := make(map[int]bool)
	total, nDeleted := initial, 0
	for w := 0; w < writers; w++ {
		total += len(addedBy[w])
		for _, o := range deletedBy[w] {
			if !dead[o.id] {
				dead[o.id] = true
				nDeleted++
			}
		}
	}
	if d.Len() != total-nDeleted {
		t.Fatalf("Len=%d, want %d", d.Len(), total-nDeleted)
	}
	if d.Deleted() != 0 {
		t.Fatalf("Deleted=%d after final Rebuild", d.Deleted())
	}
	for w := 0; w < writers; w++ {
		for _, o := range addedBy[w] {
			if dead[o.id] {
				continue
			}
			res := must(d.Search(o.vec, 1))
			if len(res) != 1 || res[0].ID != o.id || res[0].Dist != 0 {
				t.Fatalf("live id %d lost under compaction churn: %+v", o.id, res)
			}
		}
		for _, o := range deletedBy[w] {
			for _, nb := range must(d.Search(o.vec, 5)) {
				if nb.ID == o.id {
					t.Fatalf("deleted id %d surfaced under compaction churn", o.id)
				}
			}
		}
	}
}
