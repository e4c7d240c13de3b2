package lccs

import (
	"errors"
	"sync"
	"testing"

	"lccs/internal/rng"
)

func TestDynamicAddAndSearch(t *testing.T) {
	data, g := testData(51, 500, 8, 5, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 32, Seed: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 500 || d.Buffered() != 0 {
		t.Fatalf("Len=%d Buffered=%d", d.Len(), d.Buffered())
	}
	// Add vectors below the rebuild threshold: they live in the buffer
	// yet are immediately searchable (exact scan).
	var added []int
	for i := 0; i < 50; i++ {
		v := g.GaussianVector(8)
		id, err := d.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	if d.Buffered() != 50 {
		t.Fatalf("Buffered=%d, want 50", d.Buffered())
	}
	for _, id := range added[:5] {
		res := must(d.Search(d.Vector(id), 1))
		if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
			t.Fatalf("buffered id %d not found: %+v", id, res)
		}
	}
}

func TestDynamicRebuildTriggered(t *testing.T) {
	data, g := testData(52, 200, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := d.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	// At threshold 20, a background shard build started; once it lands
	// the buffer is small.
	d.WaitRebuild()
	if d.Buffered() >= 20 {
		t.Fatalf("Buffered=%d, rebuild did not trigger", d.Buffered())
	}
	if d.Shards() < 2 {
		t.Fatalf("Shards=%d, delta was not built into a new shard", d.Shards())
	}
	if d.Len() != 225 {
		t.Fatalf("Len=%d", d.Len())
	}
	// Ids remain stable after rebuild.
	res := must(d.Search(d.Vector(210), 1))
	if len(res) != 1 || res[0].ID != 210 {
		t.Fatalf("id shifted after rebuild: %+v", res)
	}
}

func TestDynamicDelete(t *testing.T) {
	data, _ := testData(53, 300, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 32, Seed: 3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	q := data[42]
	res := must(d.Search(q, 1))
	if res[0].ID != 42 {
		t.Fatalf("expected self first: %+v", res)
	}
	d.Delete(42)
	res = must(d.Search(q, 3))
	for _, nb := range res {
		if nb.ID == 42 {
			t.Fatal("deleted id still returned")
		}
	}
	if d.Len() != 299 {
		t.Fatalf("Len=%d", d.Len())
	}
	d.Delete(42)     // idempotent
	d.Delete(-1)     // no-op
	d.Delete(100000) // no-op
	if d.Len() != 299 {
		t.Fatalf("Len changed by no-op deletes: %d", d.Len())
	}
}

func TestDynamicEmptyStart(t *testing.T) {
	d, err := NewDynamicIndex(nil, Config{Metric: Euclidean, M: 16, Seed: 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatal("empty start")
	}
	if res := must(d.Search([]float32{1, 2}, 3)); res != nil {
		t.Fatal("search on empty index should be nil")
	}
	_, g := testData(54, 1, 1, 1, 1)
	for i := 0; i < 15; i++ {
		if _, err := d.Add(g.GaussianVector(4)); err != nil {
			t.Fatal(err)
		}
	}
	// Threshold 10 → a shard exists once the background build lands.
	d.WaitRebuild()
	if d.Buffered() >= 10 {
		t.Fatalf("Buffered=%d", d.Buffered())
	}
	res := must(d.Search(d.Vector(12), 1))
	if len(res) != 1 || res[0].ID != 12 {
		t.Fatalf("%+v", res)
	}
}

func TestDynamicDimensionMismatch(t *testing.T) {
	data, _ := testData(55, 50, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add([]float32{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("dimension mismatch: err=%v, want ErrDimensionMismatch", err)
	}
	if _, err := d.Add(nil); !errors.Is(err, ErrEmptyVector) {
		t.Fatalf("nil vector: err=%v, want ErrEmptyVector", err)
	}
}

// TestDynamicBatchWrites pins the batch write methods the serving layer
// calls: the ids and attribute rows of a whole batch, nothing inserted
// on a validation error, and DeleteBatch's live count and missing list.
func TestDynamicBatchWrites(t *testing.T) {
	data, _ := testData(56, 60, 8, 4, 0.5)
	d, err := NewDynamicIndex(data[:50], Config{Metric: Euclidean, M: 16, Seed: 5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	attrs := []Attrs{{"color": StrAttr("red")}, nil, {"price": IntAttr(7)}}
	ids, err := d.AddBatchWithAttrs(data[50:53], attrs)
	if err != nil || len(ids) != 3 || ids[0] != 50 || ids[2] != 52 {
		t.Fatalf("AddBatchWithAttrs = %v, %v; want ids 50..52", ids, err)
	}
	for i, id := range ids {
		if !d.Attrs(id).Equal(attrs[i]) {
			t.Fatalf("Attrs(%d) = %v, want %v", id, d.Attrs(id), attrs[i])
		}
	}
	// A rejected vector rejects the batch whole: nothing is inserted.
	ids, err = d.AddBatchWithAttrs([][]float32{data[53], {1, 2}, data[54]}, nil)
	if !errors.Is(err, ErrDimensionMismatch) || ids != nil {
		t.Fatalf("batch with a bad vector = %v, %v; want no ids and ErrDimensionMismatch", ids, err)
	}
	if d.Len() != 53 {
		t.Fatalf("Len = %d after the rejected batch, want 53", d.Len())
	}
	if ids, err := d.AddBatchWithAttrs(data[53:54], nil); err != nil || len(ids) != 1 || ids[0] != 53 {
		t.Fatalf("batch after the rejected one = %v, %v; want [53]", ids, err)
	}
	if _, err := d.AddBatchWithAttrs(data[54:56], attrs); !errors.Is(err, ErrAttrsMismatch) {
		t.Fatalf("3 attr rows for 2 vectors: err=%v, want ErrAttrsMismatch", err)
	}
	if ids, err := d.AddBatchWithAttrs(nil, nil); ids != nil || err != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", ids, err)
	}
	if ids, err := d.AddBatchWithAttrs(data[54:56], nil); err != nil || len(ids) != 2 {
		t.Fatalf("batch = %v, %v; want two ids", ids, err)
	}
	if _, err := d.Add(data[56]); err != nil {
		t.Fatal(err)
	}

	deleted, missing, err := d.DeleteBatch([]int{3, 52, 999, 3})
	if err != nil || deleted != 2 || len(missing) != 2 || missing[0] != 999 || missing[1] != 3 {
		t.Fatalf("DeleteBatch = %d, %v, %v; want 2 deleted, missing [999 3]", deleted, missing, err)
	}
	if d.Len() != 55 || d.Deleted() != 2 {
		t.Fatalf("Len=%d Deleted=%d after DeleteBatch, want 55 and 2", d.Len(), d.Deleted())
	}
	for _, nb := range must(d.SearchQuery(data[3], Query{K: 5, Budget: 400}, nil)) {
		if nb.ID == 3 || nb.ID == 52 {
			t.Fatalf("batch-deleted id %d still served", nb.ID)
		}
	}
}

func TestDynamicConcurrentReadersAndWriters(t *testing.T) {
	data, g := testData(56, 400, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 6}, 50)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() {
		for i := 0; i < 120; i++ {
			if _, err := d.Add(g.GaussianVector(8)); err != nil {
				t.Error(err)
				break
			}
		}
		done <- true
	}()
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 60; i++ {
				if res := must(d.Search(data[(w*60+i)%400], 3)); len(res) == 0 {
					t.Errorf("worker %d: empty result", w)
					break
				}
			}
			done <- true
		}(w)
	}
	for i := 0; i < 5; i++ {
		<-done
	}
	if d.Len() != 520 {
		t.Fatalf("Len=%d, want 520", d.Len())
	}
}

// TestDynamicHammer drives Add/Delete/Search from many goroutines across
// several background rebuild threshold crossings and checks that ids stay
// stable and no vector is lost. Run under -race this also exercises the
// snapshot-swap synchronization of the background shard builds.
func TestDynamicHammer(t *testing.T) {
	const (
		writers    = 4
		perWriter  = 60
		searchers  = 3
		initial    = 100
		threshold  = 40
		deleteEach = 10 // every writer deletes one of its own ids per deleteEach adds
	)
	data, _ := testData(58, initial, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 8}, threshold)
	if err != nil {
		t.Fatal(err)
	}

	type owned struct {
		id  int
		vec []float32
	}
	addedBy := make([][]owned, writers)
	deletedBy := make([][]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := rng.New(uint64(1000 + w))
			for i := 0; i < perWriter; i++ {
				v := g.GaussianVector(8)
				id, err := d.Add(v)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				addedBy[w] = append(addedBy[w], owned{id: id, vec: v})
				if i%deleteEach == deleteEach-1 {
					victim := addedBy[w][len(addedBy[w])/2].id
					d.Delete(victim)
					deletedBy[w] = append(deletedBy[w], victim)
				}
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				if res := must(d.Search(data[(s*80+i)%initial], 3)); len(res) == 0 {
					t.Errorf("searcher %d: empty result", s)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	d.WaitRebuild()

	// No lost vectors and stable ids: every live id's stored vector is
	// exactly the one its writer added, and ids are globally unique.
	// Deleted ids may already have been reclaimed by a delta-build
	// compaction, in which case Vector answers nil.
	dead := make(map[int][]float32) // deleted id → its vector content
	for w := range deletedBy {
		for _, id := range deletedBy[w] {
			dead[id] = nil
		}
	}
	seen := make(map[int]bool)
	total := initial
	for w := range addedBy {
		for _, o := range addedBy[w] {
			if seen[o.id] {
				t.Fatalf("id %d assigned twice", o.id)
			}
			seen[o.id] = true
			total++
			if _, isDead := dead[o.id]; isDead {
				dead[o.id] = o.vec
				continue
			}
			got := d.Vector(o.id)
			for j := range o.vec {
				if got[j] != o.vec[j] {
					t.Fatalf("id %d: vector content changed", o.id)
				}
			}
		}
	}
	if d.Len() != total-len(dead) {
		t.Fatalf("Len=%d, want %d-%d", d.Len(), total, len(dead))
	}
	// After a full compaction, every live added vector is reachable by an
	// exhaustive-budget search, no tombstoned id ever surfaces, and the
	// tombstone set is fully reclaimed.
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if d.Buffered() != 0 || d.Shards() != 1 {
		t.Fatalf("after compaction: Buffered=%d Shards=%d", d.Buffered(), d.Shards())
	}
	if d.Deleted() != 0 {
		t.Fatalf("Deleted=%d after Rebuild, want 0", d.Deleted())
	}
	for w := range addedBy {
		for _, o := range addedBy[w][:5] {
			if _, isDead := dead[o.id]; isDead {
				continue
			}
			res := must(d.Search(o.vec, 1))
			if len(res) != 1 || res[0].ID != o.id || res[0].Dist != 0 {
				t.Fatalf("writer %d id %d not found after compaction: %+v", w, o.id, res)
			}
		}
	}
	for id, v := range dead {
		if d.Vector(id) != nil {
			t.Fatalf("deleted id %d still holds a row after Rebuild", id)
		}
		for _, nb := range must(d.Search(v, 5)) {
			if nb.ID == id {
				t.Fatalf("tombstoned id %d surfaced", id)
			}
		}
	}
}

// TestDynamicBackgroundBuildDoesNotBlockWriters checks the swap
// architecture directly: while a background shard build is in flight,
// Add and Search proceed and see the buffered vectors.
func TestDynamicBackgroundBuildDoesNotBlockWriters(t *testing.T) {
	data, g := testData(59, 300, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 9}, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Cross the threshold, then immediately keep writing and reading
	// without waiting for the build.
	for i := 0; i < 75; i++ {
		v := g.GaussianVector(8)
		id, err := d.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		res := must(d.Search(v, 1))
		if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
			t.Fatalf("add %d: fresh vector not immediately searchable: %+v", i, res)
		}
	}
	d.WaitRebuild()
	if d.Len() != 375 {
		t.Fatalf("Len=%d", d.Len())
	}
	// Everything eventually lands in shards; ids unchanged.
	res := must(d.Search(d.Vector(350), 1))
	if len(res) != 1 || res[0].ID != 350 {
		t.Fatalf("id 350 lost after background builds: %+v", res)
	}
}

func TestDynamicExplicitRebuild(t *testing.T) {
	data, g := testData(57, 100, 8, 4, 0.5)
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 7}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		d.Add(g.GaussianVector(8))
	}
	if d.Buffered() != 30 {
		t.Fatalf("Buffered=%d", d.Buffered())
	}
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if d.Buffered() != 0 {
		t.Fatalf("Buffered=%d after rebuild", d.Buffered())
	}
}
