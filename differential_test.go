package lccs

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"lccs/internal/rng"
)

// lifecycleModel is the brute-force model the differential test drives
// beside an index: every vector ever added, the physical rows in slot
// order, which of them are tombstoned, and how many of them index shards
// cover — enough to predict Len, Deleted, Buffered and Shards through
// every compaction rule of the lifecycle (a background build first drops
// the buffer's tombstoned rows; Snapshot and Checkpoint do the same;
// Rebuild drops every tombstoned row and leaves one shard).
type lifecycleModel struct {
	vecs      [][]float32 // by id
	attrs     []Attrs     // by id
	slots     []int       // ids of the physical rows, slot order
	dead      map[int]bool
	indexed   int
	shards    int
	rebuildAt int
}

func (m *lifecycleModel) live() func(id int) bool {
	held := map[int]bool{}
	for _, id := range m.slots {
		held[id] = !m.dead[id]
	}
	return func(id int) bool { return held[id] }
}

func (m *lifecycleModel) liveIDs() (ids []int) {
	for _, id := range m.slots {
		if !m.dead[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// compactBuffer drops the tombstoned rows no shard covers.
func (m *lifecycleModel) compactBuffer() {
	kept := m.slots[:m.indexed:m.indexed]
	for _, id := range m.slots[m.indexed:] {
		if m.dead[id] {
			delete(m.dead, id)
		} else {
			kept = append(kept, id)
		}
	}
	m.slots = kept
}

// add appends a row and, with every build waited for, runs the background
// build a full buffer triggers.
func (m *lifecycleModel) add(v []float32, a Attrs) (id int) {
	id = len(m.vecs)
	m.vecs, m.attrs, m.slots = append(m.vecs, v), append(m.attrs, a), append(m.slots, id)
	if len(m.slots)-m.indexed >= m.rebuildAt {
		if m.compactBuffer(); len(m.slots)-m.indexed >= m.rebuildAt {
			m.indexed, m.shards = len(m.slots), m.shards+1
		}
	}
	return id
}

func (m *lifecycleModel) delete(id int) bool {
	if !m.live()(id) {
		return false
	}
	m.dead[id] = true
	return true
}

func (m *lifecycleModel) rebuild() {
	m.slots, m.dead = m.liveIDs(), map[int]bool{}
	m.indexed, m.shards = len(m.slots), min(1, len(m.slots))
}

// snapshot is the model of Snapshot's result (and of a checkpoint
// reopened): the buffer compacted and indexed as one more shard.
func (m *lifecycleModel) snapshot() *lifecycleModel {
	m.compactBuffer()
	snap := *m
	snap.slots = append([]int(nil), m.slots...)
	snap.dead = map[int]bool{}
	for id := range m.dead {
		snap.dead[id] = true
	}
	if snap.indexed < len(snap.slots) {
		snap.indexed, snap.shards = len(snap.slots), snap.shards+1
	}
	return &snap
}

// lifecycleFacade is what the model predicts of any facade.
type lifecycleFacade interface {
	Searcher
	Deleted() int
	Shards() int
}

// check holds s to the model: the counters, and — one-shot at λ = Len(),
// filtered one-shot, full cursor drain — brute force over the live rows.
func (m *lifecycleModel) check(t *testing.T, where string, s lifecycleFacade, q []float32) {
	t.Helper()
	live := m.liveIDs()
	if s.Len() != len(live) || s.Deleted() != len(m.dead) || s.Shards() != m.shards {
		t.Fatalf("%s: Len %d, Deleted %d, Shards %d; the model says %d, %d, %d", where, s.Len(), s.Deleted(), s.Shards(), len(live), len(m.dead), m.shards)
	}
	if d, ok := s.(interface{ Buffered() int }); ok && d.Buffered() != len(m.slots)-m.indexed {
		t.Fatalf("%s: Buffered %d, the model says %d", where, d.Buffered(), len(m.slots)-m.indexed)
	}
	if len(live) == 0 {
		if res, err := s.SearchQuery(q, Query{K: 5}, nil); err != nil || len(res) != 0 {
			t.Fatalf("%s: empty index answered %v, %v", where, res, err)
		}
		return
	}
	budget, red := s.Len(), testFilters()["eq-str"]
	for _, f := range []*Filter{nil, red} {
		want := bruteFilter(m.vecs, m.attrs, m.live(), q, len(live), f, s.Distance)
		got := must(s.SearchQuery(q, Query{K: 10, Budget: budget, Filter: f}, nil))
		if !neighborsEqual(got, want[:min(10, len(want))]) {
			t.Fatalf("%s (filtered: %v): one-shot at λ = Len() %v, brute force %v", where, f != nil, got, want[:min(10, len(want))])
		}
		if f == nil {
			if drained := drainCursor(t, s, q, 7, budget, nil); !neighborsEqual(drained, want) {
				t.Fatalf("%s: cursor drained %v, brute force %v", where, drained, want)
			}
		}
	}
}

// TestLifecycleDifferential drives seeded random op sequences through a
// memory-only and a journaled DynamicIndex beside the brute-force model,
// checking after every step; a snapshot taken on the way (and the loaded
// container a restart adopts) is checked again after the source has moved
// on, which is what holds freeze to cloning the id map and the tombstone
// bitset.
func TestLifecycleDifferential(t *testing.T) {
	const dim, rebuildAt, steps = 6, 24, 260
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}
	colors := []string{"red", "green", "blue"}
	for _, durable := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("durable=%v/seed=%d", durable, seed)
			g := rng.New(seed)
			m := &lifecycleModel{dead: map[int]bool{}, rebuildAt: rebuildAt}
			dir := t.TempDir()
			dc := DurableConfig{Config: cfg, RebuildAt: rebuildAt}
			var d *DynamicIndex
			if durable {
				d = must(OpenDurable(dir, dc))
			} else {
				d = must(NewDynamicIndex(nil, cfg, rebuildAt))
			}
			type frozen struct {
				where string
				sx    *Index
				m     *lifecycleModel
			}
			var kept []frozen
			q := g.GaussianVector(dim)
			for step := 0; step < steps; step++ {
				where := fmt.Sprintf("%s/step %d", name, step)
				switch op := g.IntN(100); {
				case op < 55:
					v := g.GaussianVector(dim)
					var a Attrs
					if g.IntN(4) > 0 {
						a = Attrs{"color": StrAttr(colors[g.IntN(3)])}
					}
					id := must(d.AddWithAttrs(v, a))
					d.WaitRebuild()
					if want := m.add(v, a); id != want {
						t.Fatalf("%s: Add returned id %d, the model says %d", where, id, want)
					}
				case op < 80:
					id := g.IntN(len(m.vecs) + 2)
					if got, want := d.Delete(id), m.delete(id); got != want {
						t.Fatalf("%s: Delete(%d) = %v, the model says %v", where, id, got, want)
					}
				case op < 85:
					if err := d.Rebuild(); err != nil {
						t.Fatalf("%s: Rebuild: %v", where, err)
					}
					m.rebuild()
				case op < 92 && len(m.liveIDs()) > 0:
					// A snapshot, and the source keeps going.
					_, sx, err := d.Snapshot()
					if err != nil {
						t.Fatalf("%s: Snapshot: %v", where, err)
					}
					kept = append(kept, frozen{where + " snapshot", sx, m.snapshot()})
				case len(m.liveIDs()) == 0:
				case durable:
					if _, err := d.Checkpoint(); err != nil {
						t.Fatalf("%s: Checkpoint: %v", where, err)
					}
					if err := d.Close(); err != nil {
						t.Fatalf("%s: Close: %v", where, err)
					}
					if d = must(OpenDurable(dir, dc)); d.Recovery().Records != 0 {
						t.Fatalf("%s: replayed %d records over a fresh checkpoint", where, d.Recovery().Records)
					}
					m = m.snapshot()
				default:
					// A warm restart: the loaded container stays behind as
					// one more frozen view of this moment.
					rows, sx, err := d.Snapshot()
					if err != nil {
						t.Fatalf("%s: Snapshot: %v", where, err)
					}
					path := filepath.Join(dir, "snap.lccs")
					if err := sx.Save(path); err != nil {
						t.Fatalf("%s: Save: %v", where, err)
					}
					loaded := must(Load(path, rows))
					d = NewDynamicIndexFrom(loaded, rebuildAt)
					m = m.snapshot()
					kept = append(kept, frozen{where + " loaded", loaded, m.snapshot()})
				}
				m.check(t, where, d, q)
				if len(kept) > 3 {
					kept = kept[1:]
				}
				for _, fz := range kept {
					fz.m.check(t, where+", "+fz.where, fz.sx, q)
				}
			}
			d.Close()
		}
	}
}

// TestLifecycleConcurrent is the differential test's concurrent slice:
// writers add and delete while one goroutine snapshots and compacts and
// readers search at λ = Len(). The model is a per-id log of sequence
// numbers: an id whose Add had returned before a call began and whose
// Delete had not begun when it ended must be in the call's answer; an id
// whose Delete had returned before the call began must not be. A snapshot
// answers the same way — and answers identically again after the source
// has moved on.
//
// The journaled variant runs the same schedule on an index OpenDurable
// opened, with one more goroutine checkpointing in a loop, then crashes
// it: the reopened index must hold exactly the live ids of the crashed
// one, each with a bit-identical vector.
func TestLifecycleConcurrent(t *testing.T) {
	const rebuildAt = 32
	cfg := Config{Metric: Euclidean, M: 16, Seed: 9, BucketWidth: 1}
	t.Run("memory", func(t *testing.T) {
		lifecycleConcurrent(t, must(NewDynamicIndex(nil, cfg, rebuildAt)))
	})
	t.Run("journaled", func(t *testing.T) {
		dir := t.TempDir()
		dc := DurableConfig{Config: cfg, Sync: SyncNone, RebuildAt: rebuildAt}
		d := must(OpenDurable(dir, dc))
		lifecycleConcurrent(t, d)
		crash(d)
		// Replay fails the reopen when a record's id is not the one the
		// replayed insert draws, so reopening is the id-mismatch check.
		re, err := OpenDurable(dir, dc)
		if err != nil {
			t.Fatalf("reopen after the crash: %v", err)
		}
		defer re.Close()
		q := make([]float32, 6)
		live, recovered := searchIDs(t, d, q, d.Len()), searchIDs(t, re, q, d.Len())
		if len(recovered) != len(live) || re.Len() != len(live) {
			t.Fatalf("recovered %d live ids (Len %d), the crashed index held %d", len(recovered), re.Len(), len(live))
		}
		for id := range recovered {
			if !live[id] {
				t.Fatalf("recovered id %d was not live at the crash", id)
			}
			was, now := d.Vector(id), re.Vector(id)
			if len(was) != len(now) {
				t.Fatalf("id %d: recovered a %d-dim vector, want %d", id, len(now), len(was))
			}
			for i := range was {
				if math.Float32bits(was[i]) != math.Float32bits(now[i]) {
					t.Fatalf("id %d: recovered %v, the crashed index held %v", id, now, was)
				}
			}
		}
	})
}

// lifecycleConcurrent runs TestLifecycleConcurrent's schedule on d; on a
// journaled d one more goroutine checkpoints in a loop. Every goroutine
// has joined when it returns.
func lifecycleConcurrent(t *testing.T, d *DynamicIndex) {
	const writers, perWriter, readers, dim = 3, 70, 2, 6
	const total = writers * perWriter
	var seq atomic.Int64
	var added, delBegun, delDone [total]atomic.Int64
	q := rng.New(77).GaussianVector(dim)
	// answer runs one exhaustive search and holds it to the log.
	answer := func(who string, search func() []Neighbor) []Neighbor {
		since := seq.Load()
		res := search()
		until := seq.Load()
		got := map[int]bool{}
		for _, nb := range res {
			if nb.ID < 0 || nb.ID >= total || got[nb.ID] {
				t.Errorf("%s: malformed result %v", who, res)
				return res
			}
			got[nb.ID] = true
			if at := delDone[nb.ID].Load(); at != 0 && at <= since {
				t.Errorf("%s: id %d answered after its Delete returned", who, nb.ID)
			}
		}
		for id := 0; id < total; id++ {
			at, gone := added[id].Load(), delBegun[id].Load()
			if at != 0 && at <= since && (gone == 0 || gone > until) && !got[id] {
				t.Errorf("%s: live id %d missing from an exhaustive answer of %d rows", who, id, len(res))
			}
		}
		return res
	}
	exhaustive := func(s Searcher) func() []Neighbor {
		return func() []Neighbor {
			if s.Len() == 0 {
				return nil
			}
			return must(s.SearchQuery(q, Query{K: total, Budget: total}, nil))
		}
	}

	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			g := rng.New(uint64(300 + w))
			var mine []int
			for i := 0; i < perWriter; i++ {
				id, err := d.AddWithAttrs(g.GaussianVector(dim), nil)
				if err != nil || id < 0 || id >= total {
					t.Errorf("writer %d: Add = %d, %v", w, id, err)
					return
				}
				added[id].Store(seq.Add(1))
				if mine = append(mine, id); i%3 == 2 {
					victim := mine[g.IntN(len(mine))]
					if delBegun[victim].Load() == 0 {
						delBegun[victim].Store(seq.Add(1))
						if !d.Delete(victim) {
							t.Errorf("writer %d: Delete(%d) of a live id reported false", w, victim)
						}
						delDone[victim].Store(seq.Add(1))
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
					answer(fmt.Sprintf("reader %d", r), exhaustive(d))
				}
			}
		}(r)
	}
	if d.Dir() != "" {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				if _, err := d.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writing.Add(1)
	go func() {
		defer writing.Done()
		for i := 0; i < 8; i++ {
			if d.Len() == 0 {
				continue
			}
			var sx *Index
			first := answer("snapshot", func() []Neighbor {
				var err error
				if _, sx, err = d.Snapshot(); err != nil {
					t.Errorf("Snapshot: %v", err)
					return nil
				}
				return exhaustive(sx)()
			})
			if i%3 == 2 {
				if err := d.Rebuild(); err != nil {
					t.Errorf("Rebuild: %v", err)
				}
			}
			d.WaitRebuild()
			if sx != nil && !neighborsEqual(exhaustive(sx)(), first) {
				t.Errorf("snapshot %d changed its answer while the source moved on", i)
			}
		}
	}()
	writing.Wait()
	close(done)
	reading.Wait()
	d.WaitRebuild()
	answer("final", exhaustive(d))
}
