package lccs

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"lccs/internal/core"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// TestSlotSet covers the tombstone bitset: growth on Set, Has past the
// end, range counts across word boundaries, Truncate and Clone.
func TestSlotSet(t *testing.T) {
	var s slotSet
	if s.Has(0) || s.Has(1<<20) || s.Has(-1) || s.Count() != 0 || s.CountRange(0, 1000) != 0 {
		t.Fatal("zero set is not empty")
	}
	slots := []int{0, 1, 63, 64, 65, 127, 128, 200, 511, 512, 1000}
	for _, slot := range slots {
		s.Set(slot)
		s.Set(slot) // idempotent
	}
	if s.Count() != len(slots) || len(s.words) != 1000/64+1 {
		t.Fatalf("Count=%d words=%d", s.Count(), len(s.words))
	}
	in := map[int]bool{}
	for _, slot := range slots {
		in[slot] = true
	}
	for slot := -2; slot < 1100; slot++ {
		if s.Has(slot) != in[slot] {
			t.Fatalf("Has(%d) = %v", slot, s.Has(slot))
		}
	}
	var asc []int
	s.Each(func(slot int) { asc = append(asc, slot) })
	if fmt.Sprint(asc) != fmt.Sprint(slots) {
		t.Fatalf("Each: %v, want %v", asc, slots)
	}
	for _, r := range [][2]int{{0, 0}, {0, 1}, {0, 64}, {1, 64}, {63, 65}, {64, 64}, {64, 128}, {65, 127}, {65, 128},
		{100, 600}, {0, 1001}, {0, 5000}, {1000, 1001}, {1001, 5000}, {3000, 4000}, {513, 1000}} {
		want := 0
		for _, slot := range slots {
			if slot >= r[0] && slot < r[1] {
				want++
			}
		}
		if got := s.CountRange(r[0], r[1]); got != want {
			t.Fatalf("CountRange(%d, %d) = %d, want %d", r[0], r[1], got, want)
		}
	}

	c := s.Clone()
	c.Set(7)
	c.Truncate(128)
	if s.Has(7) || !s.Has(128) || s.Count() != len(slots) {
		t.Fatal("Clone shares state with its source")
	}
	if c.Count() != 7 || c.Has(128) || c.Has(1000) || !c.Has(127) || !c.Has(7) || c.CountRange(0, 5000) != 7 {
		t.Fatalf("Truncate(128): Count=%d", c.Count())
	}
	c.Truncate(65) // mid-word
	if c.Count() != 5 || c.Has(65) || c.Has(127) || !c.Has(64) {
		t.Fatalf("Truncate(65): Count=%d", c.Count())
	}
	c.Set(127) // a reissued slot starts clear around it
	if c.Count() != 6 || c.Has(126) || c.Has(65) || c.CountRange(65, 128) != 1 {
		t.Fatalf("Set after Truncate: Count=%d", c.Count())
	}
	c.Truncate(5000) // past the end: nothing to drop
	c.Truncate(0)
	if c.Count() != 0 || c.Has(0) || len(c.words) != 0 {
		t.Fatalf("Truncate(0): Count=%d", c.Count())
	}
}

// tombState is one tombstoned index as the oracles of
// TestTombstoneStreamMatchesOverfetch see it: the facade under test, its
// shards and buffer, and — independent of the index's own bitset and
// per-shard counters — the model set of deleted external ids.
type tombState struct {
	s       Searcher
	shards  []segment
	metric  vec.Metric
	attrs   func(slot int) Attrs
	tail    *vec.Store // the buffer's rows, slots [bufLo, rows)
	bufLo   int
	rows    int
	ext     func(slot int) int
	deleted map[int]bool
}

func dynState(d *DynamicIndex, deleted map[int]bool) *tombState {
	return setState(d, &d.segSet, deleted)
}

func indexState(sx *Index, deleted map[int]bool) *tombState {
	return setState(sx, &sx.segSet, deleted)
}

func setState(s Searcher, set *segSet, deleted map[int]bool) *tombState {
	return &tombState{s: s, shards: set.segs, metric: set.metric, attrs: set.attrRow, tail: set.tail,
		bufLo: set.indexed, rows: set.slots(), ext: set.ids.Ext, deleted: deleted}
}

// split maps a query's budget to one shard's by the one budget rule, from
// the model's deleted set rather than the index's counters: ⌈λ/S⌉, and a λ
// covering every live indexed row is not split. It is the one-shot's and
// the cursor's alike.
func (st *tombState) split(lambda int) int {
	live := 0
	for slot := 0; slot < st.bufLo; slot++ {
		if !st.dead(slot) {
			live++
		}
	}
	if s := len(st.shards); s > 1 && lambda < live {
		return (lambda + s - 1) / s
	}
	return lambda
}

func (st *tombState) dead(slot int) bool { return st.deleted[st.ext(slot)] }

// top ranks merged slot-space candidates by (Dist, slot) and returns the
// first k in the external id space.
func (st *tombState) top(all []pqueue.Neighbor, k int) []Neighbor {
	sort.Slice(all, func(i, j int) bool {
		return all[i].Dist < all[j].Dist || (all[i].Dist == all[j].Dist && all[i].ID < all[j].ID)
	})
	out := []Neighbor{}
	for _, nb := range all[:min(k, len(all))] {
		out = append(out, Neighbor{ID: st.ext(nb.ID), Dist: nb.Dist})
	}
	return out
}

// buffer appends the exact scan of the live buffered rows matching f.
func (st *tombState) buffer(all []pqueue.Neighbor, q []float32, f *Filter) []pqueue.Neighbor {
	st.tail.Scan(0, st.tail.Len(), q, st.metric, func(i int, dist float64) {
		if slot := st.bufLo + i; !st.dead(slot) && f.Matches(st.attrs(slot)) {
			all = append(all, pqueue.Neighbor{ID: slot, Dist: dist})
		}
	})
	return all
}

// shardSearch is one shard's k nearest under budget lambda — the first
// λ + k − 1 candidates of its stream, restricted to accept when non-nil —
// in the set's slot space, the shard starting at slot off.
func shardSearch(c *core.Index, q []float32, k, lambda, off int, accept func(local int) bool) []pqueue.Neighbor {
	var best pqueue.KBest
	best.Reset(k)
	st := c.Open(q, c.HashQuery(q, nil), off, nil)
	if accept != nil {
		st.Filter(accept)
	}
	st.Verify(lambda+k-1, &best)
	return best.Sorted()
}

// overfetch is the parent commit's unfiltered query: every shard fetches
// its min(k+dead, len) nearest of the λ_shard + that − 1 stream prefix
// with no tombstone knowledge, the dead rows are shed afterwards, and the
// survivors merge with the buffer's exact scan.
func (st *tombState) overfetch(q []float32, k, lambda int) []Neighbor {
	var all []pqueue.Neighbor
	for _, sh := range st.shards {
		dead := 0
		for local := 0; local < sh.core.N(); local++ {
			if st.dead(sh.off + local) {
				dead++
			}
		}
		res := shardSearch(sh.core, q, min(k+dead, sh.core.N()), st.split(lambda), sh.off, nil)
		for _, nb := range res {
			if !st.dead(nb.ID) {
				all = append(all, nb)
			}
		}
	}
	return st.top(st.buffer(all, q, nil), k)
}

// inStream is the parent commit's filtered query — every shard's k
// nearest under its budget with tombstones and f rejected by one accept
// predicate, for free — keeping the first `keep` of the merge. With k = a
// shard's candidate count and a budget of 1 it is a filtered cursor's
// whole ranking: exactly that many live matching candidates verified.
func (st *tombState) inStream(q []float32, k, budget int, f *Filter, keep int) []Neighbor {
	var all []pqueue.Neighbor
	for _, sh := range st.shards {
		off := sh.off
		accept := func(local int) bool { return !st.dead(off+local) && f.Matches(st.attrs(off+local)) }
		res := shardSearch(sh.core, q, k, budget, off, accept)
		all = append(all, res...)
	}
	return st.top(st.buffer(all, q, f), keep)
}

// candidates is a cursor's whole ranking: every candidate the one-shot
// query at k0 verifies, ranked. Unfiltered, that is each shard's
// λ_shard + min(k0+dead, len) − 1 stream prefix with the dead rows shed;
// filtered, the in-stream λ_shard + k0 − 1 live matching candidates; and
// the buffer's exact scan either way.
func (st *tombState) candidates(q []float32, k0, lambda int, f *Filter) []Neighbor {
	if f != nil {
		return st.inStream(q, st.split(lambda)+k0-1, 1, f, st.rows)
	}
	var all []pqueue.Neighbor
	for _, sh := range st.shards {
		dead := 0
		for local := 0; local < sh.core.N(); local++ {
			if st.dead(sh.off + local) {
				dead++
			}
		}
		prefix := st.split(lambda) + min(k0+dead, sh.core.N()) - 1
		res := shardSearch(sh.core, q, prefix, 1, sh.off, nil)
		for _, nb := range res {
			if !st.dead(nb.ID) {
				all = append(all, nb)
			}
		}
	}
	return st.top(st.buffer(all, q, nil), st.rows)
}

// check compares every query shape of one state with its oracle.
func (st *tombState) check(t *testing.T, name string, queries [][]float32, n, per int) {
	t.Helper()
	red := testFilters()["eq-str"]
	for qi, q := range queries {
		for _, k := range []int{1, 10, per + 5, n + 5} {
			for _, lambda := range []int{1, 2, 5, 7, 0, 4 * n} {
				eff := lambda
				if eff == 0 {
					eff = defaultBudget
				}
				label := fmt.Sprintf("%s/q%d/k=%d/λ=%d", name, qi, k, lambda)
				want := st.overfetch(q, k, eff)
				// A reused dst scans the shards one after another, a nil
				// dst may fan them out in goroutines.
				for _, dst := range [][]Neighbor{make([]Neighbor, 0, 4), nil} {
					got := must(st.s.SearchQuery(q, Query{K: k, Budget: lambda}, dst))
					if !neighborsEqual(got, want) {
						t.Fatalf("%s (dst nil: %v): got %v, over-fetch oracle says %v", label, dst == nil, got, want)
					}
				}
				want = st.inStream(q, k, st.split(eff), red, k)
				if got := must(st.s.SearchQuery(q, Query{K: k, Budget: lambda, Filter: red}, nil)); !neighborsEqual(got, want) {
					t.Fatalf("%s filtered: got %v, in-stream oracle says %v", label, got, want)
				}
			}
		}
		for _, f := range []*Filter{nil, red} {
			for _, lambda := range []int{1, 7, 4 * n} {
				want := st.candidates(q, 7, lambda, f)
				got := drainCursor(t, st.s, q, 7, lambda, f)
				if !neighborsEqual(got, want) {
					t.Fatalf("%s/q%d/λ=%d cursor (filtered: %v): drained %v, the first page's candidates ranked are %v", name, qi, lambda, f != nil, got, want)
				}
			}
		}
	}
}

// TestTombstoneStreamMatchesOverfetch makes the parent commit's
// over-fetch-and-shed the oracle for the in-stream tombstone probe:
// dropping dead rows as they leave the candidate stream, against a budget
// widened by the shard's tombstone count, must return — id for id,
// distance for distance — what fetching k+dead per shard and shedding at
// merge returned, on every lifecycle shape, tombstone density, k and λ
// (the small-λ, k > shard corner included). Filtered queries are held to
// their own parent behaviour, dead rows rejected in-stream with no
// allowance, and a cursor drain to the first page's candidate set, ranked.
func TestTombstoneStreamMatchesOverfetch(t *testing.T) {
	const per = 40
	densities := []struct {
		name string
		dead func(id int) bool
	}{
		{"none", func(id int) bool { return false }},
		{"one", func(id int) bool { return id == 5 }},
		{"half", func(id int) bool { return id%2 == 0 }},
		{"most", func(id int) bool { return id%10 != 3 }},
		{"shard0", func(id int) bool { return id < per }},
		{"all", func(id int) bool { return true }},
	}
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}
	for shards := 1; shards <= 3; shards++ {
		for _, buffered := range []int{0, 15} {
			for _, den := range densities {
				n := shards*per + buffered
				name := fmt.Sprintf("shards=%d/buffered=%d/dead=%s", shards, buffered, den.name)
				d, data, _, live := tombstonedFixture(t, cfg, n, per, den.dead)
				queries := [][]float32{data[3], data[per-1], data[n-1]}
				deleted := map[int]bool{}
				for id := range data {
					if !live(id) {
						deleted[id] = true
					}
				}
				dynState(d, deleted).check(t, name+"/dynamic", queries, n, per)

				// Snapshot compacts the buffer and indexes it as a shard.
				rows, sx, err := d.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				indexState(sx, deleted).check(t, name+"/snapshot", queries, n, per)

				path := filepath.Join(t.TempDir(), "snap.lccs")
				if err := sx.Save(path); err != nil {
					t.Fatal(err)
				}
				loaded := must(Load(path, rows))
				indexState(loaded, deleted).check(t, name+"/loaded", queries[:1], n, per)
				warm := NewDynamicIndexFrom(loaded, per)
				if warm.Len() != n-len(deleted) {
					t.Fatalf("%s: warm restart holds %d live rows, want %d", name, warm.Len(), n-len(deleted))
				}
				dynState(warm, deleted).check(t, name+"/restarted", queries[:1], n, per)
			}
		}
	}
}

// tombstonedFixture builds a DynamicIndex over the attributed test rows
// with one shard per `per` rows and the rest buffered, then deletes the
// rows dead selects; it returns the index and the live predicate.
func tombstonedFixture(t *testing.T, cfg Config, n, per int, dead func(id int) bool) (*DynamicIndex, [][]float32, []Attrs, func(id int) bool) {
	t.Helper()
	data, attrs := filterTestData(n, 8)
	d := must(NewDynamicIndex(nil, cfg, per))
	for i, v := range data {
		must(d.AddWithAttrs(v, attrs[i]))
		d.WaitRebuild() // one shard per `per` rows, whatever the timing
	}
	want := 0
	for id := range data {
		if dead(id) {
			want++
			if !d.Delete(id) {
				t.Fatalf("delete %d failed", id)
			}
		}
	}
	if d.Shards() != n/per || d.Buffered() != n%per || d.Deleted() != want {
		t.Fatalf("fixture: %d shards, %d buffered, %d tombstones", d.Shards(), d.Buffered(), d.Deleted())
	}
	return d, data, attrs, func(id int) bool { return !dead(id) }
}

// TestTombstoneAccounting pins the one accounting rule: a tombstoned row
// is neither a candidate nor filter-rejected. At an exhaustive budget an
// unfiltered query's candidates are exactly the live rows, a filtered
// one's the live matching rows with every other live row filter-rejected,
// and the bytes scanned are those of the live shard rows plus the whole
// buffer, which the bulk kernel streams dead rows and all.
func TestTombstoneAccounting(t *testing.T) {
	const n, per, dim = 135, 40, 8
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}
	d, data, attrs, live := tombstonedFixture(t, cfg, n, per, func(id int) bool { return id%5 < 2 })
	red := testFilters()["eq-str"]
	// Rows with ids below indexed sit in shards, the rest in the buffer.
	check := func(name string, s Searcher, indexed int) {
		t.Helper()
		var liveRows, liveRed, liveIndexed int64
		for id := range data {
			if !live(id) {
				continue
			}
			liveRows++
			if id < indexed {
				liveIndexed++
			}
			if red.Matches(attrs[id]) {
				liveRed++
			}
		}
		if s.Len() != int(liveRows) {
			t.Fatalf("%s: Len %d, want %d", name, s.Len(), liveRows)
		}
		var co Cost
		must(s.SearchQuery(data[1], Query{K: 10, Budget: 8 * n, Cost: &co}, nil))
		bytes := (liveIndexed + int64(n-indexed)) * dim * 4
		if co.Candidates != liveRows || co.FilterRejected != 0 || co.BytesScanned != bytes {
			t.Errorf("%s unfiltered: %+v, want %d candidates, none rejected, %d bytes", name, co, liveRows, bytes)
		}
		co.Reset()
		must(s.SearchQuery(data[1], Query{K: 10, Budget: 8 * n, Filter: red, Cost: &co}, nil))
		if co.Candidates != liveRed || co.Candidates+co.FilterRejected != liveRows {
			t.Errorf("%s filtered: %+v, want %d candidates of %d live rows checked", name, co, liveRed, liveRows)
		}
	}
	check("dynamic", d, n-n%per)
	_, sx, err := d.Snapshot() // compacts the buffer into a shard of live rows
	if err != nil {
		t.Fatal(err)
	}
	check("snapshot", sx, n)
}

// TestTombstoneConcurrent shares one tombstone bitset between readers and
// every kind of writer: searches, cursor pages, Attrs, Len and Deleted run
// beside Add, Delete, DeleteBatch, background shard builds, Snapshot and
// Rebuild on one index. The model is a per-id sequence number stamped
// after the id's delete returned; an id stamped at or before the number a
// reader drew before its call must never come back from that call.
func TestTombstoneConcurrent(t *testing.T) {
	const (
		writers   = 3
		perWriter = 90
		readers   = 3
		initial   = 120
		threshold = 48
		dim       = 8
	)
	data, attrs := filterTestData(initial, dim)
	d := must(NewDynamicIndex(nil, Config{Metric: Euclidean, M: 16, Seed: 9, BucketWidth: 1}, threshold))
	must(d.AddBatchWithAttrs(data, attrs))

	var seq atomic.Int64
	gone := make([]atomic.Int64, initial+writers*perWriter)
	var deletes atomic.Int64
	markGone := func(ids ...int) {
		for _, id := range ids {
			gone[id].Store(seq.Add(1))
		}
		deletes.Add(int64(len(ids)))
	}
	// checkLive fails if a result drawn after `since` holds an id whose
	// delete had returned by then, an unknown id, or a duplicate.
	checkLive := func(who string, since int64, res []Neighbor) {
		seen := map[int]bool{}
		for _, nb := range res {
			if nb.ID < 0 || nb.ID >= len(gone) || seen[nb.ID] {
				t.Errorf("%s: malformed result %v", who, res)
				return
			}
			seen[nb.ID] = true
			if at := gone[nb.ID].Load(); at != 0 && at <= since {
				t.Errorf("%s: id %d returned after its delete returned", who, nb.ID)
			}
		}
	}

	var writing, reading, ready sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		ready.Add(1)
		go func(r int) {
			defer reading.Done()
			var first sync.Once
			defer first.Do(ready.Done) // a reader that gave up must not hold the writers back
			who := fmt.Sprintf("reader %d", r)
			var dst []Neighbor
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := data[(r*37+i)%initial]
				since := seq.Load()
				dst = must(d.SearchInto(q, 10, dst))
				checkLive(who, since, dst)
				since = seq.Load()
				page, next, err := d.SearchCursor(q, Query{K: 5}, "")
				if err != nil {
					t.Errorf("%s: cursor: %v", who, err)
					return
				}
				checkLive(who+" cursor", since, page)
				if next != "" {
					// A write between the pages kills the token; a page that
					// does come back is as live as any other result.
					since = seq.Load()
					if page, _, err = d.SearchCursor(q, Query{K: 5}, next); err == nil {
						checkLive(who+" cursor resume", since, page)
					} else if !errors.Is(err, ErrCursorStale) {
						t.Errorf("%s: cursor resume: %v", who, err)
					}
				}
				id := (r*53 + i) % len(gone)
				since = seq.Load()
				if a := d.Attrs(id); a != nil {
					if at := gone[id].Load(); at != 0 && at <= since {
						t.Errorf("%s: Attrs(%d) answered after its delete returned", who, id)
					}
				}
				if n, dead := d.Len(), d.Deleted(); n < 0 || n > len(gone) || dead < 0 || dead > len(gone) {
					t.Errorf("%s: Len %d, Deleted %d", who, n, dead)
				}
				first.Do(ready.Done)
			}
		}(r)
	}
	ready.Wait() // every reader is in its loop before the first write
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			g := rng.New(uint64(2000 + w))
			var mine []int
			for i := 0; i < perWriter; i++ {
				id, err := d.AddWithAttrs(g.GaussianVector(dim), Attrs{"color": StrAttr("red")})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mine = append(mine, id)
				switch {
				case i%3 == 2: // one of its own, and an initial row only it deletes
					victim := mine[len(mine)/2]
					mine[len(mine)/2] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if !d.Delete(victim) {
						t.Errorf("writer %d: Delete(%d) of a live id reported false", w, victim)
					}
					markGone(victim)
				case i%10 == 0:
					batch := []int{w + writers*(i/10), mine[0]}
					mine = mine[1:]
					if n, missing, err := d.DeleteBatch(batch); n != 2 || len(missing) != 0 || err != nil {
						t.Errorf("writer %d: DeleteBatch(%v) = %d, %v, %v", w, batch, n, missing, err)
					}
					markGone(batch...)
				}
			}
		}(w)
	}
	// Compaction points beside the background builds: Snapshot compacts
	// the buffer and must carry every earlier delete, Rebuild compacts
	// everything.
	writing.Add(1)
	go func() {
		defer writing.Done()
		for i := 0; i < 6; i++ {
			since := seq.Load()
			_, sx, err := d.Snapshot()
			if err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			checkLive("snapshot", since, must(sx.SearchQuery(data[i], Query{K: 20, Budget: 4 * len(gone)}, nil)))
			if i%2 == 1 {
				if err := d.Rebuild(); err != nil {
					t.Errorf("Rebuild: %v", err)
				}
			}
		}
	}()
	writing.Wait()
	close(done)
	reading.Wait()
	d.WaitRebuild()

	live := len(gone) - int(deletes.Load())
	if d.Len() != live {
		t.Fatalf("Len %d after the run, the model holds %d live ids", d.Len(), live)
	}
	res := must(d.SearchQuery(data[0], Query{K: len(gone), Budget: 4 * len(gone)}, nil))
	checkLive("final", seq.Load(), res)
	if len(res) != live {
		t.Fatalf("exhaustive search returned %d rows, the model holds %d live ids", len(res), live)
	}
}

// TestPipelinedConcurrent runs queries whose helper goroutine scores
// every batch straight into the query's collector (tombstonedD16) from
// several goroutines on one index at once: the helper writes the
// collector and the caller reads it once the helper is done, and under
// -race each answer must still equal the one the same query gave alone.
func TestPipelinedConcurrent(t *testing.T) {
	const goroutines, rounds, k, lambda = 4, 3, 10, 100
	dx, queries := tombstonedD16(t)
	qr := Query{K: k, Budget: lambda}
	alone := make([][]Neighbor, len(queries))
	for i, q := range queries {
		alone[i] = must(dx.SearchQuery(q, qr, nil))
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []Neighbor
			for r := 0; r < rounds; r++ {
				for i := range queries {
					qi := (i + w*len(queries)/goroutines) % len(queries)
					var err error
					if dst, err = dx.SearchQuery(queries[qi], qr, dst); err != nil {
						t.Error(err)
						return
					}
					if !neighborsEqual(dst, alone[qi]) {
						t.Errorf("goroutine %d query %d: %v, alone %v", w, qi, dst, alone[qi])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
