package lccs

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lccs/internal/core"
)

// queryFacade is one row of the Query conformance table: a backend, the
// rows it was given, and which of them are still live.
type queryFacade struct {
	name string
	s    Searcher
	live func(id int) bool // nil: every row
}

// queryFacades builds every facade shape over the same attributed rows:
// the static Index, a three-shard Index, and the lifecycle shapes — a
// DynamicIndex with background-built shards, a non-empty delta buffer and tombstones in both; the
// tombstoned Snapshot of one; a journaled one in the same state; and a
// DynamicIndex with uneven shards (one large compacted shard, two
// background-built 32-row ones, 13 buffered rows, tombstones in each),
// where a budget split evenly would starve the large shard.
func queryFacades(t *testing.T, data [][]float32, attrs []Attrs) []queryFacade {
	t.Helper()
	n := len(data)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}

	// Deletes land in every shard and in the delta buffer.
	dead := map[int]bool{}
	for id := 2; id < n; id += 9 {
		dead[id] = true
	}
	dead[n-1] = true
	live := func(id int) bool { return !dead[id] }
	// churn inserts every row — waiting out each background build, so the
	// shard layout (one shard per 64 rows, the rest buffered) does not
	// depend on timing — and then tombstones the dead set.
	churn := func(add func([]float32, Attrs) (int, error), wait func(), del func(int) bool) {
		for i, v := range data {
			if id, err := add(v, attrs[i]); err != nil || id != i {
				t.Fatalf("add row %d: id %d, err %v", i, id, err)
			}
			wait()
		}
		for id := range dead {
			if !del(id) {
				t.Fatalf("delete %d failed", id)
			}
		}
	}
	newDyn := func() *DynamicIndex {
		d := must(NewDynamicIndex(nil, cfg, 64))
		churn(d.AddWithAttrs, d.WaitRebuild, d.Delete)
		if d.Shards() != n/64 || d.Buffered() != n%64 || d.Deleted() != len(dead) {
			t.Fatalf("dynamic fixture: %d shards, %d buffered, %d tombstones", d.Shards(), d.Buffered(), d.Deleted())
		}
		return d
	}
	uneven := must(NewDynamicIndex(nil, cfg, 32))
	for i, v := range data {
		if id := must(uneven.AddWithAttrs(v, attrs[i])); id != i {
			t.Fatalf("uneven fixture: row %d got id %d", i, id)
		}
		uneven.WaitRebuild()
		if i == n-2*32-13-1 {
			if err := uneven.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := range dead {
		uneven.Delete(id)
	}
	if uneven.Shards() != 3 || uneven.Buffered() != 13 || uneven.Deleted() != len(dead) {
		t.Fatalf("uneven fixture: %d shards, %d buffered, %d tombstones", uneven.Shards(), uneven.Buffered(), uneven.Deleted())
	}
	_, snap, err := newDyn().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Deleted() == 0 {
		t.Fatal("snapshot fixture carries no tombstones")
	}
	dur, err := OpenDurable(t.TempDir(), DurableConfig{Config: cfg, RebuildAt: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	churn(dur.AddWithAttrs, dur.WaitRebuild, dur.Delete)

	return []queryFacade{
		{"Index", must(NewIndexWithAttrs(data, attrs, cfg)), nil},
		{"Index/3 shards", must(newShardedWithAttrs(data, attrs, cfg, 3)), nil},
		{"Snapshot", snap, live},
		{"DynamicIndex", newDyn(), live},
		{"DynamicIndex/journaled", dur, live},
		{"DynamicIndex/uneven", uneven, live},
	}
}

// spanTotals sums the work counters of a traced query's scan spans.
func spanTotals(t *testing.T, tr *Trace) (rows, cands, bytes int64) {
	t.Helper()
	tree := tr.Tree()
	for _, stage := range []string{"shard_scan", "buffer_scan"} {
		for _, sp := range findSpans(t, tree, stage) {
			rows, cands, bytes = rows+sp.Rows, cands+sp.Cands, bytes+sp.Bytes
		}
	}
	return rows, cands, bytes
}

// TestCostCountsBytesRead: Cost.BytesScanned is the vector bytes the
// distance kernels read. A Euclidean row is read only until it cannot make
// the k nearest, so at dim 960 some query reports fewer than
// Candidates·dim·4 bytes, and its trace's spans sum to that smaller count;
// at a dim with no checkpoint (≤ 64) every candidate's full row is read and
// charged.
func TestCostCountsBytesRead(t *testing.T) {
	for _, dim := range []int{16, 64, 960} {
		data, g := testData(5, 600, dim, 6, 0.5)
		ix := must(NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3, Budget: 200}))
		stopped := false
		for qi := 0; qi < 5; qi++ {
			var co Cost
			tr := NewTrace(1)
			must(ix.SearchQuery(data[g.IntN(len(data))], Query{K: 10, Cost: &co, Trace: tr}, nil))
			full := co.Candidates * int64(dim) * 4
			if co.BytesScanned > full || (dim <= 64 && co.BytesScanned != full) {
				t.Fatalf("dim %d query %d: %d bytes scanned for %d candidates", dim, qi, co.BytesScanned, co.Candidates)
			}
			stopped = stopped || co.BytesScanned < full
			if _, _, bytes := spanTotals(t, tr); bytes != co.BytesScanned {
				t.Fatalf("dim %d query %d: spans sum to %d bytes, cost says %d", dim, qi, bytes, co.BytesScanned)
			}
			ReleaseTrace(tr)
		}
		if dim > 64 && !stopped {
			t.Fatalf("dim %d: every query read every candidate's row in full", dim)
		}
	}
}

// TestQueryConformance is the one table over the Query value: every
// facade × {plain, Budget, Filter, exhaustive Budget × every test filter}
// × {no instrumentation, Cost, Trace, both}. Setting Cost or Trace never changes results; Cost
// totals equal the sum of the trace's span counters; the conveniences
// (Search, SearchInto, a reused dst) equal SearchQuery; and at an
// exhaustive budget the answer is brute force over the matching live rows.
func TestQueryConformance(t *testing.T) {
	const n, dim, k = 200, 8, 10
	data, attrs := filterTestData(n, dim)
	exhaustive := n // a budget covering every row is not split
	type baseCase struct {
		name  string
		qr    Query
		exact bool // the budget is exhaustive: results are brute force
	}
	bases := []baseCase{
		{"plain", Query{K: k}, false},
		{"budget", Query{K: k, Budget: 37}, false},
		{"filter", Query{K: k, Filter: testFilters()["eq-str"]}, false},
	}
	for name, f := range testFilters() { // includes the nil filter
		bases = append(bases, baseCase{"exhaustive/" + name, Query{K: k, Budget: exhaustive, Filter: f}, true})
	}
	queries := [][]float32{data[3], data[77], data[n-1]}

	for _, fc := range queryFacades(t, data, attrs) {
		for _, base := range bases {
			for qi, q := range queries {
				label := func(what string) string { return fc.name + "/" + base.name + "/" + what }
				want, err := fc.s.SearchQuery(q, base.qr, nil)
				if err != nil {
					t.Fatalf("%s: %v", label("uninstrumented"), err)
				}
				if base.exact {
					brute := bruteFilter(data, attrs, fc.live, q, k, base.qr.Filter, fc.s.Distance)
					if !neighborsEqual(want, brute) {
						t.Errorf("%s query %d: got %v, brute force says %v", label("exact"), qi, want, brute)
					}
				}

				var co, coTraced Cost
				trOnly, tr := NewTrace(0), NewTrace(1)
				for _, in := range []struct {
					name string
					qr   Query
				}{
					{"cost", Query{Cost: &co}},
					{"trace", Query{Trace: trOnly}},
					{"cost+trace", Query{Cost: &coTraced, Trace: tr}},
				} {
					qr := base.qr
					qr.Cost, qr.Trace = in.qr.Cost, in.qr.Trace
					got, err := fc.s.SearchQuery(q, qr, nil)
					if err != nil {
						t.Fatalf("%s: %v", label(in.name), err)
					}
					if !neighborsEqual(got, want) {
						t.Errorf("%s query %d: instrumentation changed the results: %v vs %v", label(in.name), qi, got, want)
					}
				}
				if co != coTraced || co.Comparisons <= 0 {
					t.Errorf("%s query %d: cost %+v untraced, %+v traced", label("cost"), qi, co, coTraced)
				}
				rows, cands, bytes := spanTotals(t, tr)
				if rows != co.Comparisons || cands != co.Candidates || bytes != co.BytesScanned {
					t.Errorf("%s query %d: spans sum to rows=%d cands=%d bytes=%d, cost says %+v",
						label("cost=spans"), qi, rows, cands, bytes, co)
				}
				ReleaseTrace(trOnly)
				ReleaseTrace(tr)

				// A reused dst answers like the allocating call.
				dst := make([]Neighbor, 0, 2*k)
				if got := must(fc.s.SearchQuery(q, base.qr, dst)); !neighborsEqual(got, want) {
					t.Errorf("%s query %d: %v vs %v", label("dst"), qi, got, want)
				}
				if base.name == "plain" {
					if got := must(fc.s.Search(q, k)); !neighborsEqual(got, want) {
						t.Errorf("%s query %d: %v vs %v", label("Search"), qi, got, want)
					}
					if got := must(fc.s.SearchInto(q, k, dst)); !neighborsEqual(got, want) {
						t.Errorf("%s query %d: %v vs %v", label("SearchInto"), qi, got, want)
					}
				}
			}
		}
	}
}

// segmentMerge is the per-segment reference for one query of s: each
// segment's own k nearest (core.SearchInto) under the budget rule, its
// (k, λ) traded so that core's λ + k − 1 is the λ + k₀ − 1 candidates
// segSet.scan verifies on a cursor fetch, shifted by the segment's
// offset, with the tail's brute-force rows, sorted by (Dist, slot), cut
// to k and mapped to external ids. Valid on sets without tombstones and
// unfiltered queries only.
func segmentMerge(s *segSet, q []float32, k, k0, lambda int) []Neighbor {
	rows := s.slots()
	k, lambda = min(k, rows), min(lambda, rows)
	k0 = min(k0, k)
	lamSeg := s.segBudget(lambda)
	var all []Neighbor
	for _, seg := range s.segs {
		n := seg.core.N()
		kSeg, k0Seg, lam := min(k, n), min(k0, n), lamSeg
		if kSeg > k0Seg {
			nCand := lam + k0Seg - 1
			kSeg = min(kSeg, nCand)
			lam = nCand - kSeg + 1
		}
		for _, nb := range seg.core.SearchInto(q, kSeg, lam, nil) {
			all = append(all, Neighbor{ID: seg.off + nb.ID, Dist: nb.Dist})
		}
	}
	for slot := s.indexed; slot < rows; slot++ {
		all = append(all, Neighbor{ID: slot, Dist: s.metric.Distance(q, s.row(slot))})
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].Dist < all[j].Dist || (all[i].Dist == all[j].Dist && all[i].ID < all[j].ID)
	})
	all = all[:min(k, len(all))]
	if s.ids != nil {
		for i := range all {
			all[i].ID = s.ids.Ext(all[i].ID)
		}
	}
	return all
}

// TestOneCollectorMatchesSegmentMerge: the set's one collector — every
// segment's verified rows and the tail's offered to one k-best under the
// (Dist, slot) order — answers exactly as merging each segment's own
// top-k run would, on one-shot queries and on every
// cursor page, at budgets that make each segment verify only a prefix of
// its stream. Shapes: the tombstone-free rows of queryFacades, plus a
// DynamicIndex with three background-built segments and a buffered tail.
func TestOneCollectorMatchesSegmentMerge(t *testing.T) {
	const n, dim = 200, 8
	data, attrs := filterTestData(n, dim)
	type shape struct {
		name string
		s    Searcher
		set  *segSet
	}
	var shapes []shape
	for _, fc := range queryFacades(t, data, attrs) {
		if ix, ok := fc.s.(*Index); ok && fc.live == nil {
			shapes = append(shapes, shape{fc.name, ix, &ix.segSet})
		}
	}
	d := must(NewDynamicIndex(nil, Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}, 64))
	for _, v := range data {
		must(d.Add(v))
		d.WaitRebuild()
	}
	if d.Shards() != 3 || d.Buffered() != n-3*64 {
		t.Fatalf("dynamic fixture: %d shards, %d buffered", d.Shards(), d.Buffered())
	}
	shapes = append(shapes, shape{"DynamicIndex", d, &d.segSet})
	if len(shapes) != 3 {
		t.Fatalf("%d shapes", len(shapes))
	}
	queries := [][]float32{data[3], data[77], data[n-1], make([]float32, dim)}
	for _, sh := range shapes {
		for qi, q := range queries {
			for _, lambda := range []int{1, 7, 37} {
				for _, k := range []int{1, 10, 70} {
					want := segmentMerge(sh.set, q, k, k, lambda)
					if got := must(sh.s.SearchQuery(q, Query{K: k, Budget: lambda}, nil)); !neighborsEqual(got, want) {
						t.Errorf("%s query %d λ=%d k=%d: %v, segment merge says %v", sh.name, qi, lambda, k, got, want)
					}
				}
				const limit = 4
				token, consumed := "", 0
				for page := 0; page < 50; page++ {
					got, next, err := sh.s.SearchCursor(q, Query{K: limit, Budget: lambda}, token)
					if err != nil {
						t.Fatalf("%s query %d λ=%d page %d: %v", sh.name, qi, lambda, page, err)
					}
					ref := segmentMerge(sh.set, q, consumed+limit, limit, lambda)
					if want := ref[min(consumed, len(ref)):]; !neighborsEqual(got, want) {
						t.Errorf("%s query %d λ=%d page %d: %v, segment merge says %v", sh.name, qi, lambda, page, got, want)
					}
					if next == "" {
						break
					}
					token, consumed = next, consumed+limit
				}
			}
		}
	}
}

// TestQueryBudgetRule pins the one budget rule on every entry point of
// every facade: 0 selects the facade's default, negative is
// ErrInvalidBudget.
func TestQueryBudgetRule(t *testing.T) {
	data, attrs := filterTestData(120, 8)
	q := data[5]
	for _, fc := range queryFacades(t, data, attrs) {
		cs := fc.s
		def := must(fc.s.Search(q, 5))
		if got := must(fc.s.SearchQuery(q, Query{K: 5, Budget: 0}, nil)); !neighborsEqual(got, def) {
			t.Errorf("%s: Budget 0 is not the default: %v vs %v", fc.name, got, def)
		}
		if page, _, err := cs.SearchCursor(q, Query{K: 5}, ""); err != nil || len(page) != 5 {
			t.Errorf("%s: cursor budget 0: %d results, err %v", fc.name, len(page), err)
		}
		if _, err := fc.s.SearchQuery(q, Query{K: 5, Budget: -1}, nil); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("%s: SearchQuery budget -1: err=%v", fc.name, err)
		}
		if _, _, err := cs.SearchCursor(q, Query{K: 5, Budget: -1}, ""); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("%s: SearchCursor budget -1: err=%v", fc.name, err)
		}
	}
}

// TestQueryHostileNumbers: a k, page limit or budget far above the row
// count — up to math.MaxInt, where λ+k−1 used to overflow — asks for
// nothing more than the row count does, on every entry point of every
// facade: the answer is the K: n / Budget: n answer, never an empty
// result, a panic or an out-of-range allocation, and a cursor minted
// under such numbers is resumed by its own tokens.
func TestQueryHostileNumbers(t *testing.T) {
	const n, dim, k = 177, 8, 10
	data, attrs := filterTestData(n, dim)
	q := data[11]
	red := testFilters()["eq-str"]
	for _, fc := range queryFacades(t, data, attrs) {
		cs := fc.s
		atN := must(fc.s.SearchQuery(q, Query{K: k, Budget: n}, nil))
		if brute := bruteFilter(data, attrs, fc.live, q, k, nil, fc.s.Distance); !neighborsEqual(atN, brute) {
			t.Fatalf("%s: Budget n is not brute force: %v vs %v", fc.name, atN, brute)
		}
		all := must(fc.s.SearchQuery(q, Query{K: n, Budget: n}, nil))
		allRed := must(fc.s.SearchQuery(q, Query{K: n, Filter: red}, nil))
		if len(all) != fc.s.Len() || len(allRed) == 0 {
			t.Fatalf("%s: K n returned %d of %d rows, %d red ones", fc.name, len(all), fc.s.Len(), len(allRed))
		}
		drained := drainCursor(t, cs, q, 7, n, red)
		for _, huge := range []int{math.MaxInt, math.MaxInt - 5, 1 << 40, math.MaxInt32} {
			check := func(what string, got, want []Neighbor) {
				t.Helper()
				if !neighborsEqual(got, want) {
					t.Errorf("%s/%d %s: %d results %v, want %d %v", fc.name, huge, what, len(got), got, len(want), want)
				}
			}
			check("Budget", must(fc.s.SearchQuery(q, Query{K: k, Budget: huge}, nil)), atN)
			check("K+Budget", must(fc.s.SearchQuery(q, Query{K: huge, Budget: huge}, nil)), all)
			check("K+Budget into dst", must(fc.s.SearchQuery(q, Query{K: huge, Budget: huge}, make([]Neighbor, 0, 4))), all)
			check("K+Filter", must(fc.s.SearchQuery(q, Query{K: huge, Filter: red}, nil)), allRed)
			check("cursor budget", drainCursor(t, cs, q, 7, huge, red), drained)
			check("cursor limit+budget", drainCursor(t, cs, q, huge, huge, red), drained)
		}
	}
}

// TestNonFiniteRejected: a NaN or infinite coordinate is refused with
// ErrNonFinite at the query door of every facade and at every door data
// enters by — never answered at distance NaN, never stored.
func TestNonFiniteRejected(t *testing.T) {
	data, attrs := filterTestData(120, 8)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	poison := func(x float32) []float32 {
		v := append([]float32(nil), data[0]...)
		v[3] = x
		return v
	}
	for _, fc := range queryFacades(t, data, attrs) {
		for _, x := range []float32{nan, inf, -inf} {
			q := poison(x)
			if res, err := fc.s.SearchQuery(q, Query{K: 3}, nil); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s: SearchQuery(%v): %v, err=%v", fc.name, x, res, err)
			}
			if _, _, err := fc.s.SearchCursor(q, Query{K: 3}, ""); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s: SearchCursor(%v): err=%v", fc.name, x, err)
			}
		}
	}

	// Construction and insert.
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, BucketWidth: 1}
	bad := append(append([][]float32(nil), data[:10]...), poison(nan))
	if _, err := NewIndex(bad, cfg); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NewIndex: err=%v", err)
	}
	if _, err := NewDynamicIndex(bad, cfg, 0); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NewDynamicIndex: err=%v", err)
	}
	dyn := must(NewDynamicIndex(data[:10], cfg, 0))
	if _, err := dyn.Add(poison(inf)); !errors.Is(err, ErrNonFinite) || dyn.Len() != 10 {
		t.Errorf("DynamicIndex.Add: err=%v, Len=%d", err, dyn.Len())
	}

	// A rejected durable write is never journaled: the log does not grow,
	// and nothing comes back after a reopen.
	dir := t.TempDir()
	di := mustOpenDurable(t, dir)
	good := []float32{1, 2, 3}
	id := must(di.Add(good))
	before := di.WALStats()
	if _, err := di.Add([]float32{1, nan, 3}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("journaled Add: err=%v", err)
	}
	if ids, err := di.AddBatch([][]float32{{4, 5, inf}, {4, 5, 6}}); !errors.Is(err, ErrNonFinite) || len(ids) != 0 {
		t.Errorf("journaled AddBatch: ids=%v err=%v", ids, err)
	}
	if after := di.WALStats(); after.Bytes != before.Bytes || after.AppendedBytes != before.AppendedBytes || after.LastLSN != before.LastLSN {
		t.Errorf("rejected writes reached the log: %+v → %+v", before, after)
	}
	crash(di)
	di = mustOpenDurable(t, dir)
	defer di.Close()
	if di.Len() != 1 || di.Recovery().Records != 1 {
		t.Errorf("after reopen: Len=%d, replayed %d records, want 1 and 1", di.Len(), di.Recovery().Records)
	}
	if res := must(di.Search(good, 1)); len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Errorf("after reopen: %v", res)
	}
}

// TestSearchSurface is the guard against the method matrix regrowing:
// the exported Search* methods of the two facades and of the core index
// are exactly these.
func TestSearchSurface(t *testing.T) {
	facade := []string{"Search", "SearchCursor", "SearchInto", "SearchQuery"}
	coreSet := []string{"Search", "SearchInto"}
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{(*Index)(nil), facade},
		{(*DynamicIndex)(nil), facade},
		{(*core.Index)(nil), coreSet},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Search") {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v exports %v, want exactly %v", typ, got, tc.want)
		}
	}
}
