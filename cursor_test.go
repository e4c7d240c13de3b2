package lccs

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// drainCursor pages through SearchCursor until the token runs out,
// concatenating every page.
func drainCursor(t *testing.T, cs Searcher, q []float32, limit, lambda int, f *Filter) []Neighbor {
	t.Helper()
	var all []Neighbor
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("cursor never exhausted")
		}
		page, next, err := cs.SearchCursor(q, Query{K: limit, Budget: lambda, Filter: f}, cursor)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		all = append(all, page...)
		if next == "" {
			return all
		}
		cursor = next
	}
}

// TestCursorDrainEqualsOneShot pins the acceptance criterion: at an
// exhaustive budget, draining a cursor page by page yields exactly the
// one-shot top-n ordering, on every facade, filtered and not, across
// page sizes (including ones that don't divide the result count).
func TestCursorDrainEqualsOneShot(t *testing.T) {
	const n, dim = 120, 8
	data, attrs := filterTestData(n, dim)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, Budget: n}

	single, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := newShardedWithAttrs(data, attrs, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(nil, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()
	// Leave a few rows in the delta buffer so the buffer source is
	// exercised too.
	extra, extraAttrs := filterTestData(5, dim)
	for i, v := range extra {
		if _, err := dyn.AddWithAttrs(v, extraAttrs[i]); err != nil {
			t.Fatal(err)
		}
	}

	type facadeCase struct {
		cs     Searcher
		fs     Searcher
		nTotal int
	}
	facades := map[string]facadeCase{
		"index":   {single, single, n},
		"sharded": {sharded, sharded, n},
		"dynamic": {dyn, dyn, n + 5},
	}
	q := data[3]
	for fname, f := range testFilters() {
		for facade, fc := range facades {
			want, err := fc.fs.SearchQuery(q, Query{K: fc.nTotal, Budget: fc.nTotal + 5, Filter: f}, nil)
			if err != nil {
				t.Fatalf("%s/%s one-shot: %v", facade, fname, err)
			}
			for _, limit := range []int{1, 3, 7, 200} {
				got := drainCursor(t, fc.cs, q, limit, fc.nTotal+5, f)
				if !neighborsEqual(got, want) {
					t.Errorf("%s/%s limit=%d: drain %v, one-shot %v", facade, fname, limit, got, want)
				}
			}
		}
	}
}

// TestCursorFirstPageIsOneShot: a cursor's first page is the one-shot
// answer at K = limit, ids and distances alike, on every facade shape,
// filtered or not, at small, medium and exhaustive budgets; and the drain
// that continues it never returns an id twice.
func TestCursorFirstPageIsOneShot(t *testing.T) {
	data, attrs := filterTestData(400, 8)
	queries := [][]float32{data[3], data[77], data[250]}
	for _, fc := range queryFacades(t, data, attrs) {
		for _, f := range []*Filter{nil, testFilters()["eq-str"]} {
			for _, lambda := range []int{5, 20, fc.s.Len()} {
				for _, limit := range []int{1, 10} {
					for qi, q := range queries {
						label := fmt.Sprintf("%s/filtered=%v/λ=%d/limit=%d/q%d", fc.name, f != nil, lambda, limit, qi)
						qr := Query{K: limit, Budget: lambda, Filter: f}
						want := must(fc.s.SearchQuery(q, qr, nil))
						page, _, err := fc.s.SearchCursor(q, qr, "")
						if err != nil || !neighborsEqual(page, want) {
							t.Errorf("%s: first page %v (err %v), one-shot %v", label, page, err, want)
						}
						seen := map[int]bool{}
						for _, nb := range drainCursor(t, fc.s, q, limit, lambda, f) {
							if seen[nb.ID] {
								t.Errorf("%s: the drain returned id %d twice", label, nb.ID)
							}
							seen[nb.ID] = true
						}
					}
				}
			}
		}
	}
}

// TestCursorInvalidation pins the generation guard: tokens die on
// insert, delete, and rebuild, and malformed tokens are rejected.
func TestCursorInvalidation(t *testing.T) {
	const n, dim = 60, 6
	data, attrs := filterTestData(n, dim)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 3, Budget: n}
	dyn, err := NewDynamicIndex(nil, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	q := data[0]

	mint := func() string {
		t.Helper()
		_, next, err := dyn.SearchCursor(q, Query{K: 5}, "")
		if err != nil {
			t.Fatal(err)
		}
		if next == "" {
			t.Fatal("expected a continuation token")
		}
		return next
	}

	// Insert invalidates.
	tok := mint()
	if _, err := dyn.Add(data[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dyn.SearchCursor(q, Query{K: 5}, tok); !errors.Is(err, ErrCursorStale) {
		t.Errorf("after insert: err = %v, want ErrCursorStale", err)
	}

	// Delete invalidates.
	tok = mint()
	if !dyn.Delete(3) {
		t.Fatal("delete failed")
	}
	if _, _, err := dyn.SearchCursor(q, Query{K: 5}, tok); !errors.Is(err, ErrCursorInvalid) {
		t.Errorf("after delete: err = %v, want ErrCursorInvalid", err)
	}

	// Rebuild invalidates.
	tok = mint()
	if err := dyn.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dyn.SearchCursor(q, Query{K: 5}, tok); !errors.Is(err, ErrCursorStale) {
		t.Errorf("after rebuild: err = %v, want ErrCursorStale", err)
	}

	// A token minted for one query must not resume another.
	tok = mint()
	q2 := data[1]
	if _, _, err := dyn.SearchCursor(q2, Query{K: 5}, tok); !errors.Is(err, ErrCursorInvalid) {
		t.Errorf("query mismatch: err = %v, want ErrCursorInvalid", err)
	}
	// ... nor a different filter.
	f := &Filter{Terms: []FilterTerm{EqStr("color", "red")}}
	if _, _, err := dyn.SearchCursor(q, Query{K: 5, Filter: f}, tok); !errors.Is(err, ErrCursorInvalid) {
		t.Errorf("filter mismatch: err = %v, want ErrCursorInvalid", err)
	}

	// Garbage tokens are rejected, not crashed on.
	for _, bad := range []string{"not-base64!!", "AAAA", "zzzz_-", ""} {
		if bad == "" {
			continue
		}
		if _, _, err := dyn.SearchCursor(q, Query{K: 5}, bad); !errors.Is(err, ErrCursorInvalid) {
			t.Errorf("garbage %q: err = %v, want ErrCursorInvalid", bad, err)
		}
	}

	// An Index never invalidates its own tokens: a token survives
	// arbitrarily many pages and other queries in between.
	ix, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, next, err := ix.SearchCursor(q, Query{K: 5}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.SearchCursor(q2, Query{K: 5}, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.SearchCursor(q, Query{K: 5}, next); err != nil {
		t.Errorf("immutable resume: %v", err)
	}
}

// TestCursorBoundToIndex pins the cursor epoch of an Index: a token
// resumes only on the instance that minted it. Another index with the same
// shard count over different data, and the minting index saved and loaded
// again, refuse it as stale, while the minting index drains as before.
func TestCursorBoundToIndex(t *testing.T) {
	const n, dim = 80, 6
	data, attrs := filterTestData(n, dim)
	other, _ := testData(5, n, dim, 4, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 3, Budget: n}
	q := data[2]
	for _, shards := range []int{1, 2} {
		a := must(newShardedWithAttrs(data, attrs, cfg, shards))
		b := must(newSharded(other, cfg, shards))
		_, tok, err := a.SearchCursor(q, Query{K: 5, Budget: n}, "")
		if err != nil || tok == "" {
			t.Fatalf("shards=%d: minting: %q, %v", shards, tok, err)
		}
		if page, _, err := b.SearchCursor(q, Query{K: 5, Budget: n}, tok); !errors.Is(err, ErrCursorStale) {
			t.Errorf("shards=%d: A's token on B: %d results, err=%v, want ErrCursorStale", shards, len(page), err)
		}
		path := filepath.Join(t.TempDir(), "a.lccs")
		if err := a.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, _, err := must(Load(path, data)).SearchCursor(q, Query{K: 5, Budget: n}, tok); !errors.Is(err, ErrCursorStale) {
			t.Errorf("shards=%d: A's token on a reloaded A: err=%v, want ErrCursorStale", shards, err)
		}
		if _, _, err := a.SearchCursor(q, Query{K: 5, Budget: n}, tok); err != nil {
			t.Errorf("shards=%d: A's token on A: %v", shards, err)
		}
		want := must(a.SearchQuery(q, Query{K: n, Budget: n}, nil))
		if got := drainCursor(t, a, q, 5, n, nil); !neighborsEqual(got, want) {
			t.Errorf("shards=%d: drain %v, one-shot %v", shards, got, want)
		}
	}
}

// TestCursorPageSizes checks page boundaries: no duplicates, no gaps,
// pages exactly limit-sized until the final partial page.
func TestCursorPageSizes(t *testing.T) {
	const n, dim = 50, 6
	data, attrs := filterTestData(n, dim)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 3, Budget: n}
	sx, err := newShardedWithAttrs(data, attrs, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := data[2]
	const limit = 7
	seen := map[int]bool{}
	cursor := ""
	total := 0
	for {
		page, next, err := sx.SearchCursor(q, Query{K: limit, Budget: n}, cursor)
		if err != nil {
			t.Fatal(err)
		}
		total += len(page)
		for _, nb := range page {
			if seen[nb.ID] {
				t.Fatalf("id %d returned twice", nb.ID)
			}
			seen[nb.ID] = true
		}
		if next == "" {
			if len(page) > limit {
				t.Fatalf("oversized final page: %d", len(page))
			}
			break
		}
		if len(page) != limit {
			t.Fatalf("non-final page has %d results, want %d", len(page), limit)
		}
		cursor = next
	}
	if total != n {
		t.Fatalf("drained %d results, want %d", total, n)
	}
}
