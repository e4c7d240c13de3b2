package pqueue

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	for _, x := range []int{5, 3, 8, 1, 9, 2, 7} {
		h.Push(x)
	}
	want := []int{1, 2, 3, 5, 7, 8, 9}
	for i, w := range want {
		if got := h.Peek(); got != w {
			t.Fatalf("Peek %d = %d, want %d", i, got, w)
		}
		if got := h.Pop(); got != w {
			t.Fatalf("Pop %d = %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining", h.Len())
	}
}

func TestHeapPropertySorts(t *testing.T) {
	f := func(xs []int) bool {
		h := NewWithCapacity(len(xs), func(a, b int) bool { return a < b })
		for _, x := range xs {
			h.Push(x)
		}
		out := make([]int, 0, len(xs))
		for h.Len() > 0 {
			out = append(out, h.Pop())
		}
		if len(out) != len(xs) {
			return false
		}
		return sort.IntsAreSorted(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	h := New(func(a, b int) bool { return a < b })
	var mirror []int
	for op := 0; op < 2000; op++ {
		if h.Len() == 0 || r.IntN(2) == 0 {
			x := r.IntN(1000)
			h.Push(x)
			mirror = append(mirror, x)
		} else {
			got := h.Pop()
			sort.Ints(mirror)
			if got != mirror[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, mirror[0])
			}
			mirror = mirror[1:]
		}
	}
}

func TestHeapPanicsWhenEmpty(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	for name, f := range map[string]func(){
		"pop":  func() { h.Pop() },
		"peek": func() { h.Peek() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKBestKeepsKNearest(t *testing.T) {
	b := NewKBest(3)
	dists := []float64{9, 2, 7, 1, 8, 3, 6}
	for id, d := range dists {
		b.Add(id, d)
	}
	got := b.Sorted()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantDists := []float64{1, 2, 3}
	wantIDs := []int{3, 1, 5}
	for i := range got {
		if got[i].Dist != wantDists[i] || got[i].ID != wantIDs[i] {
			t.Fatalf("Sorted[%d] = %+v", i, got[i])
		}
	}
}

func TestKBestProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, nRaw uint8) bool {
		k := 1 + int(kRaw%10)
		n := int(nRaw)
		r := rand.New(rand.NewPCG(seed, 7))
		b := NewKBest(k)
		all := make([]float64, n)
		for i := 0; i < n; i++ {
			all[i] = r.Float64()
			b.Add(i, all[i])
		}
		got := b.Sorted()
		sort.Float64s(all)
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Dist != all[i] {
				return false
			}
			if i > 0 && got[i].Dist < got[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKBestTieBreakByID: equal distances rank by id, whatever order they
// are offered in, both in what the collector keeps at the cut and in how
// it sorts — the order that lets several shards share one collector and
// still answer deterministically.
func TestKBestTieBreakByID(t *testing.T) {
	b := NewKBest(3)
	for _, id := range []int{9, 3, 12, 6, 1} {
		b.Add(id, 1)
	}
	b.Add(0, 2)
	got := b.Sorted()
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 3 || got[2].ID != 6 {
		t.Fatalf("tie order wrong: %+v", got)
	}
}

func TestKBestWorst(t *testing.T) {
	b := NewKBest(2)
	if _, ok := b.Worst(); ok {
		t.Fatal("Worst should be unavailable before full")
	}
	b.Add(1, 5)
	b.Add(2, 3)
	if w, ok := b.Worst(); !ok || w != 5 {
		t.Fatalf("Worst = %v, %v", w, ok)
	}
	if b.Add(3, 6) {
		t.Fatal("should reject worse candidate when full")
	}
	if !b.Add(4, 1) {
		t.Fatal("should accept better candidate")
	}
	if w, _ := b.Worst(); w != 3 {
		t.Fatalf("Worst after replace = %v", w)
	}
	if !b.Full() || b.Len() != 2 {
		t.Fatal("Full/Len wrong")
	}
}

func TestKBestSortedIsRepeatable(t *testing.T) {
	b := NewKBest(4)
	for i, d := range []float64{4, 1, 3, 2} {
		b.Add(i, d)
	}
	a1 := b.Sorted()
	a2 := b.Sorted()
	if len(a1) != len(a2) {
		t.Fatal("Sorted changed length")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("Sorted not repeatable; collector mutated")
		}
	}
}

func TestNewKBestPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewKBest(0)
}
