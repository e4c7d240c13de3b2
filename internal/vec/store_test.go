package vec

import (
	"math"
	"testing"
)

func TestStoreFromRowsAndRow(t *testing.T) {
	rows := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	s, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 2 {
		t.Fatalf("shape: len=%d dim=%d", s.Len(), s.Dim())
	}
	for i, r := range rows {
		if !Equal(s.Row(i), r) {
			t.Fatalf("row %d: %v", i, s.Row(i))
		}
	}
	if s.Bytes() != 3*2*4 {
		t.Fatalf("bytes: %d", s.Bytes())
	}
}

func TestStoreFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows should fail")
	}
	if _, err := FromRows([][]float32{{}}); err == nil {
		t.Fatal("zero-dimensional rows should fail")
	}
	s, err := FromRows(nil)
	if err != nil || s.Len() != 0 {
		t.Fatalf("empty FromRows: %v len=%d", err, s.Len())
	}
}

func TestStoreAppendFixesDim(t *testing.T) {
	s := NewStore(0)
	if s.Dim() != 0 || s.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	if id := s.Append([]float32{7, 8, 9}); id != 0 {
		t.Fatalf("first id %d", id)
	}
	if s.Dim() != 3 {
		t.Fatalf("dim not fixed: %d", s.Dim())
	}
	if id := s.Append([]float32{1, 1, 1}); id != 1 {
		t.Fatalf("second id %d", id)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	s.Append([]float32{1})
}

func TestStoreSliceViewSurvivesAppend(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 4; i++ {
		s.Append([]float32{float32(i), float32(i)})
	}
	view := s.Slice(1, 3)
	if view.Len() != 2 || !Equal(view.Row(0), []float32{1, 1}) {
		t.Fatalf("view: len=%d row0=%v", view.Len(), view.Row(0))
	}
	// Growing the owner (including reallocation) must not disturb the
	// view's contents.
	for i := 0; i < 1000; i++ {
		s.Append([]float32{9, 9})
	}
	if !Equal(view.Row(0), []float32{1, 1}) || !Equal(view.Row(1), []float32{2, 2}) {
		t.Fatalf("view disturbed by append: %v %v", view.Row(0), view.Row(1))
	}
}

func TestStoreCompactCopy(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 6; i++ {
		s.Append([]float32{float32(i), float32(i * 10)})
	}
	dead := map[int]bool{3: true, 5: true}
	out := s.CompactCopy(func(i int) bool { return dead[i] })
	if out.Len() != 4 || out.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", out.Len(), out.Dim())
	}
	// Survivors shifted down in order.
	for i, want := range []float32{0, 1, 2, 4} {
		if row := out.Row(i); row[0] != want {
			t.Fatalf("row %d = %v, want first coord %v", i, row, want)
		}
	}
	// The source is untouched and shares no memory with the copy.
	if s.Len() != 6 || s.Row(3)[0] != 3 {
		t.Fatalf("source mutated: Len=%d", s.Len())
	}
	out.Row(0)[0] = 99
	if s.Row(0)[0] == 99 {
		t.Fatal("compact copy aliases the source block")
	}

	// Dropping nothing still yields an independent copy of equal size.
	all := s.CompactCopy(func(int) bool { return false })
	if all.Len() != 6 {
		t.Fatalf("no-drop copy Len=%d", all.Len())
	}
	// Dropping everything.
	none := s.CompactCopy(func(int) bool { return true })
	if none.Len() != 0 {
		t.Fatalf("all-drop copy Len=%d", none.Len())
	}
}

func TestStoreCopy(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 6; i++ {
		s.Append([]float32{float32(i), float32(i * 10)})
	}
	out := s.Copy(2, 5)
	if out.Len() != 3 || out.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", out.Len(), out.Dim())
	}
	for i := 0; i < 3; i++ {
		if !Equal(out.Row(i), s.Row(2+i)) {
			t.Fatalf("row %d = %v, want %v", i, out.Row(i), s.Row(2+i))
		}
	}
	// The copy owns its block: appending to it leaves the source alone.
	out.Append([]float32{7, 7})
	out.Row(0)[0] = 99
	if s.Row(2)[0] != 2 || s.Row(5)[0] != 5 {
		t.Fatalf("copy aliases the source block: %v %v", s.Row(2), s.Row(5))
	}
	if empty := s.Copy(4, 4); empty.Len() != 0 || empty.Dim() != 2 {
		t.Fatalf("empty copy: Len=%d Dim=%d", empty.Len(), empty.Dim())
	}
}

func TestStoreScanMatchesMetric(t *testing.T) {
	rows := [][]float32{{0, 0}, {3, 4}, {6, 8}, {1, 1}}
	s, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{0, 0}
	var ids []int
	var dists []float64
	s.Scan(1, 4, q, Euclidean, func(id int, d float64) {
		ids = append(ids, id)
		dists = append(dists, d)
	})
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids: %v", ids)
	}
	for i, id := range ids {
		want := Euclidean.Distance(rows[id], q)
		if math.Abs(dists[i]-want) > 1e-12 {
			t.Fatalf("dist %d: got %v want %v", id, dists[i], want)
		}
	}
}
