package vec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"lccs/internal/pqueue"
)

// gatherIDLists are the id sequences the gather entry points must handle:
// each puts a different row into the look-ahead (next) slot of the row
// kernels, or none at all.
func gatherIDLists(n int) map[string][]int32 {
	last := int32(n - 1)
	desc := make([]int32, n)
	for i := range desc {
		desc[i] = last - int32(i)
	}
	return map[string][]int32{
		"empty":              {},
		"single":             {int32(n / 2)},
		"duplicates":         {3 % int32(n), 3 % int32(n), 3 % int32(n), 3 % int32(n)},
		"descending":         desc,
		"first row last":     {last, int32(n / 2), 0},
		"first row non-last": {0, last, int32(n / 2)},
		"last row last":      {0, int32(n / 2), last},
		"last row non-last":  {int32(n / 2), last, 0},
	}
}

// TestGatherMatchesDistance holds the gather to its contract directly:
// out[j] is, bit for bit, the pairwise Distance of row ids[j] alone,
// whatever row the kernel was handed to prefetch.
// It runs against the assembly and, under -tags noasm, the pure-Go
// kernels.
func TestGatherMatchesDistance(t *testing.T) {
	g := rand.New(rand.NewPCG(21, 23))
	const n = 9
	for _, dim := range []int{1, 7, 8, 15, 16, 17, 31, 128, 960, 961} {
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = kernelTestVec(g, dim)
			// Set metrics want indicator-like rows; zeros also exercise
			// the exact-equality arms of Hamming.
			for d := range rows[i] {
				if g.IntN(4) == 0 {
					rows[i][d] = 0
				}
			}
		}
		rows[n-2] = make([]float32, dim) // a zero row: angular's zero-norm arm
		s, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		q := kernelTestVec(g, dim)

		for name, ids := range gatherIDLists(n) {
			for _, m := range []Metric{Euclidean, Angular, Hamming, Jaccard} {
				out := make([]float64, len(ids)+1)
				sentinel := math.Float64frombits(0x7ff8dead00000000)
				out[len(ids)] = sentinel
				s.GatherDistancesInto(ids, q, m, out)
				for j, id := range ids {
					want := m.Distance(s.Row(int(id)), q)
					if math.Float64bits(out[j]) != math.Float64bits(want) {
						t.Fatalf("dim %d %s %s: out[%d] (row %d) = %x, Distance = %x", dim, m.Name(), name, j, id,
							math.Float64bits(out[j]), math.Float64bits(want))
					}
				}
				if math.Float64bits(out[len(ids)]) != math.Float64bits(sentinel) {
					t.Fatalf("dim %d %s %s: wrote past out[:len(ids)]", dim, m.Name(), name)
				}
			}
		}
	}
}

// TestGatherNearestMatchesAdd holds GatherNearest to its contract: a
// k-best collector, empty or already holding rows, ends up holding bit for
// bit what GatherDistancesInto and an Add per row leave in it, while the
// bytes it reports never exceed a full read — equal it at dims without a
// checkpoint, and fall short of it at 960 once the collector is full.
func TestGatherNearestMatchesAdd(t *testing.T) {
	g := rand.New(rand.NewPCG(29, 31))
	const n = 40
	for _, dim := range []int{1, 16, 64, 65, 128, 960, 961} {
		// Rows near one of two far-apart centres: the far half is what a
		// bound stops.
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = make([]float32, dim)
			for d := range rows[i] {
				rows[i][d] = float32(i%2*20) + float32(g.NormFloat64())
			}
		}
		s, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		q := rows[0]
		lists := gatherIDLists(n)
		long := make([]int32, 3*n)
		for j := range long {
			long[j] = int32(g.IntN(n))
		}
		lists["long"] = long
		for name, ids := range lists {
			for _, k := range []int{1, 5, 200} {
				for _, prefill := range []bool{false, true} {
					var bounded, oracle pqueue.KBest
					bounded.Reset(k)
					oracle.Reset(k)
					if prefill {
						for i := 0; i < k; i++ {
							d := 2 * math.Sqrt(float64(dim)) * float64(i+1) / float64(k)
							bounded.Add(-1-i, d)
							oracle.Add(-1-i, d)
						}
					}
					dists := make([]float64, len(ids))
					s.GatherDistancesInto(ids, q, Euclidean, dists)
					for j, id := range ids {
						oracle.Add(100+int(id), dists[j])
					}
					read := s.GatherNearest(ids, q, 100, &bounded)
					label := fmt.Sprintf("dim %d %s k %d prefill %v", dim, name, k, prefill)
					if got, want := bounded.Sorted(), oracle.Sorted(); !sameNeighbors(got, want) {
						t.Fatalf("%s: GatherNearest kept %v, GatherDistancesInto and Add %v", label, got, want)
					}
					full := int64(len(ids)) * int64(dim) * 4
					if read > full || (dim <= boundStride && read != full) {
						t.Fatalf("%s: read %d bytes of %d", label, read, full)
					}
					if dim >= 960 && name == "long" && k < 200 && read >= full {
						t.Fatalf("%s: read every byte (%d)", label, read)
					}
				}
			}
		}
	}
}

// A short out must be refused before anything is written, with
// DistancesInto's message; an id outside the store must panic wherever it
// stands in the list — also where it is only ever a look-ahead row.
func TestGatherPanics(t *testing.T) {
	s, err := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{1, 1}
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}

	const short = "vec: distance output buffer too short"
	for _, m := range []Metric{Euclidean, Angular, Hamming} {
		out := []float64{-1, -1}
		if v := panicOf(func() { s.GatherDistancesInto([]int32{0, 1, 2}, q, m, out) }); v != short {
			t.Fatalf("%s: short out: panic %v, want %q", m.Name(), v, short)
		}
		if out[0] != -1 || out[1] != -1 {
			t.Fatalf("%s: short out was written to before the panic: %v", m.Name(), out)
		}
	}

	for _, bad := range []int32{-1, 3, math.MaxInt32, math.MinInt32} {
		for pos := 0; pos < 3; pos++ {
			ids := []int32{0, 1, 2}
			ids[pos] = bad
			name := fmt.Sprintf("id %d at %d", bad, pos)
			for _, m := range []Metric{Euclidean, Angular, Jaccard} {
				if panicOf(func() { s.GatherDistancesInto(ids, q, m, make([]float64, 3)) }) == nil {
					t.Fatalf("%s, %s: no panic", name, m.Name())
				}
			}
			if panicOf(func() { s.PrefetchRow(int(bad)) }) == nil {
				t.Fatalf("%s: PrefetchRow: no panic", name)
			}
		}
	}
}
