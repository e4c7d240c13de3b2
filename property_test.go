package lccs

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestSearchInvariantsProperty drives random small indexes through the
// public API and asserts the result contract: ids in range and distinct,
// distances exact and sorted, result count = min(k, n) when the budget
// covers the dataset.
func TestSearchInvariantsProperty(t *testing.T) {
	f := func(seed uint64, metricRaw, mRaw, kRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 0xFACADE))
		metrics := []MetricKind{Euclidean, Angular, Hamming}
		metric := metrics[int(metricRaw)%len(metrics)]
		n := 10 + r.IntN(120)
		d := 4 + r.IntN(12)
		m := 4 + int(mRaw%28)
		k := 1 + int(kRaw%8)

		data := make([][]float32, n)
		for i := range data {
			v := make([]float32, d)
			for j := range v {
				if metric == Hamming {
					v[j] = float32(r.IntN(2))
				} else {
					v[j] = float32(r.NormFloat64() * 3)
				}
			}
			data[i] = v
		}
		ix, err := NewIndex(data, Config{Metric: metric, M: m, Seed: seed})
		if err != nil {
			return false
		}
		q := data[r.IntN(n)]
		res, err := ix.SearchQuery(q, Query{K: k, Budget: n}, nil) // budget covers everything
		if err != nil {
			return false
		}
		want := k
		if n < k {
			want = n
		}
		if len(res) != want {
			return false
		}
		seen := map[int]bool{}
		for i, nb := range res {
			if nb.ID < 0 || nb.ID >= n || seen[nb.ID] {
				return false
			}
			seen[nb.ID] = true
			if nb.Dist != ix.Distance(data[nb.ID], q) {
				return false
			}
			if i > 0 && res[i-1].Dist > nb.Dist {
				return false
			}
		}
		// Full-budget self query: the query point itself must rank
		// first (Angular self-distance can be ~1e-8 in floating
		// point, not exactly 0).
		return res[0].Dist < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFullBudgetEqualsExactProperty: with λ = n every method must return
// the exact k-NN (every candidate is verified).
func TestFullBudgetEqualsExactProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0xE8AC7))
		n := 20 + r.IntN(80)
		d := 4 + r.IntN(8)
		data := make([][]float32, n)
		for i := range data {
			v := make([]float32, d)
			for j := range v {
				v[j] = float32(r.NormFloat64())
			}
			data[i] = v
		}
		ix, err := NewIndex(data, Config{Metric: Euclidean, M: 8, Seed: seed})
		if err != nil {
			return false
		}
		q := make([]float32, d)
		for j := range q {
			q[j] = float32(r.NormFloat64())
		}
		got, err := ix.SearchQuery(q, Query{K: 5, Budget: n}, nil)
		if err != nil {
			return false
		}
		want := exactKNNProp(data, q, minInt(5, n), ix.Distance)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Distances must match exactly (ids may tie).
			if got[i].Dist != want[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func exactKNNProp(data [][]float32, q []float32, k int, dist func(a, b []float32) float64) []Neighbor {
	best := make([]Neighbor, 0, k+1)
	for id, v := range data {
		d := dist(v, q)
		if len(best) < k || d < best[len(best)-1].Dist {
			best = append(best, Neighbor{ID: id, Dist: d})
			for i := len(best) - 1; i > 0 && best[i].Dist < best[i-1].Dist; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
