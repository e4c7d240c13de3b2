// Image-descriptor search: the workload the paper's Sift/Gist experiments
// model. Synthetic 128-d SIFT-like descriptors (non-negative quantized
// features) are indexed under Euclidean distance; the example measures
// recall against an exact scan and the speedup LCCS-LSH buys, and shows
// the recall/time effect of the per-query candidate budget λ.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"lccs"
)

const (
	n   = 20000
	dim = 128
	nq  = 30
	k   = 10
)

func main() {
	r := rand.New(rand.NewPCG(7, 9))
	data := makeDescriptors(r, n)
	queries := make([][]float32, nq)
	for i := range queries {
		// Queries are noisy views of database images.
		src := data[r.IntN(n)]
		q := make([]float32, dim)
		for j := range q {
			q[j] = src[j] + float32(r.NormFloat64()*4)
			if q[j] < 0 {
				q[j] = 0
			}
		}
		queries[i] = q
	}

	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 128, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d descriptors, m=%d, %.1f MB, built in %v\n",
		ix.Len(), ix.M(), float64(ix.Bytes())/(1<<20), ix.BuildTime().Round(time.Millisecond))

	// Exact baseline for recall and speed comparison.
	truth := make([][]lccs.Neighbor, nq)
	scanStart := time.Now()
	for i, q := range queries {
		truth[i] = exactKNN(data, q, k, ix)
	}
	scanTime := time.Since(scanStart)

	fmt.Printf("\n%8s %10s %10s %10s\n", "λ", "recall", "query", "speedup")
	for _, lambda := range []int{10, 50, 200, 800} {
		start := time.Now()
		var recall float64
		for i, q := range queries {
			got, err := ix.SearchQuery(q, lccs.Query{K: k, Budget: lambda}, nil)
			if err != nil {
				log.Fatal(err)
			}
			recall += overlap(got, truth[i]) / k
		}
		lshTime := time.Since(start)
		fmt.Printf("%8d %9.1f%% %8.2fms %9.1fx\n",
			lambda,
			100*recall/nq,
			lshTime.Seconds()*1000/nq,
			scanTime.Seconds()/lshTime.Seconds())
	}
}

func makeDescriptors(r *rand.Rand, n int) [][]float32 {
	// 200 visual words; descriptors scatter around them (SIFT values are
	// non-negative bytes).
	words := make([][]float32, 200)
	for i := range words {
		w := make([]float32, dim)
		for j := range w {
			w[j] = float32(r.Float64() * 128)
		}
		words[i] = w
	}
	data := make([][]float32, n)
	for i := range data {
		w := words[r.IntN(len(words))]
		v := make([]float32, dim)
		for j := range v {
			x := w[j] + float32(r.NormFloat64()*16)
			if x < 0 {
				x = 0
			}
			v[j] = float32(int32(x))
		}
		data[i] = v
	}
	return data
}

func exactKNN(data [][]float32, q []float32, k int, ix *lccs.Index) []lccs.Neighbor {
	best := make([]lccs.Neighbor, 0, k+1)
	for id, v := range data {
		d := ix.Distance(v, q)
		if len(best) < k || d < best[len(best)-1].Dist {
			best = append(best, lccs.Neighbor{ID: id, Dist: d})
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

func overlap(got, want []lccs.Neighbor) float64 {
	set := map[int]bool{}
	for _, w := range want {
		set[w.ID] = true
	}
	var hits float64
	for _, g := range got {
		if set[g.ID] {
			hits++
		}
	}
	return hits
}
