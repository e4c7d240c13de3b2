// Text-embedding search: the workload the paper's GloVe experiments model.
// Synthetic 100-d word embeddings (unit-norm, topic-clustered) are indexed
// under Angular distance with the cross-polytope family, and the example
// walks the scheme's two knobs: the hash-string length m, which sets the
// index size and the recall each candidate buys, and the per-query
// candidate budget λ, which trades query time for recall on a built index.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"time"

	"lccs"
)

const (
	vocab  = 30000
	dim    = 100
	topics = 120
	nq     = 25
	k      = 10
)

func main() {
	r := rand.New(rand.NewPCG(21, 4))
	words, names := makeEmbeddings(r)

	queries := make([][]float32, nq)
	for i := range queries {
		// A query is a word vector nudged within its topic cone.
		src := words[r.IntN(vocab)]
		q := make([]float32, dim)
		for j := range q {
			// Per-coordinate noise of 0.02 gives a ~0.2 rad nudge in
			// 100-d (noise norm ≈ 0.02·√d).
			q[j] = src[j] + float32(r.NormFloat64()*0.02)
		}
		normalize(q)
		queries[i] = q
	}

	// Exact truth, computed once up front so the timed loop below
	// measures only index queries.
	truth := make([]map[int]bool, nq)
	for i, q := range queries {
		truth[i] = exactSet(words, q)
	}

	for _, m := range []int{16, 64} {
		ix, err := lccs.NewIndex(words, lccs.Config{Metric: lccs.Angular, M: m, Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		for _, lambda := range []int{100, 400, 1600} {
			results := make([][]lccs.Neighbor, nq)
			start := time.Now()
			for i, q := range queries {
				res, err := ix.SearchQuery(q, lccs.Query{K: k, Budget: lambda}, nil)
				if err != nil {
					log.Fatal(err)
				}
				results[i] = res
			}
			elapsed := time.Since(start)
			var recall float64
			for i, got := range results {
				var hits float64
				for _, g := range got {
					if truth[i][g.ID] {
						hits++
					}
				}
				recall += hits / k
			}
			fmt.Printf("m=%-3d λ=%-5d index=%5.1fMB recall@%d=%5.1f%% query=%.2fms\n",
				m, lambda, float64(ix.Bytes())/(1<<20), k, 100*recall/float64(nq), elapsed.Seconds()*1000/nq)
		}
	}

	// Show one concrete result list.
	ix, err := lccs.NewIndex(words, lccs.Config{Metric: lccs.Angular, M: 64, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	fmt.Println("\nnearest words to query 0:")
	top, err := ix.SearchQuery(q, lccs.Query{K: 5, Budget: 100}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for rank, nb := range top {
		fmt.Printf("  #%d %-12s angle=%.3f rad\n", rank+1, names[nb.ID], nb.Dist)
	}
}

// makeEmbeddings builds a topic-clustered unit-norm vocabulary with
// synthetic word names ("topic17_word203").
func makeEmbeddings(r *rand.Rand) ([][]float32, []string) {
	topicDirs := make([][]float32, topics)
	for i := range topicDirs {
		t := make([]float32, dim)
		for j := range t {
			t[j] = float32(r.NormFloat64())
		}
		normalize(t)
		topicDirs[i] = t
	}
	words := make([][]float32, vocab)
	names := make([]string, vocab)
	for i := range words {
		topic := r.IntN(topics)
		v := make([]float32, dim)
		for j := range v {
			// 0.06 per coordinate ≈ 0.6 total noise norm against the
			// unit topic direction: same-topic words sit ~0.55 rad
			// apart, other topics near π/2.
			v[j] = topicDirs[topic][j] + float32(r.NormFloat64()*0.06)
		}
		normalize(v)
		words[i] = v
		names[i] = fmt.Sprintf("topic%d_word%d", topic, i)
	}
	return words, names
}

// exactSet returns the id set of the exact k nearest words by angle.
func exactSet(words [][]float32, q []float32) map[int]bool {
	type pair struct {
		id   int
		dist float64
	}
	best := make([]pair, 0, k+1)
	for id, w := range words {
		d := angle(w, q)
		if len(best) < k || d < best[len(best)-1].dist {
			best = append(best, pair{id, d})
			for i := len(best) - 1; i > 0 && best[i].dist < best[i-1].dist; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	set := make(map[int]bool, k)
	for _, b := range best {
		set[b.id] = true
	}
	return set
}

// angle is the angular distance between two unit vectors.
func angle(a, b []float32) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	if dot > 1 {
		dot = 1
	} else if dot < -1 {
		dot = -1
	}
	return math.Acos(dot)
}

func normalize(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	n := math.Sqrt(s)
	if n == 0 {
		return
	}
	for j := range v {
		v[j] = float32(float64(v[j]) / n)
	}
}
