// Package eval implements the paper's evaluation metrics (§6.2) — recall,
// overall ratio, query time, index size, indexing time — plus the grid-
// sweep utilities behind the figures: Pareto frontiers over
// (recall, query-time) and cheapest-config selection at a target recall
// level (Figures 4–7 report, per recall level, the best configuration of
// each method found by grid search).
package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lccs/internal/pqueue"
)

// Runner is one fully configured ANN method ready to answer k-NN
// queries: its display name ("LCCS-LSH", "E2LSH", ...), its configuration
// (e.g. "m=128 λ=40"), its index footprint and indexing wall-clock time,
// and its search.
type Runner struct {
	MethodName string
	ConfigDesc string
	IndexBytes int64
	IndexTime  time.Duration
	SearchFunc func(q []float32, k int) []pqueue.Neighbor
}

// Recall is the fraction of the true k-NN ids present in got (§6.2). want
// must be the exact k-NN; got may be shorter than k.
func Recall(got, want []pqueue.Neighbor) float64 {
	if len(want) == 0 {
		return 0
	}
	wantSet := make(map[int]struct{}, len(want))
	for _, w := range want {
		wantSet[w.ID] = struct{}{}
	}
	hit := 0
	for _, g := range got {
		if _, ok := wantSet[g.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// Ratio is the overall ratio of §6.2: (1/k) Σ_i Dist(o_i, q)/Dist(o*_i, q),
// comparing the i-th returned object against the exact i-th NN. Missing
// results (got shorter than want) and zero true distances matched by
// nonzero returned distances contribute the worst observed ratio; a fully
// empty result yields +Inf. Smaller is better; 1.0 is exact.
func Ratio(got, want []pqueue.Neighbor) float64 {
	if len(want) == 0 {
		return math.Inf(1)
	}
	if len(got) == 0 {
		return math.Inf(1)
	}
	var sum float64
	worst := 1.0
	count := 0
	for i := range want {
		if i >= len(got) {
			break
		}
		var r float64
		switch {
		case want[i].Dist == 0 && got[i].Dist == 0:
			r = 1
		case want[i].Dist == 0:
			// Exact answer sits at distance 0 but we returned
			// something else; there is no meaningful finite ratio,
			// count it as the worst seen.
			r = worst
		default:
			r = got[i].Dist / want[i].Dist
		}
		if r > worst {
			worst = r
		}
		sum += r
		count++
	}
	// Pad missing positions with the worst observed ratio.
	for i := count; i < len(want); i++ {
		sum += worst
	}
	return sum / float64(len(want))
}

// Result is the measured performance of one method configuration.
type Result struct {
	Method      string
	Config      string
	K           int
	Recall      float64 // in [0,1]
	Ratio       float64
	QueryTimeMS float64 // average wall-clock per query, milliseconds
	IndexBytes  int64
	IndexTimeMS float64
}

// String formats the result as one harness output row.
func (r Result) String() string {
	return fmt.Sprintf("%-14s %-28s k=%-3d recall=%6.2f%% ratio=%6.4f qtime=%9.4fms size=%8.1fMB itime=%8.1fms",
		r.Method, r.Config, r.K, 100*r.Recall, r.Ratio, r.QueryTimeMS,
		float64(r.IndexBytes)/(1<<20), r.IndexTimeMS)
}

// Evaluate runs every query through r (single-threaded, matching the
// paper's measurement methodology), timing each to the nanosecond, and
// aggregates metrics against the exact truth.
func Evaluate(r *Runner, queries [][]float32, truth [][]pqueue.Neighbor, k int) Result {
	if len(queries) != len(truth) {
		panic("eval: queries/truth length mismatch")
	}
	var recall, ratio float64
	var total time.Duration
	for i, q := range queries {
		start := time.Now()
		got := r.SearchFunc(q, k)
		total += time.Since(start)
		recall += Recall(got, truth[i])
		ratio += Ratio(got, truth[i])
	}
	nq := float64(len(queries))
	return Result{
		Method:      r.MethodName,
		Config:      r.ConfigDesc,
		K:           k,
		Recall:      recall / nq,
		Ratio:       ratio / nq,
		QueryTimeMS: total.Seconds() * 1000 / nq,
		IndexBytes:  r.IndexBytes,
		IndexTimeMS: float64(r.IndexTime.Milliseconds()),
	}
}

// ParetoFrontier filters results to the (recall ↑, query time ↓) Pareto
// frontier — the curve plotted per method in Figures 4 and 5 — sorted by
// ascending recall.
func ParetoFrontier(results []Result) []Result {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Recall != sorted[b].Recall {
			return sorted[a].Recall < sorted[b].Recall
		}
		return sorted[a].QueryTimeMS < sorted[b].QueryTimeMS
	})
	var out []Result
	// Walk from the highest recall down, keeping strictly improving
	// query times.
	bestTime := math.Inf(1)
	for i := len(sorted) - 1; i >= 0; i-- {
		if sorted[i].QueryTimeMS < bestTime {
			bestTime = sorted[i].QueryTimeMS
			out = append(out, sorted[i])
		}
	}
	// Reverse to ascending recall.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// BestAtRecall returns the fastest configuration whose recall reaches
// minRecall, as used by the Figure 6/7 trade-off plots ("lowest query time
// ... at 50% recall level"). ok is false if no configuration qualifies.
func BestAtRecall(results []Result, minRecall float64) (Result, bool) {
	var best Result
	found := false
	for _, r := range results {
		if r.Recall+1e-12 < minRecall {
			continue
		}
		if !found || r.QueryTimeMS < best.QueryTimeMS {
			best = r
			found = true
		}
	}
	return best, found
}

// BestAtRecallBySize returns, for each distinct index size among results
// meeting minRecall, the lowest query time — the (index size, query time)
// trade-off series of Figures 6 and 7, sorted by ascending size.
func BestAtRecallBySize(results []Result, minRecall float64) []Result {
	bySize := map[int64]Result{}
	for _, r := range results {
		if r.Recall+1e-12 < minRecall {
			continue
		}
		cur, ok := bySize[r.IndexBytes]
		if !ok || r.QueryTimeMS < cur.QueryTimeMS {
			bySize[r.IndexBytes] = r
		}
	}
	out := make([]Result, 0, len(bySize))
	for _, r := range bySize {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].IndexBytes < out[b].IndexBytes })
	return out
}
