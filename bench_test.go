// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact — run `go test -bench=.` for the smoke-scale
// versions; `cmd/lccs-bench` runs the full-scale sweeps), plus the
// ablation benchmarks for the design choices called out in DESIGN.md and
// microbenchmarks of the core data structures.
package lccs

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"lccs/internal/baseline/c2lsh"
	"lccs/internal/baseline/e2lsh"
	"lccs/internal/baseline/mplsh"
	"lccs/internal/baseline/qalsh"
	"lccs/internal/baseline/srs"
	"lccs/internal/core"
	"lccs/internal/csa"
	"lccs/internal/dataset"
	"lccs/internal/eval"
	"lccs/internal/experiments"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// benchOpts is the smoke-scale experiment configuration used by the
// per-figure benchmarks: one dataset, small n, quick grids. The bench
// measures the full experiment pipeline (dataset generation, ground
// truth, index builds, query sweeps).
func benchOpts() experiments.Options {
	return experiments.Options{
		N: 3000, NQ: 20, K: 10, Seed: 1,
		Datasets: []string{"sift"},
		Quick:    true,
		Out:      io.Discard,
	}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Complexities regenerates Table 1 (complexity table plus
// Theorem 5.1 λ grounding).
func BenchmarkTable1Complexities(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Datasets regenerates Table 2 (dataset statistics).
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpts()
		opt.Datasets = dataset.PresetNames()
		if err := experiments.Run("table2", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4QueryTimeRecallEuclidean regenerates Figure 4 (query
// time–recall curves, Euclidean, 7 methods).
func BenchmarkFig4QueryTimeRecallEuclidean(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5QueryTimeRecallAngular regenerates Figure 5 (query
// time–recall curves, Angular, 5 methods).
func BenchmarkFig5QueryTimeRecallAngular(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6IndexingTradeoffEuclidean regenerates Figure 6 (query time
// vs index size / indexing time at 50% recall, Euclidean).
func BenchmarkFig6IndexingTradeoffEuclidean(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7IndexingTradeoffAngular regenerates Figure 7 (the same
// trade-off under Angular distance).
func BenchmarkFig7IndexingTradeoffAngular(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8SensitivityToK regenerates Figure 8 (recall/ratio/query
// time vs k on Sift, both metrics).
func BenchmarkFig8SensitivityToK(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9ImpactOfM regenerates Figure 9 (impact of m for LCCS-LSH).
func BenchmarkFig9ImpactOfM(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10ImpactOfProbes regenerates Figure 10 (impact of #probes
// for MP-LCCS-LSH).
func BenchmarkFig10ImpactOfProbes(b *testing.B) { benchExperiment(b, "fig10") }

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// benchStrings builds a CSA workload of n random hash strings of length m
// over a realistic alphabet.
func benchStrings(n, m int, seed uint64) ([][]int32, [][]int32) {
	g := rng.New(seed)
	strs := make([][]int32, n)
	for i := range strs {
		s := make([]int32, m)
		for j := range s {
			s[j] = int32(g.IntN(16))
		}
		strs[i] = s
	}
	queries := make([][]int32, 64)
	for i := range queries {
		// Queries resemble data strings with a few symbols changed, so
		// LCP structure is realistic.
		q := append([]int32(nil), strs[g.IntN(n)]...)
		for c := 0; c < m/4; c++ {
			q[g.IntN(m)] = int32(g.IntN(16))
		}
		queries[i] = q
	}
	return strs, queries
}

// BenchmarkAblationCSANextLinks compares the optimized k-LCCS search
// (next-link range narrowing, Lemma 3.1/Corollary 3.2) against the simple
// method (m full binary searches, §3.2).
func BenchmarkAblationCSANextLinks(b *testing.B) {
	strs, queries := benchStrings(20000, 64, 1)
	c := csa.New(strs)
	s := c.NewSearcher()
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Search(queries[i%len(queries)], 50)
		}
	})
	b.Run("simple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.SearchSimple(queries[i%len(queries)], 50)
		}
	})
}

// BenchmarkAblationMPSkip compares probing with the skip-unaffected-
// positions rule (§4.2) against re-searching every shift.
func BenchmarkAblationMPSkip(b *testing.B) {
	strs, queries := benchStrings(20000, 64, 2)
	c := csa.New(strs)
	s := c.NewSearcher()
	perturb := func(q []int32) ([]int32, []int) {
		pq := append([]int32(nil), q...)
		pq[10]++
		pq[11]++
		return pq, []int{10, 11}
	}
	b.Run("skip", func(b *testing.B) {
		var scratch []int
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			pq, mods := perturb(q)
			s.Begin(q)
			scratch = s.Probe(pq, mods, scratch)
			for c := 0; c < 50; c++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			pq, _ := perturb(q)
			s.Begin(q)
			s.ProbeFull(pq)
			for c := 0; c < 50; c++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
		}
	})
}

// BenchmarkAblationMaxGap sweeps the MAX_GAP constraint of the
// perturbation generator (the paper fixes MAX_GAP = 2).
func BenchmarkAblationMaxGap(b *testing.B) {
	g := rng.New(3)
	n, d, m := 5000, 32, 32
	data := make([][]float32, n)
	for i := range data {
		data[i] = g.GaussianVector(d)
	}
	fam := lshfamily.NewRandomProjection(d, 4)
	for _, gap := range []int{1, 2, 4, 8} {
		ix, err := core.Build(data, fam, core.Params{M: m, Seed: 1, Probes: 2*m + 1, MaxGap: gap})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Search(data[i%n], 10, 50)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks: core data structures and baselines
// ---------------------------------------------------------------------------

// BenchmarkCSABuild measures Algorithm 1 (index construction).
func BenchmarkCSABuild(b *testing.B) {
	for _, m := range []int{16, 64} {
		strs, _ := benchStrings(10000, m, 4)
		b.Run(fmt.Sprintf("n=10000,m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csa.New(strs)
			}
		})
	}
}

// BenchmarkCSASearch measures Algorithm 2 (k-LCCS queries) across m and k.
func BenchmarkCSASearch(b *testing.B) {
	for _, m := range []int{16, 64, 128} {
		strs, queries := benchStrings(20000, m, 5)
		c := csa.New(strs)
		s := c.NewSearcher()
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("m=%d,k=%d", m, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.Search(queries[i%len(queries)], k)
				}
			})
		}
	}
}

// BenchmarkHashFamilies measures η(d): the per-hash cost of each family.
func BenchmarkHashFamilies(b *testing.B) {
	g := rng.New(6)
	d := 128
	v := g.GaussianVector(d)
	bits := make([]float32, d)
	for i := range bits {
		bits[i] = float32(g.IntN(2))
	}
	cases := []struct {
		name string
		f    lshfamily.Func
		in   []float32
	}{
		{"randproj", lshfamily.NewRandomProjection(d, 4).New(g), v},
		{"crosspolytope", lshfamily.NewCrossPolytope(d).New(g), v},
		{"bitsampling", lshfamily.NewBitSampling(d).New(g), bits},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.f.Hash(c.in)
			}
		})
	}
}

// BenchmarkMethodsQuery measures one query of every method on the same
// clustered workload at comparable candidate budgets.
func BenchmarkMethodsQuery(b *testing.B) {
	g := rng.New(7)
	n, d := 20000, 32
	centers := make([][]float32, 32)
	for i := range centers {
		centers[i] = g.UniformVector(d, -10, 10)
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[i%len(centers)]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(g.NormFloat64())
		}
		data[i] = v
	}
	fam := lshfamily.NewRandomProjection(d, 8)

	lccsIx, err := core.Build(data, fam, core.Params{M: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mpIx, err := core.Build(data, fam, core.Params{M: 32, Seed: 1, Probes: 65})
	if err != nil {
		b.Fatal(err)
	}
	e2, err := e2lsh.Build(data, fam, e2lsh.Params{K: 4, L: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mplsh.Build(data, fam, mplsh.Params{K: 6, L: 8, Probes: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c2, err := c2lsh.Build(data, fam, c2lsh.Params{M: 32, Threshold: 8, Budget: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	qa, err := qalsh.Build(data, d, qalsh.Params{M: 32, Threshold: 8, W: 4, Budget: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sr, err := srs.Build(data, d, srs.Params{ProjDim: 6, Budget: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("LCCS-LSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lccsIx.Search(data[i%n], 10, 100)
		}
	})
	b.Run("MP-LCCS-LSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mpIx.Search(data[i%n], 10, 100)
		}
	})
	b.Run("E2LSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e2.Search(data[i%n], 10)
		}
	})
	b.Run("Multi-Probe-LSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mp.Search(data[i%n], 10)
		}
	})
	b.Run("C2LSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c2.Search(data[i%n], 10)
		}
	})
	b.Run("QALSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qa.Search(data[i%n], 10)
		}
	})
	b.Run("SRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sr.Search(data[i%n], 10)
		}
	})
}

// shardBenchData builds a clustered workload of n vectors in d
// dimensions.
func shardBenchData(n, d int) [][]float32 {
	g := rng.New(9)
	centers := make([][]float32, 64)
	for i := range centers {
		centers[i] = g.UniformVector(d, -10, 10)
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[i%len(centers)]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(g.NormFloat64())
		}
		data[i] = v
	}
	return data
}

// BenchmarkShardFrontier is the frontier a built index's segment count
// is decided on: S ∈ {1, 2, 4} segments (newSharded) over the sift and
// gist presets, each searched at candidate budgets λ ∈ {100, 400, 1 000}.
// Every cell reports recall@10 against the exact ground truth, µs a query
// (an iteration is the 100 queries, one after another) and the best of
// three builds in ms, so S > 1 can be set against S = 1 at equal recall.
// docs/PERFORMANCE.md ("One CSA per built index") records the medians of
// five processes of
//
//	go test -run '^$' -bench ShardFrontier -benchtime 20x .
func BenchmarkShardFrontier(b *testing.B) {
	presets := []struct {
		name string
		n    int
	}{{"sift", 50_000}, {"gist", 20_000}}
	for _, p := range presets {
		env, err := experiments.NewEnv(p.name, vec.Euclidean, experiments.Options{N: p.n, NQ: 100, K: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Metric: Euclidean, M: 64, Seed: 1}
		for _, shards := range []int{1, 2, 4} {
			var ix *Index
			build := time.Duration(math.MaxInt64)
			for range 3 {
				start := time.Now()
				if ix, err = newSharded(env.DS.Data, cfg, shards); err != nil {
					b.Fatal(err)
				}
				build = min(build, time.Since(start))
			}
			for _, budget := range []int{100, 400, 1000} {
				b.Run(fmt.Sprintf("%s/S=%d/lambda=%d", p.name, shards, budget), func(b *testing.B) {
					q := Query{K: 10, Budget: budget}
					var dst []Neighbor
					var recall float64
					for qi, query := range env.DS.Queries {
						if dst, err = ix.SearchQuery(query, q, dst[:0]); err != nil {
							b.Fatal(err)
						}
						recall += eval.Recall(dst, env.Truth[qi])
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, query := range env.DS.Queries {
							dst, _ = ix.SearchQuery(query, q, dst[:0])
						}
					}
					nq := float64(len(env.DS.Queries))
					b.ReportMetric(recall/nq, "recall@10")
					b.ReportMetric(float64(b.Elapsed().Microseconds())/(nq*float64(b.N)), "µs/query")
					b.ReportMetric(float64(build.Microseconds())/1e3, "build_ms")
				})
			}
		}
	}
}

// BenchmarkPublicAPI measures the facade round trip.
func BenchmarkPublicAPI(b *testing.B) {
	g := rng.New(8)
	data := make([][]float32, 5000)
	for i := range data {
		data[i] = g.GaussianVector(32)
	}
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(data[i%len(data)], 10)
	}
}

// BenchmarkDynamicChurn measures the full mutation lifecycle per
// iteration: one insert, one delete of a random live id, and one
// search against a DynamicIndex whose background delta builds (and
// their buffer compactions) run as a side effect of the churn. This is
// the smoke-scale cousin of the `churn-d16` workload in bench/.
func BenchmarkDynamicChurn(b *testing.B) {
	g := rng.New(9)
	data := make([][]float32, 4000)
	for i := range data {
		data[i] = g.GaussianVector(16)
	}
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 1}, 512)
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, len(data))
	for i := range live {
		live[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := d.Add(data[i%len(data)])
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, id)
		victim := g.IntN(len(live))
		d.Delete(live[victim])
		live[victim] = live[len(live)-1]
		live = live[:len(live)-1]
		if _, err := d.Search(data[i%len(data)], 10); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d.WaitRebuild()
}

// BenchmarkDynamicCompaction measures what an explicit Rebuild costs
// after heavy deletion: per iteration, tombstone a third of the index
// and compact it away.
func BenchmarkDynamicCompaction(b *testing.B) {
	g := rng.New(10)
	data := make([][]float32, 6000)
	for i := range data {
		data[i] = g.GaussianVector(16)
	}
	d, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 1}, 100000)
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, len(data))
	for i := range live {
		live[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Refill what the previous iteration deleted, then tombstone a
		// third of the live set.
		for len(live) < len(data) {
			id, err := d.Add(g.GaussianVector(16))
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, id)
		}
		for _, id := range live[:len(data)/3] {
			d.Delete(id)
		}
		live = append(live[:0:0], live[len(data)/3:]...)
		b.StartTimer()
		if err := d.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilteredSearch measures metadata-filtered search on a
// DynamicIndex at three predicate selectivities — string equality
// matching 1 % of rows, int equality 10 %, an int range 50 % — under the
// default candidate budget λ. Beside ns/op it reports recall@10 against
// an exact scan of the matching rows: at a fixed λ the filter rejects
// candidates in-stream, so a rarer predicate pays a longer drain per
// verified row, and the recall column says what that bought.
func BenchmarkFilteredSearch(b *testing.B) {
	const n, d, m, k, nq = 20_000, 16, 32, 10, 50
	data := shardBenchData(n, d)
	g := rng.New(11)
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = g.GaussianVector(d)
		for j, x := range data[g.IntN(n)] {
			queries[i][j] = x + queries[i][j]*0.3
		}
	}
	dyn, err := NewDynamicIndex(nil, Config{Metric: Euclidean, M: m, BucketWidth: 4, Seed: 1}, n+1)
	if err != nil {
		b.Fatal(err)
	}
	for id, v := range data {
		tier := "cold"
		if id%100 == 0 {
			tier = "hot"
		}
		attrs := Attrs{"tier": StrAttr(tier), "decile": IntAttr(int64(id % 10)), "bucket": IntAttr(int64(id % 100))}
		if _, err := dyn.AddWithAttrs(v, attrs); err != nil {
			b.Fatal(err)
		}
	}
	if err := dyn.Rebuild(); err != nil {
		b.Fatal(err)
	}
	lo, hi := int64(0), int64(49)
	cases := []struct {
		name   string
		filter *Filter
		match  func(id int) bool
	}{
		{"sel=1%", &Filter{Terms: []FilterTerm{EqStr("tier", "hot")}}, func(id int) bool { return id%100 == 0 }},
		{"sel=10%", &Filter{Terms: []FilterTerm{EqInt("decile", 0)}}, func(id int) bool { return id%10 == 0 }},
		{"sel=50%", &Filter{Terms: []FilterTerm{Range("bucket", &lo, &hi)}}, func(id int) bool { return id%100 < 50 }},
	}
	for _, c := range cases {
		var hit, total int
		for _, q := range queries {
			// The exact answer: the k nearest matching rows.
			var exact pqueue.KBest
			exact.Reset(k)
			for id, row := range data {
				if c.match(id) {
					exact.Add(id, dyn.Distance(q, row))
				}
			}
			truth := map[int]bool{}
			for _, nb := range exact.AppendSorted(nil) {
				truth[nb.ID] = true
			}
			for _, nb := range must(dyn.SearchQuery(q, Query{K: k, Filter: c.filter}, nil)) {
				if truth[nb.ID] {
					hit++
				}
			}
			total += len(truth)
		}
		b.Run(c.name, func(b *testing.B) {
			var dst []Neighbor
			for i := 0; i < b.N; i++ {
				if dst, err = dyn.SearchQuery(queries[i%nq], Query{K: k, Filter: c.filter}, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(hit)/float64(total), "recall@10")
		})
	}
}

// BenchmarkTombstonedSearch measures a search over a fixed tombstoned
// state at the shape of bench/'s `churn-d16` workload: n = 20 000 rows of
// dim 16 in one shard (m = 32, λ = 100, k = 10) plus a 1 400-row insert
// buffer, with the given share of all rows deleted at random and no
// compaction. Beside ns/op it reports cand/op, the rows scored per query
// (Cost.Candidates). dead=0% is the no-tombstone control: whatever the
// tombstone path costs must not show there.
func BenchmarkTombstonedSearch(b *testing.B) {
	const n, buffered, d, m, lambda, k, nq = 20_000, 1400, 16, 32, 100, 10, 200
	data := shardBenchData(n+buffered, d)
	g := rng.New(12)
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = g.GaussianVector(d)
		for j, x := range data[g.IntN(len(data))] {
			queries[i][j] = x + queries[i][j]*0.3
		}
	}
	cfg := Config{Metric: Euclidean, M: m, BucketWidth: 4, Budget: lambda, Seed: 1}
	for _, pct := range []int{0, 10, 25, 50, 90} {
		b.Run(fmt.Sprintf("dead=%d%%", pct), func(b *testing.B) {
			dyn, err := NewDynamicIndex(data[:n], cfg, buffered+1)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range data[n:] {
				must(dyn.Add(v))
			}
			for _, id := range rng.New(13).Perm(len(data))[:len(data)*pct/100] {
				dyn.Delete(id)
			}
			var cost Cost
			for _, q := range queries {
				must(dyn.SearchQuery(q, Query{K: k, Cost: &cost}, nil))
			}
			dst := make([]Neighbor, 0, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = dyn.SearchInto(queries[i%nq], k, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Candidates)/nq, "cand/op")
		})
	}
}
