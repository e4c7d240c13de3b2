package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"lccs"
	"lccs/internal/core"
	"lccs/internal/csa"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// indexSeed is the Config.Seed of every index the benchmark builds (and
// the daemon's -seed default); the workload seed only shapes the inputs.
const indexSeed = 1

// config is the index configuration of the run's workload. The bucket
// width is set explicitly so the traced replay can rebuild the very same
// hash functions.
func (r *run) config() lccs.Config {
	return lccs.Config{Metric: lccs.Euclidean, M: r.spec.m, Budget: r.spec.lambda, BucketWidth: r.width, Seed: indexSeed}
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// An untraced run sets up several times. Each set-up is timed — setup_s
// is their median — and then measured for its share of the window, the
// shares laid end to end on one timeline. Where an index's arrays land in
// memory moves search time by several percent from one build to the next
// (±8% was seen between builds inside one process), so a run that measured
// a single build would report the luck of its layout.
const (
	staticSetups = 5
	churnSetups  = 3
	serveSetups  = 5
)

// timedSetup runs one library set-up and reports how long it took and the
// Go heap it holds after a forced collection.
func timedSetup[T any](build func() (T, error)) (v T, seconds, memMB float64, err error) {
	// Twice: what a dropped index's sync.Pool still holds (searchers that
	// point at its CSA) survives one collection in the pool's victim cache.
	runtime.GC()
	runtime.GC()
	before := heapInUse()
	t0 := time.Now()
	if v, err = build(); err != nil {
		return v, 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	runtime.GC()
	return v, seconds, (float64(heapInUse()) - float64(before)) / 1e6, nil
}

// wellFormed is the shape every search result must have: exactly k
// neighbours in ascending distance.
func wellFormed(res []lccs.Neighbor, k int) bool {
	if len(res) != k {
		return false
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			return false
		}
	}
	return true
}

// searcher is the one search call the end-to-end runs make.
type searcher interface {
	SearchInto(q []float32, k int, dst []lccs.Neighbor) ([]lccs.Neighbor, error)
}

// recall answers the first queries through ix and scores them against
// brute force. Distances are recomputed by the benchmark from the
// returned ids, so a wrong reported distance is a failure, not a hit.
func (r *run) recall(ix searcher, truth []truthRow, vectorOf func(id int) []float32) float64 {
	var dst []lccs.Neighbor
	hits, want := 0, 0
	got := make([]float64, 0, r.spec.k)
	for qi, t := range truth {
		q := r.queries[qi]
		var err error
		dst, err = ix.SearchInto(q, r.spec.k, dst)
		r.res.Attempted++
		if err != nil || !wellFormed(dst, r.spec.k) {
			r.fail("query %d: malformed result (%d neighbours, err %v)", qi, len(dst), err)
			continue
		}
		got = got[:0]
		for _, nb := range dst {
			v := vectorOf(nb.ID)
			if v == nil {
				r.fail("query %d: returned id %d is not live", qi, nb.ID)
				continue
			}
			d := dist(v, q)
			if math.Abs(d-nb.Dist) > d*distTol+1e-9 {
				r.fail("query %d: id %d reported at distance %g, is at %g", qi, nb.ID, nb.Dist, d)
			}
			got = append(got, d)
		}
		hits += t.hits(got)
		want += len(t)
	}
	return float64(hits) / float64(want)
}

// checkExhaustive is the paper's λ ≥ n guarantee: an index whose budget
// covers the whole dataset must answer exactly as brute force does.
func (r *run) checkExhaustive() error {
	n := min(2000, len(r.data))
	side := r.data[:n]
	cfg := r.config()
	cfg.Budget = 2 * n
	ix, err := lccs.NewIndex(side, cfg)
	if err != nil {
		return fmt.Errorf("exhaustive side index: %w", err)
	}
	qs := r.queries[:min(20, len(r.queries))]
	truth := bruteForce(side, nil, qs, r.spec.k)
	var dst []lccs.Neighbor
	for qi, q := range qs {
		dst, err = ix.SearchInto(q, r.spec.k, dst)
		r.res.Attempted++
		got := make([]float64, len(dst))
		for i, nb := range dst {
			got[i] = dist(side[nb.ID], q)
		}
		if err != nil || !wellFormed(dst, r.spec.k) || !truth[qi].equal(got) {
			r.fail("exhaustive budget, query %d: result differs from brute force", qi)
		}
	}
	return nil
}

// runStatic is the end-to-end run of a static workload: build, then one
// goroutine searching back to back, once per set-up; then the checks.
func (r *run) runStatic() error {
	if err := r.checkExhaustive(); err != nil {
		return err
	}
	var (
		ix     *lccs.Index
		setups []float64
		mem    float64
		timed  []*samples
		dst    []lccs.Neighbor
	)
	share := r.windowDur() / staticSetups
	for rep := 0; rep < staticSetups; rep++ {
		ix = nil // the previous index is garbage before the next is built
		var secs float64
		var err error
		ix, secs, mem, err = timedSetup(func() (*lccs.Index, error) { return lccs.NewIndex(r.data, r.config()) })
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		s, failed := closedLoop(share, func(i int) bool {
			var err error
			dst, err = ix.SearchInto(r.queries[i%len(r.queries)], r.spec.k, dst)
			return err == nil && wellFormed(dst, r.spec.k)
		})
		timed = append(timed, s.shift(time.Duration(rep)*share))
		r.res.Attempted += int64(len(s.latNs))
		r.failN(failed, "%d timed searches returned a malformed result", failed)
	}
	t0 := time.Now()
	truth := bruteForce(r.data, nil, r.queries[:r.spec.truthQ], r.spec.k)
	r.set("bench.truth_s", Metric{Value: time.Since(t0).Seconds()})
	rec := r.recall(ix, truth, func(id int) []float32 { return r.data[id] })
	st := summarize(timed, timed, share*staticSetups)
	r.set("setup_s", medianMetric(setups, ""))
	r.set("qps", st.rate)
	r.set("search_p50_us", st.p50)
	r.set("search_p99_us", st.p99)
	r.set("recall_at_10", Metric{Value: rec, N: len(truth)})
	r.set("mem_mb", Metric{Value: mem})
	return nil
}

func (r *run) windowDur() time.Duration { return time.Duration(r.window * float64(time.Second)) }

// blockMean cuts xs, in the order measured, into equal blocks and reports
// the median of the blocks' means: close to additive across stages, which
// medians of single samples are not, yet deaf to one noisy burst.
func blockMean(xs []float64) Metric {
	nb := min(blocks, len(xs))
	means := make([]float64, 0, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*len(xs)/nb, (b+1)*len(xs)/nb
		sum := 0.0
		for _, x := range xs[lo:hi] {
			sum += x
		}
		means = append(means, sum/float64(hi-lo))
	}
	m := medianMetric(means, "")
	m.N = len(xs)
	return m
}

// ledger is the traced view of the static query path. It rebuilds the
// index layer by layer through the layers' public functions — hash
// functions, hash strings, CSA, vector store — on the same data, seed and
// bucket width as the facade index, replays every query stage by stage
// with a span around each stage, and checks that the replayed top-k is the
// facade's. What the stages do not cover is reported as unaccounted.
func (r *run) ledger() (*lccs.Index, error) {
	sp, cfg := r.spec, r.config()
	n, m, dim := len(r.data), sp.m, sp.recipe.dim
	store, err := vec.FromRows(r.data)
	if err != nil {
		return nil, err
	}
	family := lshfamily.NewRandomProjection(dim, r.width)
	funcs := lshfamily.NewFuncs(family, m, rng.New(indexSeed))
	metric := family.Metric()

	// Build, layer by layer: hash every row (with the build's own
	// parallelism, so the share compares with setup_s), then the CSA.
	flat := make([]int32, n*m)
	t0 := time.Now()
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				lshfamily.HashString(funcs, store.Row(id), flat[id*m:(id+1)*m])
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
	t1 := time.Now()
	c := csa.NewFromFlat(flat, n, m)
	t2 := time.Now()
	r.spans.add("lshfamily.build_hash", -1, -1, t0, t1)
	r.spans.add("csa.build", -1, -1, t1, t2)
	r.set("lshfamily.build_hash_s", Metric{Value: t1.Sub(t0).Seconds(), N: n})
	r.set("csa.build_s", Metric{Value: t2.Sub(t1).Seconds(), N: n})
	r.set("csa.bytes", Metric{Value: float64(c.Bytes())})

	cix, err := core.BuildStore(store, family, core.Params{M: m, Seed: indexSeed})
	if err != nil {
		return nil, err
	}
	ix, err := lccs.NewIndex(r.data, cfg)
	if err != nil {
		return nil, err
	}

	// Replay, core and facade take turns on blocks of queries, so drift in
	// the machine's speed falls on all three alike. Counters come from the
	// replay's first pass over the distinct queries, so they repeat
	// exactly; timing keeps cycling.
	var (
		s                          = c.NewSearcher()
		nCand                      = sp.lambda + sp.k - 1
		hq                         = make([]int32, m)
		ids                        = make([]int32, 0, nCand)
		dists                      = make([]float64, nCand)
		cand                       = make([]lccs.Neighbor, 0, nCand)
		hash, begin, drain, gather []float64
		wall                       []float64 // the whole replayed query, spans included
		comparisons, drained       int
		replayed, mismatch         int
		dst                        []lccs.Neighbor
		raw                        []pqueue.Neighbor
	)
	// A quarter of the distinct queries: three passes must fit the window
	// even at 2 ms a query.
	queries := r.queries[:max(1, len(r.queries)/4)]
	replay := func(q []float32) {
		a := time.Now()
		hq = lshfamily.HashString(funcs, q, hq)
		b := time.Now()
		s.Begin(hq)
		cc := time.Now()
		ids = ids[:0]
		for len(ids) < nCand {
			res, ok := s.Next()
			if !ok {
				break
			}
			ids = append(ids, int32(res.ID))
		}
		d := time.Now()
		store.GatherDistancesInto(ids, q, metric, dists[:len(ids)])
		e := time.Now()
		cand = cand[:0]
		for i, id := range ids {
			cand = append(cand, lccs.Neighbor{ID: int(id), Dist: dists[i]})
		}
		slices.SortFunc(cand, func(x, y lccs.Neighbor) int {
			return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.ID, y.ID))
		})
		root := r.spans.add("query", replayed, -1, a, e)
		r.spans.add("lshfamily.hash", replayed, root, a, b)
		r.spans.add("csa.begin", replayed, root, b, cc)
		r.spans.add("csa.drain", replayed, root, cc, d)
		r.spans.add("vec.gather", replayed, root, d, e)
		hash, begin = append(hash, us(b.Sub(a))), append(begin, us(cc.Sub(b)))
		drain, gather = append(drain, us(d.Sub(cc))), append(gather, us(e.Sub(d)))
		wall = append(wall, us(time.Since(a)))
		if replayed++; replayed > len(queries) {
			return
		}
		comparisons += s.Comparisons()
		drained += len(ids)
		r.res.Attempted++
		if dst, err = ix.SearchInto(q, sp.k, dst); err != nil || !sameIDs(cand[:min(sp.k, len(cand))], dst) {
			mismatch++
			r.fail("replayed top-k differs from Index.SearchInto (err %v)", err)
		}
	}
	took := interleave(queries, r.windowDur()/2,
		replay,
		func(q []float32) { raw = cix.SearchInto(q, sp.k, sp.lambda, raw) },
		func(q []float32) { dst, _ = ix.SearchInto(q, sp.k, dst) })
	nq := float64(len(queries))
	perQuery := float64(drained) / nq
	mh, mb, md, mg := blockMean(hash), blockMean(begin), blockMean(drain), blockMean(gather)
	r.set("lshfamily.hash_us", mh)
	r.set("csa.begin_us", mb)
	r.set("csa.drain_us", md)
	r.set("vec.gather_us", mg)
	r.set("csa.comparisons", Metric{Value: float64(comparisons) / nq, N: len(queries)})
	r.set("csa.next_ns", Metric{Value: md.Value * 1e3 / perQuery, N: md.N})
	gatherBytes := perQuery * float64(dim) * 4
	r.set("vec.gather_bytes", Metric{Value: gatherBytes})
	r.set("vec.gather_gbps", Metric{Value: gatherBytes / (mg.Value * 1e3), N: mg.N})
	r.set("bench.replay_mismatch", Metric{Value: float64(mismatch), N: len(queries)})
	mc, mf := blockMean(took[1]), blockMean(took[2])
	r.set("core.search_us", mc)
	r.set("core.unaccounted_us", Metric{Value: mc.Value - mh.Value - mb.Value - md.Value - mg.Value})
	r.set("lccs.facade_us", Metric{Value: mf.Value - mc.Value})
	// The static path's tail, which is also the search inside serve-read;
	// churn-d16 and serve-* report their own searches'.
	r.set("search_p99_us", Metric{Value: quantile(sortedCopy(took[2]), 0.99), N: len(took[2])})
	r.set("bench.trace_overhead_pct", Metric{Value: (median(wall)/median(took[2]) - 1) * 100, N: len(wall)})

	const allocOps = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocOps; i++ {
		dst, _ = ix.SearchInto(r.queries[i%len(r.queries)], sp.k, dst)
	}
	runtime.ReadMemStats(&after)
	r.set("lccs.allocs_per_op", Metric{Value: float64(after.Mallocs-before.Mallocs) / allocOps, N: allocOps})
	r.set("lccs.bytes_per_op", Metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / allocOps, N: allocOps})

	// The block kernel, as the delta-buffer scan uses it: every row once.
	out := make([]float32, n)
	var scans []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		store.DistancesInto(0, n, r.queries[i%len(r.queries)], metric, out)
		scans = append(scans, float64(n*dim*4)/float64(time.Since(t).Nanoseconds()))
	}
	r.set("vec.scan_gbps", medianMetric(scans, ""))
	return ix, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// interleave gives the ops turns on successive blocks of queries, for at
// least one pass of every op over all queries and at least the given time,
// and returns each op's µs per call. There is no warm-up: the callers
// report medians of block means, which the cold first block cannot move.
func interleave(queries [][]float32, atLeast time.Duration, ops ...func(q []float32)) [][]float64 {
	const block = 32
	out := make([][]float64, len(ops))
	for lo, start := 0, time.Now(); lo < len(queries) || time.Since(start) < atLeast; lo += block {
		for o, op := range ops {
			for i := lo; i < lo+block; i++ {
				t := time.Now()
				op(queries[i%len(queries)])
				out[o] = append(out[o], us(time.Since(t)))
			}
		}
	}
	return out
}

func sameIDs(a, b []lccs.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}
