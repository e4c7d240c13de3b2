package main

import (
	"fmt"
	"time"

	"lccs"
	"lccs/internal/vec"
)

// The filter experiment measures metadata-filtered search on a
// DynamicIndex at three predicate selectivities (1%, 10%, 50% of rows
// matching), plus a cursor-paginated drain. Each selectivity reports
// QPS and tail latency of a filtered SearchQuery under the default candidate
// budget λ, recall@k against an exact filtered brute-force scan at
// that λ, and — as an exactness check of the filtered verification
// path — recall at λ = n, which must be 1.0.

// filterCase is one selectivity point: the wire filter, the matching
// predicate the exact ground truth is restricted to, and the nominal
// match percentage.
type filterCase struct {
	name   string
	label  string
	filter *lccs.Filter
	match  func(id int) bool
	pct    float64
}

// filterBenchAttrs assigns the synthetic metadata of row id: a string
// tier marking 1% of rows "hot", an int decile bucketing 10%, and an
// int bucket in [0,100) for range predicates of any width.
func filterBenchAttrs(id int) lccs.Attrs {
	tier := "cold"
	if id%100 == 0 {
		tier = "hot"
	}
	return lccs.Attrs{
		"tier":   lccs.StrAttr(tier),
		"decile": lccs.IntAttr(int64(id % 10)),
		"bucket": lccs.IntAttr(int64(id % 100)),
	}
}

// filterBenchCases covers the three predicate forms at the three
// selectivities: string equality (1%), int equality (10%), and an int
// range (50%).
func filterBenchCases() []filterCase {
	lo, hi := int64(0), int64(49)
	return []filterCase{
		{
			name:   "filter_sel1",
			label:  `tier="hot"`,
			filter: &lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqStr("tier", "hot")}},
			match:  func(id int) bool { return id%100 == 0 },
			pct:    1,
		},
		{
			name:   "filter_sel10",
			label:  "decile=0",
			filter: &lccs.Filter{Terms: []lccs.FilterTerm{lccs.EqInt("decile", 0)}},
			match:  func(id int) bool { return id%10 == 0 },
			pct:    10,
		},
		{
			name:   "filter_sel50",
			label:  "bucket∈[0,49]",
			filter: &lccs.Filter{Terms: []lccs.FilterTerm{lccs.Range("bucket", &lo, &hi)}},
			match:  func(id int) bool { return id%100 < 50 },
			pct:    50,
		},
	}
}

// bruteForceFilteredIDs is bruteForceIDs restricted to rows with
// keep(id): the exact ranked answer a filtered search is measured
// against.
func bruteForceFilteredIDs(data, queries [][]float32, k int, kind lccs.MetricKind, keep func(int) bool) [][]int {
	metric := vec.MetricByName(string(kind))
	truth := make([][]int, len(queries))
	type cand struct {
		id int
		d  float64
	}
	for qi, q := range queries {
		best := make([]cand, 0, k)
		for id, row := range data {
			if !keep(id) {
				continue
			}
			d := metric.Distance(q, row)
			j := len(best)
			if j == k {
				if d >= best[k-1].d {
					continue
				}
				j = k - 1
			} else {
				best = append(best, cand{})
			}
			for ; j > 0 && best[j-1].d > d; j-- {
				best[j] = best[j-1]
			}
			best[j] = cand{id: id, d: d}
		}
		ids := make([]int, len(best))
		for i, c := range best {
			ids[i] = c.id
		}
		truth[qi] = ids
	}
	return truth
}

// filteredRecall averages |got ∩ truth| / |truth| over all queries for
// the given search function.
func filteredRecall(queries [][]float32, truth [][]int, search func(q []float32) []lccs.Neighbor) float64 {
	var hit, total int
	for qi, q := range queries {
		in := make(map[int]bool, len(truth[qi]))
		for _, id := range truth[qi] {
			in[id] = true
		}
		for _, nb := range search(q) {
			if in[nb.ID] {
				hit++
			}
		}
		total += len(truth[qi])
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// filterRuns builds an attributed DynamicIndex over the standard bench
// workload and returns one RunReport per selectivity plus the
// paginated-drain run, keyed by run name.
func filterRuns(n, nq, k, m int, seed uint64, kind lccs.MetricKind) (map[string]RunReport, error) {
	data, queries := benchWorkload(n, nq, seed, kind)
	cfg := lccs.Config{Metric: kind, M: m, Seed: seed}
	start := time.Now()
	dyn, err := lccs.NewDynamicIndex(nil, cfg, n+1)
	if err != nil {
		return nil, err
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, filterBenchAttrs(i)); err != nil {
			return nil, err
		}
	}
	if err := dyn.Rebuild(); err != nil {
		return nil, err
	}
	build := time.Since(start).Seconds()

	const rounds = 5
	runs := make(map[string]RunReport, 4)
	for _, fc := range filterBenchCases() {
		truth := bruteForceFilteredIDs(data, queries, k, kind, fc.match)
		r := measureLoop(queries, rounds, func(q []float32) {
			if _, err := dyn.SearchQuery(q, lccs.Query{K: k, Filter: fc.filter}, nil); err != nil {
				panic(err)
			}
		})
		r.BuildSeconds = build
		recall := filteredRecall(queries, truth, func(q []float32) []lccs.Neighbor {
			res, err := dyn.SearchQuery(q, lccs.Query{K: k, Filter: fc.filter}, nil)
			if err != nil {
				panic(err)
			}
			return res
		})
		exact := filteredRecall(queries, truth, func(q []float32) []lccs.Neighbor {
			res, err := dyn.SearchQuery(q, lccs.Query{K: k, Budget: n, Filter: fc.filter}, nil)
			if err != nil {
				panic(err)
			}
			return res
		})
		r.Note = fmt.Sprintf("filtered search %s (%g%% selectivity): recall@%d %.4f at default λ, %.4f at λ=n",
			fc.label, fc.pct, k, recall, exact)
		runs[fc.name] = r
	}

	// Paginated drain through the 10%-selectivity filter: each op
	// resumes the cursor across a fixed number of k-sized pages, so the
	// run prices token decode + merge-resume rather than one giant page.
	const pages = 8
	f10 := filterBenchCases()[1].filter
	r := measureLoop(queries, rounds, func(q []float32) {
		cursor := ""
		for p := 0; p < pages; p++ {
			page, next, err := dyn.SearchCursor(q, k, 0, f10, cursor)
			if err != nil {
				panic(err)
			}
			if next == "" || len(page) == 0 {
				break
			}
			cursor = next
		}
	})
	r.BuildSeconds = build
	r.Note = fmt.Sprintf("cursor drain, %d pages × limit=%d per op, filter decile=0 (10%% selectivity)", pages, k)
	runs["filter_paginate"] = r
	return runs, nil
}

// filterBench prints the filter experiment as a table, for
// -exp filter.
func filterBench(n, nq, k, m int, seed uint64, kind lccs.MetricKind) error {
	fmt.Printf("# filter bench: n=%d m=%d nq=%d k=%d metric=%s\n", n, m, nq, k, kind)
	runs, err := filterRuns(n, nq, k, m, seed, kind)
	if err != nil {
		return err
	}
	for _, name := range []string{"filter_sel1", "filter_sel10", "filter_sel50", "filter_paginate"} {
		r := runs[name]
		fmt.Printf("%-16s QPS %10.0f  p50 %8.1fµs  p99 %8.1fµs  %s\n",
			name, r.QPS, r.P50Micros, r.P99Micros, r.Note)
	}
	return nil
}
