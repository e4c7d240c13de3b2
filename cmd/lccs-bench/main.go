// Command lccs-bench regenerates the paper's tables and figures on the
// synthetic dataset analogues, and benchmarks the sharded index and
// serving subsystems.
//
// Usage:
//
//	lccs-bench -exp fig4 [-n 10000] [-nq 50] [-k 10] [-datasets sift,glove] [-seed 1] [-quick]
//	lccs-bench -exp all      # every table and figure, in paper order
//	lccs-bench -exp shard [-n 100000] [-shards 0] [-m 32] [-metric euclidean]
//	                         # sharded vs single: build speedup + per-shard QPS
//	lccs-bench -exp serve [-n 100000] [-clients 8] [-reqs 2000] [-metric euclidean]
//	                         # drive the HTTP server over loopback: QPS + p50/p99,
//	                         # plus scan bytes/query and the result-cache hit
//	                         # ratio read back from the usage counters
//	lccs-bench -exp churn [-n 100000] [-m 32] [-metric euclidean]
//	                         # mixed insert/delete/search on a DynamicIndex:
//	                         # churn rate, compaction cost, QPS recovery
//	lccs-bench -exp wal [-n 100000] [-clients 8]
//	                         # durable ingest through the write-ahead log:
//	                         # throughput + ack p50/p99 per sync policy
//	                         # (always/interval/none), recovery-replay time
//	lccs-bench -exp filter [-n 10000] [-k 10] [-metric euclidean]
//	                         # metadata-filtered search: QPS + recall at
//	                         # 1%/10%/50% predicate selectivity, plus a
//	                         # cursor-paginated drain
//	lccs-bench -exp kernel   # distance-kernel microbenchmark: rows/s and
//	                         # GB/s per kernel per dimensionality, against
//	                         # the pre-batching per-row scalar baseline
//	lccs-bench -json report.json [-n 100000] [-shards 4]
//	                         # machine-readable core/shard/serve/churn/wal suite:
//	                         # build time, QPS, p50/p99, B/op, allocs/op
//	                         # (perf-trajectory files)
//
// Each paper experiment prints rows in the same structure as the
// corresponding artifact: Pareto-frontier (recall, query time) points for
// the curve figures, per-size trade-off rows for Figures 6/7, per-k rows
// for Figure 8, per-m and per-#probes frontiers for Figures 9/10. The
// shard experiment reports single vs parallel sharded build time, the
// build speedup, per-shard query throughput, and fan-out query
// throughput. The serve experiment starts the internal/server HTTP stack
// on a loopback listener, fires concurrent clients at /v1/search and one
// batch at /v1/search/batch, and reports end-to-end QPS with tail
// latency. -metric accepts all four facade metrics (euclidean, angular,
// hamming, jaccard).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lccs"
	"lccs/internal/experiments"
	"lccs/internal/rng"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id: "+strings.Join(experiments.Names(), ", ")+", 'all', 'shard', 'serve', 'churn', 'wal', 'filter', or 'kernel'")
		n        = flag.Int("n", 10000, "data points per dataset")
		nq       = flag.Int("nq", 50, "queries per dataset")
		k        = flag.Int("k", 10, "neighbors per query")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all five)")
		methods  = flag.String("methods", "", "comma-separated method subset, e.g. 'LCCS-LSH,E2LSH' (default: all)")
		seed     = flag.Uint64("seed", 1, "random seed")
		quick    = flag.Bool("quick", false, "shrink parameter grids (smoke test)")
		shards   = flag.Int("shards", 0, "shard count for -exp shard/serve (0 = GOMAXPROCS)")
		m        = flag.Int("m", 32, "hash-string length for -exp shard/serve")
		metric   = flag.String("metric", "euclidean", "metric for -exp shard/serve: euclidean | angular | hamming | jaccard")
		clients  = flag.Int("clients", 8, "concurrent clients for -exp serve")
		reqs     = flag.Int("reqs", 2000, "total requests for -exp serve")
		quantize = flag.String("quantize", "", "scan-time vector compression for -exp shard/serve and -json: sq8 (euclidean/angular only)")
		rerank   = flag.Int("rerank", 0, "quantized-scan survivors re-ranked exactly per query (0 = default)")
		jsonOut  = flag.String("json", "", "run the core/shard/serve suite and write a machine-readable report to this path ('-' = stdout)")
	)
	flag.Parse()
	if *jsonOut != "" {
		kind, err := lccs.ParseMetric(*metric)
		if err == nil {
			err = jsonBench(*jsonOut, *n, *nq, *k, *m, *shards, *clients, *reqs, *seed, kind, *quantize, *rerank)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lccs-bench: json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *exp == "kernel" {
		kernelBench(os.Stdout)
		return
	}
	if *exp == "shard" || *exp == "serve" || *exp == "churn" || *exp == "wal" || *exp == "filter" {
		kind, err := lccs.ParseMetric(*metric)
		if err == nil {
			switch *exp {
			case "shard":
				err = shardBench(*n, *nq, *k, *m, *shards, *seed, kind, *quantize, *rerank)
			case "serve":
				err = serveBench(*n, *nq, *k, *m, *shards, *clients, *reqs, *seed, kind, *quantize, *rerank)
			case "churn":
				err = churnBench(*n, *nq, *k, *m, *seed, kind)
			case "wal":
				err = walBench(*n, *clients, *seed, kind)
			case "filter":
				err = filterBench(*n, *nq, *k, *m, *seed, kind)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lccs-bench: %s: %v\n", *exp, err)
			os.Exit(1)
		}
		return
	}
	opt := experiments.Options{
		N: *n, NQ: *nq, K: *k, Seed: *seed, Quick: *quick,
		Out: os.Stdout,
	}
	if *datasets != "" {
		opt.Datasets = strings.Split(*datasets, ",")
	}
	if *methods != "" {
		opt.Methods = strings.Split(*methods, ",")
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		if err := experiments.Run(name, opt); err != nil {
			fmt.Fprintf(os.Stderr, "lccs-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s done in %.1fs\n\n", name, time.Since(start).Seconds())
	}
}

// benchWorkload generates the clustered benchmark dataset plus queries
// for the given metric: Gaussian clusters for the geometric metrics,
// random binary vectors (with near-duplicate queries) for Hamming and
// Jaccard.
func benchWorkload(n, nq int, seed uint64, kind lccs.MetricKind) (data, queries [][]float32) {
	const d = 16
	const dBits = 64
	g := rng.New(seed)
	if kind == lccs.Hamming || kind == lccs.Jaccard {
		data = make([][]float32, n)
		for i := range data {
			v := make([]float32, dBits)
			for j := range v {
				v[j] = float32(g.IntN(2))
			}
			data[i] = v
		}
		queries = make([][]float32, nq)
		for i := range queries {
			q := append([]float32(nil), data[g.IntN(n)]...)
			for _, j := range g.Perm(dBits)[:3] {
				q[j] = 1 - q[j]
			}
			queries[i] = q
		}
		return data, queries
	}
	centers := make([][]float32, 64)
	for i := range centers {
		centers[i] = g.UniformVector(d, -10, 10)
	}
	data = make([][]float32, n)
	for i := range data {
		c := centers[i%len(centers)]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(g.NormFloat64())
		}
		data[i] = v
	}
	queries = make([][]float32, nq)
	for i := range queries {
		queries[i] = g.GaussianVector(d)
		base := data[g.IntN(n)]
		for j := range queries[i] {
			queries[i][j] = base[j] + queries[i][j]*0.3
		}
	}
	return data, queries
}

// shardBench builds the same clustered workload as a single Index and as
// a ShardedIndex and reports build times, the build speedup, per-shard
// query throughput, and overall fan-out throughput.
func shardBench(n, nq, k, m, shards int, seed uint64, kind lccs.MetricKind, quantize string, rerank int) error {
	data, queries := benchWorkload(n, nq, seed, kind)
	cfg := lccs.Config{Metric: kind, M: m, Seed: seed, Quantize: quantize, Rerank: rerank}

	fmt.Printf("# shard bench: n=%d d=%d m=%d nq=%d k=%d metric=%s quantize=%q\n", n, len(data[0]), m, nq, k, kind, quantize)
	start := time.Now()
	single, err := lccs.NewIndex(data, cfg)
	if err != nil {
		return err
	}
	singleBuild := time.Since(start)
	fmt.Printf("single build        %10.3fs  (%.1f MB)\n", singleBuild.Seconds(), float64(single.Bytes())/1e6)

	sx, err := lccs.NewShardedIndex(data, cfg, shards)
	if err != nil {
		return err
	}
	fmt.Printf("sharded build (S=%d) %10.3fs  (%.1f MB)  speedup %.2fx\n",
		sx.Shards(), sx.BuildTime().Seconds(), float64(sx.Bytes())/1e6,
		singleBuild.Seconds()/sx.BuildTime().Seconds())

	qps := func(f func(q []float32)) float64 {
		start := time.Now()
		for _, q := range queries {
			f(q)
		}
		return float64(nq) / time.Since(start).Seconds()
	}
	fmt.Printf("single QPS          %10.0f\n", qps(func(q []float32) { single.Search(q, k) }))
	for s := 0; s < sx.Shards(); s++ {
		shard, off := sx.Shard(s)
		fmt.Printf("shard %2d QPS        %10.0f  (ids %d..%d)\n",
			s, qps(func(q []float32) { shard.Search(q, k) }), off, off+shard.Len()-1)
	}
	fmt.Printf("fan-out QPS         %10.0f\n", qps(func(q []float32) { sx.Search(q, k) }))
	start = time.Now()
	if _, err := sx.SearchBatch(queries, k, 0); err != nil {
		return err
	}
	fmt.Printf("batch fan-out QPS   %10.0f\n", float64(nq)/time.Since(start).Seconds())
	return nil
}
