// Command lccs-bench regenerates the paper's tables and figures on the
// synthetic dataset analogues, over internal/experiments.
//
// Usage:
//
//	lccs-bench -exp fig4 [-n 10000] [-nq 50] [-k 10] [-datasets sift,glove] [-seed 1] [-quick]
//	lccs-bench -exp all      # every table and figure, in paper order
//
// Each experiment prints rows in the same structure as the
// corresponding artifact: Pareto-frontier (recall, query time) points for
// the curve figures, per-size trade-off rows for Figures 6/7, per-k rows
// for Figure 8, per-m and per-#probes frontiers for Figures 9/10.
//
// The system's own performance — static search, churn, the serving
// daemon, the write-ahead log — is measured by the benchmark in bench/
// (see bench/README.md) and by the Go benchmarks (`go test -bench .`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lccs/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id: "+strings.Join(experiments.Names(), ", ")+", or 'all'")
		n        = flag.Int("n", 10000, "data points per dataset")
		nq       = flag.Int("nq", 50, "queries per dataset")
		k        = flag.Int("k", 10, "neighbors per query")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all five)")
		methods  = flag.String("methods", "", "comma-separated method subset, e.g. 'LCCS-LSH,E2LSH' (default: all)")
		seed     = flag.Uint64("seed", 1, "random seed")
		quick    = flag.Bool("quick", false, "shrink parameter grids (smoke test)")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
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
