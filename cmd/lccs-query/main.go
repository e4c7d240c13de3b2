// Command lccs-query builds an LCCS-LSH index over a dataset file written
// by lccs-datagen and answers the file's queries, reporting per-query
// results and, against a ground-truth file, recall and ratio.
//
// Usage:
//
//	lccs-query -data sift.ds -metric euclidean -m 128 -lambda 100 -k 10
//	lccs-query -data glove.ds -metric angular -m 64 -lambda 1600 -truth glove.gt
//	lccs-query -data sets.ds -metric jaccard -m 96
//
// Recall is bought with λ (more candidates verified per query) and m
// (longer hash strings, a larger index). The paper's multi-probe variant
// (§4.2) is reproduced by `lccs-bench -exp fig10`; on this implementation
// raising λ reaches the same recall faster (docs/PERFORMANCE.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lccs"
	"lccs/internal/dataset"
	"lccs/internal/eval"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset file from lccs-datagen")
		metric    = flag.String("metric", "euclidean", "euclidean | angular | hamming | jaccard")
		m         = flag.Int("m", 64, "hash-string length (larger m: higher recall per candidate, more memory)")
		lambda    = flag.Int("lambda", 100, "candidate budget per query (larger λ: higher recall, more time)")
		k         = flag.Int("k", 10, "neighbors per query")
		truthPath = flag.String("truth", "", "optional ground-truth file for recall/ratio")
		seed      = flag.Uint64("seed", 1, "random seed")
		verbose   = flag.Bool("v", false, "print per-query neighbor lists")
	)
	flag.Parse()
	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := lccs.ParseMetric(*metric)
	if err != nil {
		fatal(err)
	}
	ds, err := dataset.Load(*dataPath)
	if err != nil {
		fatal(err)
	}
	if kind == lccs.Angular {
		ds = ds.NormalizedCopy()
	}
	start := time.Now()
	ix, err := lccs.NewIndex(ds.Data, lccs.Config{
		Metric: kind,
		M:      *m,
		Budget: *lambda,
		Seed:   *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("index: n=%d d=%d m=%d lambda=%d size=%.1fMB built in %.2fs\n",
		ix.Len(), ds.Dim, ix.M(), *lambda, float64(ix.Bytes())/(1<<20), time.Since(start).Seconds())

	var gt *dataset.GroundTruth
	if *truthPath != "" {
		if gt, err = dataset.LoadTruth(*truthPath); err != nil {
			fatal(err)
		}
		if len(gt.Neighbors) != len(ds.Queries) {
			fatal(fmt.Errorf("ground truth has %d queries, dataset has %d", len(gt.Neighbors), len(ds.Queries)))
		}
	}

	var totalRecall, totalRatio float64
	var totalTime time.Duration
	for qi, q := range ds.Queries {
		qs := time.Now()
		res, err := ix.Search(q, *k)
		if err != nil {
			fatal(err)
		}
		totalTime += time.Since(qs)
		if *verbose {
			fmt.Printf("query %d:\n", qi)
			for rank, r := range res {
				fmt.Printf("  #%d id=%d dist=%.4f\n", rank+1, r.ID, r.Dist)
			}
		}
		if gt != nil {
			want := gt.Neighbors[qi]
			if len(want) > *k {
				want = want[:*k]
			}
			totalRecall += eval.Recall(res, want)
			totalRatio += eval.Ratio(res, want)
		}
	}
	nq := float64(len(ds.Queries))
	fmt.Printf("queries: %d, avg time %.3fms\n", len(ds.Queries), totalTime.Seconds()*1000/nq)
	if gt != nil {
		fmt.Printf("recall@%d = %.2f%%, overall ratio = %.4f\n", *k, 100*totalRecall/nq, totalRatio/nq)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lccs-query:", err)
	os.Exit(1)
}
