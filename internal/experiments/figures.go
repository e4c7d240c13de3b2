package experiments

import (
	"fmt"

	"lccs/internal/eval"
	"lccs/internal/vec"
)

// Fig4 regenerates Figure 4: query time–recall curves for top-k search
// under Euclidean distance, all seven methods over every dataset. Each
// printed row is one point of a method's Pareto frontier.
func Fig4(opt Options) error {
	opt.fill()
	fmt.Fprintf(opt.Out, "# Figure 4: query time vs recall, k=%d, Euclidean\n", opt.K)
	return figQueryRecall(opt, vec.Euclidean)
}

// Fig5 regenerates Figure 5: query time–recall curves under Angular
// distance (cross-polytope family), five methods over every dataset.
func Fig5(opt Options) error {
	opt.fill()
	fmt.Fprintf(opt.Out, "# Figure 5: query time vs recall, k=%d, Angular\n", opt.K)
	return figQueryRecall(opt, vec.Angular)
}

func figQueryRecall(opt Options, metric vec.Metric) error {
	for _, dsName := range opt.Datasets {
		e, err := NewEnv(dsName, metric, opt)
		if err != nil {
			return err
		}
		byMethod := runSweeps(e, opt)
		for _, m := range e.methods() {
			printFrontier(opt.Out, dsName, byMethod[m])
		}
	}
	return nil
}

// Fig6 regenerates Figure 6: query time vs index size and query time vs
// indexing time at the 50% recall level, Euclidean. One row per method per
// distinct index size that reaches the recall floor.
func Fig6(opt Options) error {
	opt.fill()
	fmt.Fprintf(opt.Out, "# Figure 6: query time vs index size / indexing time @50%% recall, k=%d, Euclidean\n", opt.K)
	return figTradeoff(opt, vec.Euclidean)
}

// Fig7 regenerates Figure 7: the same trade-off under Angular distance.
func Fig7(opt Options) error {
	opt.fill()
	fmt.Fprintf(opt.Out, "# Figure 7: query time vs index size / indexing time @50%% recall, k=%d, Angular\n", opt.K)
	return figTradeoff(opt, vec.Angular)
}

const tradeoffRecallFloor = 0.5

func figTradeoff(opt Options, metric vec.Metric) error {
	for _, dsName := range opt.Datasets {
		e, err := NewEnv(dsName, metric, opt)
		if err != nil {
			return err
		}
		byMethod := runSweeps(e, opt)
		for _, m := range e.methods() {
			series := eval.BestAtRecallBySize(byMethod[m], tradeoffRecallFloor)
			if len(series) == 0 {
				fmt.Fprintf(opt.Out, "%-8s %-14s (no configuration reached %.0f%% recall)\n",
					dsName, m, 100*tradeoffRecallFloor)
				continue
			}
			for _, r := range series {
				fmt.Fprintf(opt.Out, "%-8s %s\n", dsName, r)
			}
		}
	}
	return nil
}

// e10LambdaGrid is Figure 10's thinned candidate-budget grid.
func e10LambdaGrid(opt Options) []int {
	if opt.Quick {
		return []int{10, 50}
	}
	out := []int{10, 50, 200, 800}
	for i, l := range out {
		if l >= opt.N {
			return out[:i]
		}
	}
	return out
}

// fig8Ks is the k sweep of Figure 8.
var fig8Ks = []int{1, 2, 5, 10, 20, 50, 100}

// Fig8 regenerates Figure 8: recall, ratio, and query time vs k on the
// Sift analogue under both metrics, with each method at its best
// configuration for ~50% recall at k=10 (the paper matches methods at
// similar recall levels).
func Fig8(opt Options) error {
	opt.fill()
	fmt.Fprintf(opt.Out, "# Figure 8: query performance vs k, sift, both metrics\n")
	ks := fig8Ks
	if opt.Quick {
		ks = []int{1, 10}
	}
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Angular} {
		e, err := NewEnv("sift", metric, opt)
		if err != nil {
			return err
		}
		byMethod := runSweeps(e, opt)
		for _, m := range e.methods() {
			if len(byMethod[m]) == 0 {
				continue // not selected, or no configuration built
			}
			best, ok := eval.BestAtRecall(byMethod[m], tradeoffRecallFloor)
			if !ok {
				// Fall back to the highest-recall configuration.
				for _, r := range byMethod[m] {
					if r.Recall > best.Recall {
						best = r
					}
				}
			}
			// Rebuild the chosen configuration and re-evaluate it
			// across the k sweep.
			c, err := e.lookup(m, best.Config, opt.Quick)
			if err != nil {
				return err
			}
			rs, err := e.evaluate(c, ks...)
			if err != nil {
				return err
			}
			for _, r := range rs {
				fmt.Fprintf(opt.Out, "sift-%-9s k=%-3d %s\n", metric.Name(), r.K, r)
			}
		}
	}
	return nil
}

// Fig9 regenerates Figure 9: the impact of m for single-probe LCCS-LSH on
// the Sift analogue under both metrics; for each m the λ sweep's Pareto
// frontier is printed.
func Fig9(opt Options) error {
	opt.fill()
	fmt.Fprintf(opt.Out, "# Figure 9: impact of m for LCCS-LSH, sift, k=%d\n", opt.K)
	return fig9(opt, func(ds string, results []eval.Result) { printFrontier(opt.Out, ds, results) })
}

// fig9 runs Figure 9's sweep and hands each m's λ sweep to emit, one
// result per λ in grid order, under the dataset-metric label.
func fig9(opt Options, emit func(ds string, results []eval.Result)) error {
	ms := []int{8, 16, 32, 64, 128, 256, 512}
	if opt.Quick {
		ms = []int{8, 16}
	}
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Angular} {
		e, err := NewEnv("sift", metric, opt)
		if err != nil {
			return err
		}
		fam := e.family()
		for _, m := range ms {
			rs, err := e.evaluate(e.lccs(fam, m, 0, e.lambdaGrid(opt.Quick)), e.K)
			if err != nil {
				return err
			}
			emit("sift-"+metric.Name(), rs)
		}
	}
	return nil
}

// Fig10 regenerates Figure 10: the impact of #probes for MP-LCCS-LSH on
// the Sift analogue with m = 128 (scaled down in quick mode), probes in
// {1, m+1, 2m+1, 4m+1, 8m+1}.
func Fig10(opt Options) error {
	opt.fill()
	m := 128
	if opt.Quick {
		m = 16
	}
	fmt.Fprintf(opt.Out, "# Figure 10: impact of #probes for MP-LCCS-LSH, sift, m=%d, k=%d\n", m, opt.K)
	return fig10(opt, m, func(ds string, results []eval.Result) { printFrontier(opt.Out, ds, results) })
}

// fig10 runs Figure 10's sweep at hash-string length m and hands each probe
// count's λ sweep to emit, one result per λ in grid order, under the
// dataset-metric label.
func fig10(opt Options, m int, emit func(ds string, results []eval.Result)) error {
	probesGrid := []int{1, m + 1, 2*m + 1, 4*m + 1, 8*m + 1}
	if opt.Quick {
		probesGrid = []int{1, m + 1}
	}
	// Probing cost scales with #probes × λ; thin the λ grid so the
	// 8m+1 configuration stays tractable.
	lamGrid := e10LambdaGrid(opt)
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Angular} {
		e, err := NewEnv("sift", metric, opt)
		if err != nil {
			return err
		}
		fam := e.family()
		for _, probes := range probesGrid {
			rs, err := e.evaluate(e.lccs(fam, m, probes, lamGrid), e.K)
			if err != nil {
				return err
			}
			emit("sift-"+metric.Name(), rs)
		}
	}
	return nil
}
