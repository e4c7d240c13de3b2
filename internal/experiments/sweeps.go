package experiments

import (
	"fmt"

	"lccs/internal/baseline/c2lsh"
	"lccs/internal/baseline/e2lsh"
	"lccs/internal/baseline/falconn"
	"lccs/internal/baseline/mplsh"
	"lccs/internal/baseline/qalsh"
	"lccs/internal/baseline/srs"
	"lccs/internal/core"
	"lccs/internal/eval"
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
)

// family returns the LSH family the paper pairs with the env's metric:
// random projection for Euclidean (w fine-tuned per dataset, mirroring the
// paper's per-dataset w footnote) and cross-polytope for Angular.
func (e *Env) family() lshfamily.Family {
	if e.Metric.Name() == "angular" {
		return lshfamily.NewCrossPolytope(e.DS.Dim)
	}
	return lshfamily.NewRandomProjection(e.DS.Dim, e.tunedW())
}

// tunedW derives the bucket width from the dataset's distance profile:
// twice the typical near-neighbor distance puts the single-function
// collision probability for true neighbors near 0.6 (Eq. 2) while keeping
// it low for the far mass.
func (e *Env) tunedW() float64 {
	p := e.DS.Profile(e.Metric, 10)
	w := 2 * p.NearMedian
	if w <= 0 {
		w = 1
	}
	return w
}

// grids returns (full, quick) integer grids.
func pick(quick bool, full, small []int) []int {
	if quick {
		return small
	}
	return full
}

// lambdaGrid is the candidate-budget sweep shared by the LCCS schemes.
func (e *Env) lambdaGrid(quick bool) []int {
	g := pick(quick, []int{5, 10, 20, 50, 100, 200, 400, 800, 1600}, []int{10, 50})
	out := g[:0:0]
	for _, l := range g {
		if l < len(e.DS.Data) {
			out = append(out, l)
		}
	}
	return out
}

// lambdaSweep evaluates one built LCCS index — single-probe, or carrying
// the probe state of an MP-LCCS-LSH index — at every candidate budget of
// grid. Each result's configuration is config followed by its λ.
func lambdaSweep(e *Env, method, config string, ix *core.Index, grid []int) []eval.Result {
	out := make([]eval.Result, 0, len(grid))
	for _, lam := range grid {
		out = append(out, eval.EvaluatePrecise(&eval.Runner{
			MethodName: method,
			ConfigDesc: fmt.Sprintf("%s λ=%d", config, lam),
			IndexBytes: ix.Bytes(),
			IndexTime:  ix.BuildTime(),
			SearchFunc: func(q []float32, k int) []pqueue.Neighbor {
				return ix.Search(q, k, lam)
			},
		}, e.DS.Queries, e.Truth, e.K))
	}
	return out
}

// SweepLCCS evaluates single-probe LCCS-LSH over the m × λ grid.
func SweepLCCS(e *Env, opt Options) []eval.Result {
	fam := e.family()
	var out []eval.Result
	for _, m := range pick(opt.Quick, []int{16, 32, 64, 128, 256}, []int{16, 32}) {
		ix, err := core.Build(e.DS.Data, fam, core.Params{M: m, Seed: e.Seed})
		if err != nil {
			continue
		}
		out = append(out, lambdaSweep(e, "LCCS-LSH", fmt.Sprintf("m=%d", m), ix, e.lambdaGrid(opt.Quick))...)
	}
	return out
}

// SweepMPLCCS evaluates MP-LCCS-LSH over the m × #probes × λ grid; the
// probe counts follow the paper's {1, m+1, 2m+1, 4m+1} pattern (trimmed to
// two points per m — probing cost scales with #probes × λ, and the two
// points bracket the regime the paper studies).
func SweepMPLCCS(e *Env, opt Options) []eval.Result {
	fam := e.family()
	var out []eval.Result
	for _, m := range pick(opt.Quick, []int{16, 64}, []int{16}) {
		probesGrid := []int{m + 1, 4*m + 1}
		if opt.Quick {
			probesGrid = []int{m + 1}
		}
		for _, probes := range probesGrid {
			ix, err := core.BuildMP(e.DS.Data, fam, core.MPParams{
				Params: core.Params{M: m, Seed: e.Seed},
				Probes: probes,
			})
			if err != nil {
				continue
			}
			lamGrid := e.lambdaGrid(opt.Quick)
			if !opt.Quick {
				// Probing cost dominates re-evaluation: thin the
				// λ grid (every other point) for the MP sweep.
				thinned := lamGrid[:0:0]
				for i := 0; i < len(lamGrid); i += 2 {
					thinned = append(thinned, lamGrid[i])
				}
				lamGrid = thinned
			}
			out = append(out, lambdaSweep(e, "MP-LCCS-LSH", fmt.Sprintf("m=%d probes=%d", m, probes), ix.Index, lamGrid)...)
		}
	}
	return out
}

// concatK returns the K grid for static-concatenation methods; the
// cross-polytope alphabet is enormous (±D), so fewer concatenations are
// needed than for random projections.
func (e *Env) concatK(quick bool) []int {
	if e.Metric.Name() == "angular" {
		return pick(quick, []int{1, 2}, []int{1})
	}
	return pick(quick, []int{2, 4, 6}, []int{4})
}

// SweepE2LSH evaluates E2LSH over the K × L grid.
func SweepE2LSH(e *Env, opt Options) []eval.Result {
	fam := e.family()
	var out []eval.Result
	for _, kk := range e.concatK(opt.Quick) {
		for _, ll := range pick(opt.Quick, []int{4, 8, 16, 32}, []int{8}) {
			ix, err := e2lsh.Build(e.DS.Data, fam, e2lsh.Params{K: kk, L: ll, Seed: e.Seed})
			if err != nil {
				continue
			}
			r := eval.EvaluatePrecise(&eval.Runner{
				MethodName: "E2LSH",
				ConfigDesc: fmt.Sprintf("K=%d L=%d", kk, ll),
				IndexBytes: ix.Bytes(),
				IndexTime:  ix.BuildTime(),
				SearchFunc: ix.Search,
			}, e.DS.Queries, e.Truth, e.K)
			out = append(out, r)
		}
	}
	return out
}

// SweepMPLSH evaluates Multi-Probe LSH over K × L × probes.
func SweepMPLSH(e *Env, opt Options) []eval.Result {
	fam := e.family()
	var out []eval.Result
	for _, kk := range e.concatK(opt.Quick) {
		for _, ll := range pick(opt.Quick, []int{4, 8}, []int{4}) {
			for _, probes := range pick(opt.Quick, []int{4, 8, 16, 32}, []int{8}) {
				ix, err := mplsh.Build(e.DS.Data, fam, mplsh.Params{K: kk, L: ll, Probes: probes, Seed: e.Seed})
				if err != nil {
					continue
				}
				r := eval.EvaluatePrecise(&eval.Runner{
					MethodName: "Multi-Probe LSH",
					ConfigDesc: fmt.Sprintf("K=%d L=%d T=%d", kk, ll, probes),
					IndexBytes: ix.Bytes(),
					IndexTime:  ix.BuildTime(),
					SearchFunc: ix.Search,
				}, e.DS.Queries, e.Truth, e.K)
				out = append(out, r)
			}
		}
	}
	return out
}

// SweepC2LSH evaluates C2LSH over m × budget with the threshold fixed at
// m/4 (≥2).
func SweepC2LSH(e *Env, opt Options) []eval.Result {
	fam := e.family()
	var out []eval.Result
	for _, m := range pick(opt.Quick, []int{16, 32, 64}, []int{32}) {
		thr := m / 4
		if thr < 2 {
			thr = 2
		}
		for _, budget := range pick(opt.Quick, []int{50, 100, 200, 400, 800, 1600}, []int{100}) {
			ix, err := c2lsh.Build(e.DS.Data, fam, c2lsh.Params{
				M: m, Threshold: thr, Budget: budget, Seed: e.Seed,
			})
			if err != nil {
				continue
			}
			r := eval.EvaluatePrecise(&eval.Runner{
				MethodName: "C2LSH",
				ConfigDesc: fmt.Sprintf("m=%d l=%d B=%d", m, thr, budget),
				IndexBytes: ix.Bytes(),
				IndexTime:  ix.BuildTime(),
				SearchFunc: ix.Search,
			}, e.DS.Queries, e.Truth, e.K)
			out = append(out, r)
		}
	}
	return out
}

// SweepQALSH evaluates QALSH over m × budget (Euclidean only).
func SweepQALSH(e *Env, opt Options) []eval.Result {
	w := e.tunedW()
	var out []eval.Result
	for _, m := range pick(opt.Quick, []int{16, 32, 64}, []int{32}) {
		thr := m / 4
		if thr < 2 {
			thr = 2
		}
		for _, budget := range pick(opt.Quick, []int{50, 100, 200, 400, 800, 1600}, []int{100}) {
			ix, err := qalsh.Build(e.DS.Data, e.DS.Dim, qalsh.Params{
				M: m, Threshold: thr, W: w, Budget: budget, Seed: e.Seed,
			})
			if err != nil {
				continue
			}
			r := eval.EvaluatePrecise(&eval.Runner{
				MethodName: "QALSH",
				ConfigDesc: fmt.Sprintf("m=%d l=%d B=%d", m, thr, budget),
				IndexBytes: ix.Bytes(),
				IndexTime:  ix.BuildTime(),
				SearchFunc: ix.Search,
			}, e.DS.Queries, e.Truth, e.K)
			out = append(out, r)
		}
	}
	return out
}

// SweepSRS evaluates SRS over projection dimension × budget (Euclidean
// only).
func SweepSRS(e *Env, opt Options) []eval.Result {
	var out []eval.Result
	for _, dp := range pick(opt.Quick, []int{6, 8, 10}, []int{6}) {
		for _, budget := range pick(opt.Quick, []int{50, 100, 200, 400, 800, 1600}, []int{100}) {
			ix, err := srs.Build(e.DS.Data, e.DS.Dim, srs.Params{
				ProjDim: dp, Budget: budget, Seed: e.Seed,
			})
			if err != nil {
				continue
			}
			r := eval.EvaluatePrecise(&eval.Runner{
				MethodName: "SRS",
				ConfigDesc: fmt.Sprintf("d'=%d B=%d", dp, budget),
				IndexBytes: ix.Bytes(),
				IndexTime:  ix.BuildTime(),
				SearchFunc: ix.Search,
			}, e.DS.Queries, e.Truth, e.K)
			out = append(out, r)
		}
	}
	return out
}

// SweepFALCONN evaluates the FALCONN baseline over K × L × probes
// (Angular only).
func SweepFALCONN(e *Env, opt Options) []eval.Result {
	fam := e.family()
	var out []eval.Result
	for _, kk := range pick(opt.Quick, []int{1, 2}, []int{1}) {
		for _, ll := range pick(opt.Quick, []int{4, 8, 16}, []int{8}) {
			for _, probes := range pick(opt.Quick, []int{1, 4, 16}, []int{4}) {
				ix, err := falconn.Build(e.DS.Data, fam, falconn.Params{
					K: kk, L: ll, Probes: probes, Seed: e.Seed,
				})
				if err != nil {
					continue
				}
				r := eval.EvaluatePrecise(&eval.Runner{
					MethodName: "FALCONN",
					ConfigDesc: fmt.Sprintf("K=%d L=%d T=%d", kk, ll, probes),
					IndexBytes: ix.Bytes(),
					IndexTime:  ix.BuildTime(),
					SearchFunc: ix.Search,
				}, e.DS.Queries, e.Truth, e.K)
				out = append(out, r)
			}
		}
	}
	return out
}

// euclideanSweeps returns the Figure 4 method set.
func euclideanSweeps() map[string]func(*Env, Options) []eval.Result {
	return map[string]func(*Env, Options) []eval.Result{
		"LCCS-LSH":        SweepLCCS,
		"MP-LCCS-LSH":     SweepMPLCCS,
		"E2LSH":           SweepE2LSH,
		"Multi-Probe LSH": SweepMPLSH,
		"C2LSH":           SweepC2LSH,
		"SRS":             SweepSRS,
		"QALSH":           SweepQALSH,
	}
}

// angularSweeps returns the Figure 5 method set.
func angularSweeps() map[string]func(*Env, Options) []eval.Result {
	return map[string]func(*Env, Options) []eval.Result{
		"LCCS-LSH":    SweepLCCS,
		"MP-LCCS-LSH": SweepMPLCCS,
		"E2LSH":       SweepE2LSH,
		"FALCONN":     SweepFALCONN,
		"C2LSH":       SweepC2LSH,
	}
}

// methodOrderEuclidean is the legend order of Figure 4.
var methodOrderEuclidean = []string{
	"LCCS-LSH", "MP-LCCS-LSH", "E2LSH", "Multi-Probe LSH", "C2LSH", "SRS", "QALSH",
}

// methodOrderAngular is the legend order of Figure 5.
var methodOrderAngular = []string{
	"LCCS-LSH", "MP-LCCS-LSH", "E2LSH", "FALCONN", "C2LSH",
}

// runSweeps executes the given sweeps in legend order and returns results
// grouped by method, honoring opt.Methods when set.
func runSweeps(e *Env, opt Options, sweeps map[string]func(*Env, Options) []eval.Result, order []string) map[string][]eval.Result {
	wanted := func(name string) bool {
		if len(opt.Methods) == 0 {
			return true
		}
		for _, m := range opt.Methods {
			if m == name {
				return true
			}
		}
		return false
	}
	out := make(map[string][]eval.Result, len(sweeps))
	for _, name := range order {
		sweep, ok := sweeps[name]
		if !ok || !wanted(name) {
			continue
		}
		rs := sweep(e, opt)
		sortResults(rs)
		out[name] = rs
	}
	return out
}
