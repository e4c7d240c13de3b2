package experiments

import (
	"fmt"
	"slices"
	"time"

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

// pick returns the small grid in quick mode, the full one otherwise.
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

// concatK returns the K grid for static-concatenation methods; the
// cross-polytope alphabet is enormous (±D), so fewer concatenations are
// needed than for random projections.
func (e *Env) concatK(quick bool) []int {
	if e.Metric.Name() == "angular" {
		return pick(quick, []int{1, 2}, []int{1})
	}
	return pick(quick, []int{2, 4, 6}, []int{4})
}

// config is one configuration of one method, stated once: the config
// string its result rows print and the one function that builds the
// method there. An LCCS scheme's one build is queried at every candidate
// budget of lambdas, and each result's config is config followed by its
// λ; a baseline has the one budget 0, which its search ignores.
type config struct {
	method, config string
	lambdas        []int
	build          func() (built, error)
}

// built is a method built at one configuration.
type built struct {
	bytes  int64
	time   time.Duration
	search func(q []float32, k, lambda int) []pqueue.Neighbor
}

// label is the config string of c's results at candidate budget lambda.
func (c config) label(lambda int) string {
	if lambda == 0 {
		return c.config
	}
	return fmt.Sprintf("%s λ=%d", c.config, lambda)
}

// lccs is LCCS-LSH at hash-string length m queried at lambdas or, with
// probes > 0, MP-LCCS-LSH at that many probes (§4.2: one probe is the
// single-probe scheme, which Figure 10 plots as its first point).
func (e *Env) lccs(fam lshfamily.Family, m, probes int, lambdas []int) config {
	c := config{method: "LCCS-LSH", config: fmt.Sprintf("m=%d", m), lambdas: lambdas}
	if probes > 0 {
		c.method, c.config = "MP-LCCS-LSH", fmt.Sprintf("m=%d probes=%d", m, probes)
	}
	c.build = func() (built, error) {
		ix, err := core.Build(e.DS.Data, fam, core.Params{M: m, Seed: e.Seed, Probes: probes})
		if err != nil {
			return built{}, err
		}
		return built{ix.Bytes(), ix.BuildTime(), ix.Search}, nil
	}
	return c
}

// searcher is what every baseline index offers the harness.
type searcher interface {
	Bytes() int64
	BuildTime() time.Duration
	Search(q []float32, k int) []pqueue.Neighbor
}

// baseline is a baseline method's configuration.
func baseline(method, cfg string, build func() (searcher, error)) config {
	return config{method: method, config: cfg, lambdas: []int{0}, build: func() (built, error) {
		ix, err := build()
		if err != nil {
			return built{}, err
		}
		return built{ix.Bytes(), ix.BuildTime(), func(q []float32, k, _ int) []pqueue.Neighbor { return ix.Search(q, k) }}, nil
	}}
}

// grid returns every configuration of method that the Figure 4 and 5
// sweeps evaluate on e, in sweep order; quick selects the smoke-test grid.
func (e *Env) grid(method string, quick bool) []config {
	fam := e.family()
	var out []config
	switch method {
	case "LCCS-LSH":
		for _, m := range pick(quick, []int{16, 32, 64, 128, 256}, []int{16, 32}) {
			out = append(out, e.lccs(fam, m, 0, e.lambdaGrid(quick)))
		}
	case "MP-LCCS-LSH":
		// The probe counts follow the paper's {1, m+1, 2m+1, 4m+1}
		// pattern, trimmed to two points per m: probing cost scales
		// with #probes × λ, and the two points bracket the regime the
		// paper studies. For the same reason the full λ grid is thinned
		// to every other point.
		lambdas := e.lambdaGrid(quick)
		if !quick {
			thinned := lambdas[:0:0]
			for i := 0; i < len(lambdas); i += 2 {
				thinned = append(thinned, lambdas[i])
			}
			lambdas = thinned
		}
		for _, m := range pick(quick, []int{16, 64}, []int{16}) {
			for _, probes := range pick(quick, []int{m + 1, 4*m + 1}, []int{m + 1}) {
				out = append(out, e.lccs(fam, m, probes, lambdas))
			}
		}
	case "E2LSH":
		for _, kk := range e.concatK(quick) {
			for _, ll := range pick(quick, []int{4, 8, 16, 32}, []int{8}) {
				out = append(out, baseline(method, fmt.Sprintf("K=%d L=%d", kk, ll), func() (searcher, error) {
					return e2lsh.Build(e.DS.Data, fam, e2lsh.Params{K: kk, L: ll, Seed: e.Seed})
				}))
			}
		}
	case "Multi-Probe LSH":
		for _, kk := range e.concatK(quick) {
			for _, ll := range pick(quick, []int{4, 8}, []int{4}) {
				for _, probes := range pick(quick, []int{4, 8, 16, 32}, []int{8}) {
					out = append(out, baseline(method, fmt.Sprintf("K=%d L=%d T=%d", kk, ll, probes), func() (searcher, error) {
						return mplsh.Build(e.DS.Data, fam, mplsh.Params{K: kk, L: ll, Probes: probes, Seed: e.Seed})
					}))
				}
			}
		}
	case "FALCONN":
		for _, kk := range pick(quick, []int{1, 2}, []int{1}) {
			for _, ll := range pick(quick, []int{4, 8, 16}, []int{8}) {
				for _, probes := range pick(quick, []int{1, 4, 16}, []int{4}) {
					out = append(out, baseline(method, fmt.Sprintf("K=%d L=%d T=%d", kk, ll, probes), func() (searcher, error) {
						return falconn.Build(e.DS.Data, fam, falconn.Params{K: kk, L: ll, Probes: probes, Seed: e.Seed})
					}))
				}
			}
		}
	case "C2LSH":
		for _, m := range pick(quick, []int{16, 32, 64}, []int{32}) {
			thr := max(m/4, 2) // the collision threshold, fixed at m/4
			for _, budget := range pick(quick, []int{50, 100, 200, 400, 800, 1600}, []int{100}) {
				out = append(out, baseline(method, fmt.Sprintf("m=%d l=%d B=%d", m, thr, budget), func() (searcher, error) {
					return c2lsh.Build(e.DS.Data, fam, c2lsh.Params{M: m, Threshold: thr, Budget: budget, Seed: e.Seed})
				}))
			}
		}
	case "QALSH":
		w := e.tunedW()
		for _, m := range pick(quick, []int{16, 32, 64}, []int{32}) {
			thr := max(m/4, 2)
			for _, budget := range pick(quick, []int{50, 100, 200, 400, 800, 1600}, []int{100}) {
				out = append(out, baseline(method, fmt.Sprintf("m=%d l=%d B=%d", m, thr, budget), func() (searcher, error) {
					return qalsh.Build(e.DS.Data, e.DS.Dim, qalsh.Params{M: m, Threshold: thr, W: w, Budget: budget, Seed: e.Seed})
				}))
			}
		}
	case "SRS":
		for _, dp := range pick(quick, []int{6, 8, 10}, []int{6}) {
			for _, budget := range pick(quick, []int{50, 100, 200, 400, 800, 1600}, []int{100}) {
				out = append(out, baseline(method, fmt.Sprintf("d'=%d B=%d", dp, budget), func() (searcher, error) {
					return srs.Build(e.DS.Data, e.DS.Dim, srs.Params{ProjDim: dp, Budget: budget, Seed: e.Seed})
				}))
			}
		}
	}
	return out
}

// evaluate builds c once and measures it against the exact truth at each
// k of ks in turn, at every candidate budget of c.
func (e *Env) evaluate(c config, ks ...int) ([]eval.Result, error) {
	ix, err := c.build()
	if err != nil {
		return nil, err
	}
	var out []eval.Result
	for _, k := range ks {
		truth := e.TruthAt(k)
		for _, lam := range c.lambdas {
			out = append(out, eval.Evaluate(&eval.Runner{
				MethodName: c.method,
				ConfigDesc: c.label(lam),
				IndexBytes: ix.bytes,
				IndexTime:  ix.time,
				SearchFunc: func(q []float32, k int) []pqueue.Neighbor { return ix.search(q, k, lam) },
			}, e.DS.Queries, truth, k))
		}
	}
	return out, nil
}

// sweep evaluates every configuration of method's grid on e at e.K, in
// sweep order; a configuration that fails to build is left out.
func (e *Env) sweep(method string, quick bool) []eval.Result {
	var out []eval.Result
	for _, c := range e.grid(method, quick) {
		rs, _ := e.evaluate(c, e.K) // a grid point that cannot build has no row
		out = append(out, rs...)
	}
	return out
}

// lookup returns the configuration of method's grid whose results print
// label, narrowed to the one candidate budget the label names.
func (e *Env) lookup(method, label string, quick bool) (config, error) {
	for _, c := range e.grid(method, quick) {
		for _, lam := range c.lambdas {
			if c.label(lam) == label {
				c.lambdas = []int{lam}
				return c, nil
			}
		}
	}
	return config{}, fmt.Errorf("experiments: %s has no configuration %q", method, label)
}

// methods returns the legend of Figure 4 (Euclidean) or Figure 5
// (Angular): the methods swept under the env's metric, in order.
func (e *Env) methods() []string {
	if e.Metric.Name() == "angular" {
		return []string{"LCCS-LSH", "MP-LCCS-LSH", "E2LSH", "FALCONN", "C2LSH"}
	}
	return []string{"LCCS-LSH", "MP-LCCS-LSH", "E2LSH", "Multi-Probe LSH", "C2LSH", "SRS", "QALSH"}
}

// runSweeps sweeps the env's methods, honoring opt.Methods when set, and
// returns each one's results sorted by recall.
func runSweeps(e *Env, opt Options) map[string][]eval.Result {
	out := make(map[string][]eval.Result)
	for _, name := range e.methods() {
		if len(opt.Methods) > 0 && !slices.Contains(opt.Methods, name) {
			continue
		}
		rs := e.sweep(name, opt.Quick)
		sortResults(rs)
		out[name] = rs
	}
	return out
}
