package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
)

// gate is one regression rule of -compare: how far the new side's median
// of a metric may be worse than the old side's.
type gate struct {
	name   string
	better string
	// bound is a share of the old median, or a difference when abs is set.
	bound float64
	abs   bool
	// on names the one workload the rule applies to; empty means all.
	on string
	// anyRun judges each side by its highest run, not by its median (for a
	// ratio of failures, where one bad run is one too many).
	anyRun bool
}

// gates are the nine end-to-end rules of ISSUE 11, with its bounds. They
// judge runs of one seed on one machine, where counters and recall repeat
// exactly and ten alternating pairs resolve a few percent. BENCHMARK.json
// bounds some of the same metrics for the harness, far more loosely: a
// bound there must exceed the metric's spread across ten seeds and an hour
// of this VM's neighbours, which alone reaches 15% on every timing.
var gates = []gate{
	{name: "setup_s", better: "lower", bound: 0.10},
	{name: "qps", better: "higher", bound: 0.08},
	{name: "search_p50_us", better: "lower", bound: 0.08},
	{name: "search_p99_us", better: "lower", bound: 0.10},
	{name: "write_p50_us", better: "lower", bound: 0.10, on: "serve-mixed"},
	{name: "recall_at_10", better: "higher", bound: 0.005, abs: true},
	{name: "mem_mb", better: "lower", bound: 0.03},
	{name: "recovery_s", better: "lower", bound: 0.15, on: "serve-mixed"},
	{name: "failed_ratio", better: "lower", bound: 0, abs: true, anyRun: true},
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// judge compares the new side's runs of one metric with the old side's:
// the value each side is judged by, how much worse the new one is, the
// wider of the two sides' quartile distances (both in the unit of the
// bound), and the verdict.
func (g gate) judge(old, new []float64) (va, vb, worse, spread float64, verdict string) {
	va, vb = median(old), median(new)
	if g.anyRun {
		va, vb = slices.Max(old), slices.Max(new)
	}
	worse = vb - va
	if g.better == "higher" {
		worse = -worse
	}
	spread = max(iqr(old), iqr(new))
	if !g.abs {
		if va == 0 || vb == 0 {
			return va, vb, 0, 0, "unresolved"
		}
		worse, spread = worse/va, max(iqr(old)/va, iqr(new)/vb)
	}
	switch {
	case g.anyRun && worse > g.bound:
		verdict = "worse" // one failing run is enough, however the others spread
	case spread > g.bound:
		verdict = "unresolved"
	case worse > g.bound:
		verdict = "worse"
	case worse < -g.bound:
		verdict = "better"
	default:
		verdict = "same"
	}
	return va, vb, worse, spread, verdict
}

// iqr is the distance between the first and the third quartile as Python's
// statistics.quantiles(xs, n=4) cuts them, which is how the harness takes
// a spread: at ranks (len+1)/4 and 3(len+1)/4, interpolated, so that five
// runs span nearly their whole range.
func iqr(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) < 2 {
		return 0
	}
	at := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(3) - at(1)
}

// compareFiles prints, for every workload and gated metric, the value each
// side is judged by (its median over its runs), how much worse the new side
// is, the bound and a verdict. It refuses files whose runs were not made
// under the same conditions. A workload on which the new side failed more operations than
// the old proves nothing else: its other rows read unresolved.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	var a, b File
	if err := readJSON(oldPath, &a); err != nil {
		return err
	}
	if err := readJSON(newPath, &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a.Meta, b.Meta) {
		return fmt.Errorf("refusing to compare: the runs were made under different conditions\n old: %+v\n new: %+v", a.Meta, b.Meta)
	}
	collect := func(f File) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	names := make([]string, 0, len(va))
	for name := range va {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-14s %5s %14s %14s %9s %9s %9s  %s\n", "workload", "metric", "runs", "old", "new", "worse by", "bound", "spread", "verdict")
	for _, wl := range names {
		fa, fb := va[wl]["failed_ratio"], vb[wl]["failed_ratio"]
		failing := len(fa) > 0 && len(fb) > 0 && slices.Max(fb) > slices.Max(fa)
		for _, g := range gates {
			xa, xb := va[wl][g.name], vb[wl][g.name]
			if len(xa) == 0 || len(xb) == 0 || (g.on != "" && g.on != wl) {
				continue
			}
			ma, mb, worse, spread, verdict := g.judge(xa, xb)
			if failing && g.name != "failed_ratio" {
				verdict = "unresolved"
			}
			amount := func(x float64) string {
				if g.abs {
					return fmt.Sprintf("%+.4f", x)
				}
				return fmt.Sprintf("%+.2f%%", x*100)
			}
			fmt.Fprintf(w, "%-12s %-14s %2d/%-2d %14.6g %14.6g %9s %9s %9s  %s\n",
				wl, g.name, len(xa), len(xb), ma, mb, amount(worse+0), amount(g.bound)[1:], amount(spread)[1:], verdict)
		}
	}
	return nil
}
