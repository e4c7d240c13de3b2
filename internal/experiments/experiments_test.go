package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lccs/internal/eval"
	"lccs/internal/vec"
)

// quickOpt is a tiny configuration that exercises every code path in
// seconds.
func quickOpt(buf *bytes.Buffer) Options {
	return Options{
		N: 800, NQ: 8, K: 5, Seed: 3,
		Datasets: []string{"sift"},
		Quick:    true,
		Out:      buf,
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("fig99", Options{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestNames(t *testing.T) {
	if len(Names()) != 9 {
		t.Fatalf("Names = %v", Names())
	}
	var buf bytes.Buffer
	for _, n := range Names() {
		if n == "table1" || n == "table2" {
			if err := Run(n, quickOpt(&buf)); err != nil {
				t.Fatalf("%s: %v", n, err)
			}
		}
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "E2LSH", "C2LSH", "LCCS-LSH", "Theorem 5.1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	opt := quickOpt(&buf)
	opt.Datasets = []string{"sift", "glove"}
	if err := Table2(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sift") || !strings.Contains(out, "glove") {
		t.Errorf("missing dataset rows:\n%s", out)
	}
	if !strings.Contains(out, "128") || !strings.Contains(out, "100") {
		t.Errorf("missing dimensions:\n%s", out)
	}
}

func TestNewEnvAngularNormalizes(t *testing.T) {
	opt := quickOpt(&bytes.Buffer{})
	e, err := NewEnv("sift", vec.Angular, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := vec.Norm(e.DS.Data[0]); n < 0.999 || n > 1.001 {
		t.Fatalf("angular env not normalized: norm %v", n)
	}
	if len(e.Truth) != opt.NQ || len(e.Truth[0]) != opt.K {
		t.Fatalf("truth shape %d×%d", len(e.Truth), len(e.Truth[0]))
	}
}

func TestTruthAt(t *testing.T) {
	e, err := NewEnv("sift", vec.Euclidean, quickOpt(&bytes.Buffer{}))
	if err != nil {
		t.Fatal(err)
	}
	if &e.TruthAt(e.K)[0] != &e.Truth[0] {
		t.Error("TruthAt(K) should reuse cached truth")
	}
	t3 := e.TruthAt(3)
	if len(t3[0]) != 3 {
		t.Fatalf("TruthAt(3) rows have %d entries", len(t3[0]))
	}
}

func TestSweepsProduceSaneResults(t *testing.T) {
	opt := quickOpt(&bytes.Buffer{})
	e, err := NewEnv("sift", vec.Euclidean, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range e.methods() {
		rs := e.sweep(name, opt.Quick)
		if len(rs) == 0 {
			t.Errorf("%s: no results", name)
			continue
		}
		for _, r := range rs {
			if r.Method != name {
				t.Errorf("%s: result labeled %q", name, r.Method)
			}
			if r.Recall < 0 || r.Recall > 1 {
				t.Errorf("%s: recall %v out of range", name, r.Recall)
			}
			if r.QueryTimeMS < 0 || r.IndexBytes < 0 {
				t.Errorf("%s: negative accounting %+v", name, r)
			}
			// Figure 8 finds each printed row's configuration again.
			if c, err := e.lookup(name, r.Config, opt.Quick); err != nil || c.method != name || len(c.lambdas) != 1 || c.label(c.lambdas[0]) != r.Config {
				t.Errorf("%s: lookup(%q) = %+v, %v", name, r.Config, c, err)
			}
		}
	}
	if _, err := e.lookup("LCCS-LSH", "garbage", opt.Quick); err == nil {
		t.Error("an unknown config should fail")
	}
	if _, err := e.lookup("NopeLSH", "m=1", opt.Quick); err == nil {
		t.Error("an unknown method should fail")
	}
}

func TestSweepsAngular(t *testing.T) {
	opt := quickOpt(&bytes.Buffer{})
	e, err := NewEnv("sift", vec.Angular, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range e.methods() {
		rs := e.sweep(name, opt.Quick)
		if len(rs) == 0 {
			t.Errorf("%s: no results", name)
		}
	}
}

func TestFig4QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 4") {
		t.Error("missing header")
	}
	for _, m := range []string{"LCCS-LSH", "E2LSH", "C2LSH", "SRS", "QALSH"} {
		if !strings.Contains(out, m) {
			t.Errorf("missing method %s:\n%s", m, out)
		}
	}
}

func TestFig5QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FALCONN") {
		t.Errorf("missing FALCONN:\n%s", buf.String())
	}
}

func TestFig6QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("missing header")
	}
}

func TestFig8QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 8") {
		t.Error("missing header")
	}
	// Both metrics and multiple k values must appear.
	if !strings.Contains(out, "sift-euclidean") || !strings.Contains(out, "sift-angular") {
		t.Errorf("missing metric rows:\n%s", out)
	}
	if !strings.Contains(out, "k=1 ") || !strings.Contains(out, "k=10") {
		t.Errorf("missing k rows:\n%s", out)
	}
}

func TestFig7QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("missing header")
	}
}

func TestFig9QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "m=8") || !strings.Contains(out, "m=16") {
		t.Errorf("missing m rows:\n%s", out)
	}
	if !strings.Contains(out, "sift-euclidean") || !strings.Contains(out, "sift-angular") {
		t.Errorf("missing metric rows:\n%s", out)
	}
}

func TestFig10QuickEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10(quickOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "probes=1 ") && !strings.Contains(out, "probes=1 ") && !strings.Contains(out, "probes=1") {
		t.Errorf("missing probes rows:\n%s", out)
	}
}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/recall.golden from the running code (for an intentional change of the paper's curves only)")

// TestPaperRecallGolden pins the recall of every configuration Figures 9
// and 10 sweep at quick size — fig9: m × λ of single-probe LCCS-LSH; fig10:
// #probes × λ of MP-LCCS-LSH (§4.2) — on seeded data, under both metrics,
// and the recall and ratio of every configuration of every method Figures 4
// (Euclidean) and 5 (Angular) sweep at quick size. Recall is exact per
// seed, unlike the timed Pareto frontier the figures print, so a CSA,
// hashing, probing or baseline change that moves the paper's curves fails
// here. 50 queries make a moved neighbour visible.
func TestPaperRecallGolden(t *testing.T) {
	opt := quickOpt(&bytes.Buffer{})
	opt.NQ = 50
	var lines []string
	record := func(fig string) func(ds string, results []eval.Result) {
		return func(ds string, results []eval.Result) {
			for _, r := range results {
				lines = append(lines, fmt.Sprintf("%s %s %s recall=%.4f", fig, ds, r.Config, r.Recall))
			}
		}
	}
	if err := fig9(opt, record("fig9")); err != nil {
		t.Fatal(err)
	}
	if err := fig10(opt, 16, record("fig10")); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []struct {
		label  string
		metric vec.Metric
	}{
		{"fig4", vec.Euclidean},
		{"fig5", vec.Angular},
	} {
		e, err := NewEnv("sift", fig.metric, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range e.methods() {
			for _, r := range e.sweep(name, opt.Quick) {
				lines = append(lines, fmt.Sprintf("%s sift-%s %q %s recall=%.4f ratio=%.4f",
					fig.label, fig.metric.Name(), r.Method, r.Config, r.Recall, r.Ratio))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/recall.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the paper's recall curves moved.\n--- %s\n%s--- got\n%s", path, want, got)
	}
}

func TestSortResultsOrdering(t *testing.T) {
	rs := []eval.Result{
		{Method: "B", Recall: 0.2},
		{Method: "A", Recall: 0.9},
		{Method: "A", Recall: 0.1},
	}
	sortResults(rs)
	if rs[0].Method != "A" || rs[0].Recall != 0.1 || rs[2].Method != "B" {
		t.Fatalf("bad order: %+v", rs)
	}
}
