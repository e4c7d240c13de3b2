package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testEnv builds the daemon from this checkout, as bench/run.sh does,
// into a directory the test framework removes.
func testEnv(t *testing.T) *env {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lccs-serve")
	if b, err := exec.Command("go", "build", "-o", bin, "lccs/cmd/lccs-serve").CombinedOutput(); err != nil {
		t.Fatalf("building lccs-serve: %v\n%s", err, b)
	}
	e, err := newEnv(bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	return e
}

func toyRun(t *testing.T, e *env, name string, seed uint64, trace bool) *Result {
	t.Helper()
	sp, err := findSpec(true, name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runOne(e, sp, seed, 0.2, trace)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: attempted %d, failed %d: %v", name, seed, trace, res.Attempted, res.Failed, res.Failures)
	}
	return res
}

// TestWorkloads runs every workload end to end and traced at toy size:
// each declared metric is emitted with its unit and counters repeat
// exactly under one seed.
func TestWorkloads(t *testing.T) {
	e := testEnv(t)
	for _, sp := range workloads(true) {
		t.Run(sp.name, func(t *testing.T) {
			if testing.Short() && sp.kind == "serve" {
				t.Skip("serve workloads boot a daemon")
			}
			a, b := toyRun(t, e, sp.name, 1, false), toyRun(t, e, sp.name, 1, false)
			for _, d := range endToEnd {
				if m, ok := a.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
			// The metrics BENCHMARK.json does not bound: the tail and the
			// failure ratio everywhere, writes and recovery on serve-mixed.
			want := len(endToEnd) + 2
			if sp.name == "serve-mixed" {
				want = len(endToEnd) + len(alsoUntraced)
			}
			for _, d := range alsoUntraced {
				if m, ok := a.Metrics[d.name]; ok && m.Unit != d.unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
			if len(a.Metrics) != want {
				t.Errorf("end-to-end run emitted %d metrics, want %d: %v", len(a.Metrics), want, a.Metrics)
			}
			var line struct{ Metrics map[string]Metric }
			if err := json.Unmarshal([]byte(contractLine(a)), &line); err != nil || len(line.Metrics) != len(endToEnd) {
				t.Errorf("the driver's line carries %d metrics (err %v), BENCHMARK.json declares %d", len(line.Metrics), err, len(endToEnd))
			}
			if a.Metrics["recall_at_10"].Value != b.Metrics["recall_at_10"].Value {
				t.Errorf("recall_at_10 differs between two runs of one seed: %v, %v", a.Metrics["recall_at_10"].Value, b.Metrics["recall_at_10"].Value)
			}

			ta, tb := toyRun(t, e, sp.name, 1, true), toyRun(t, e, sp.name, 1, true)
			for _, d := range perLayer {
				if m, ok := ta.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
			if len(ta.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, %d are declared", len(ta.Metrics), len(perLayer))
			}
			for _, name := range []string{"csa.comparisons", "vec.gather_bytes", "csa.bytes",
				"lccs.dynamic_tombstones", "lccs.dynamic_buffered", "lccs.dynamic_shards", "bench.replay_mismatch"} {
				if ta.Metrics[name].Value != tb.Metrics[name].Value {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, ta.Metrics[name].Value, tb.Metrics[name].Value)
				}
			}
		})
	}
}

func TestSeedsGiveDifferentInputs(t *testing.T) {
	d1, i1, q1 := recipeD16.generate(1, "w", 50, 5, 5)
	d1b, _, _ := recipeD16.generate(1, "w", 50, 5, 5)
	d2, i2, q2 := recipeD16.generate(2, "w", 50, 5, 5)
	if !reflect.DeepEqual(d1, d1b) {
		t.Error("one seed gave two datasets")
	}
	if reflect.DeepEqual(d1, d2) || reflect.DeepEqual(i1, i2) || reflect.DeepEqual(q1, q2) {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
	if other, _, _ := recipeD16.generate(1, "v", 50, 5, 5); reflect.DeepEqual(d1, other) {
		t.Error("two workloads drew the same rows from one seed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: it may
// name no workload or metric the program does not produce, and none the
// program produces may be missing from it.
func TestBenchmarkJSON(t *testing.T) {
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Paths, []string{"bench"}) || strings.Join(def.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v over paths %v, want bash bench/run.sh over [bench]", def.Command, def.Paths)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	var want []string
	for _, sp := range workloads(false) {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, the program runs %v", names, want)
	}
	var got []metricDef
	for _, m := range def.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end is %v, the program emits %v", got, endToEnd)
	}
	got = nil
	for _, m := range def.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer is %v, the program emits %v", got, perLayer)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f File) string {
		b, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// runs makes one run of workload per value of metric.
	runs := func(workload, metric string, values ...float64) (out []Result) {
		for _, v := range values {
			out = append(out, Result{Workload: workload, Metrics: map[string]Metric{
				metric: {Value: v}, "failed_ratio": {Value: 0}}})
		}
		return out
	}
	meta := Meta{NumCPU: 2, Seed: 1}
	failing := runs("static-d16", "qps", 1200, 1205, 1195)
	failing[1].Metrics["failed_ratio"] = Metric{Value: 0.01}
	for _, c := range []struct {
		name     string
		old, new []Result
		want     string // "metric verdict" pairs the output must hold, in order
	}{
		{"same", runs("static-d16", "qps", 1000, 1010, 990), runs("static-d16", "qps", 1005, 1000, 995), "qps same"},
		{"worse", runs("static-d16", "qps", 1000, 1010, 990), runs("static-d16", "qps", 800, 805, 795), "qps worse"},
		{"better", runs("static-d16", "qps", 1000, 1010, 990), runs("static-d16", "qps", 1200, 1205, 1195), "qps better"},
		{"noisy", runs("static-d16", "qps", 1000, 1010, 990), runs("static-d16", "qps", 700, 1000, 1300), "qps unresolved"},
		// Fast because it fails: nothing is proven, and the failures are worse.
		{"failing", runs("static-d16", "qps", 1000, 1010, 990), failing, "qps unresolved,failed_ratio worse"},
		// Recall is gated as a difference: 0.464 to 0.455 is 2% and a regression.
		{"recall", runs("static-d16", "recall_at_10", 0.464, 0.464), runs("static-d16", "recall_at_10", 0.455, 0.455), "recall_at_10 worse"},
		{"recall-same", runs("churn-d16", "recall_at_10", 0.999, 0.999), runs("churn-d16", "recall_at_10", 0.996, 0.996), "recall_at_10 same"},
		{"write", runs("serve-mixed", "write_p50_us", 700, 710), runs("serve-mixed", "write_p50_us", 800, 810), "write_p50_us worse"},
		{"recovery", runs("serve-mixed", "recovery_s", 0.30, 0.31), runs("serve-mixed", "recovery_s", 0.33, 0.34), "recovery_s same"},
	} {
		var out bytes.Buffer
		if err := compareFiles(&out, write("old.json", File{Meta: meta, Runs: c.old}), write("new.json", File{Meta: meta, Runs: c.new})); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(line)
			if f[1] != "failed_ratio" || f[len(f)-1] != "same" {
				got = append(got, f[1]+" "+f[len(f)-1])
			}
		}
		if strings.Join(got, ",") != c.want {
			t.Errorf("%s: want %q, got %q:\n%s", c.name, c.want, got, out.String())
		}
	}
	base := write("old.json", File{Meta: meta, Runs: runs("static-d16", "qps", 1000)})
	other := write("other.json", File{Meta: Meta{NumCPU: 4, Seed: 1}, Runs: runs("static-d16", "qps", 1000)})
	if err := compareFiles(&bytes.Buffer{}, base, other); err == nil {
		t.Error("files recorded on different machines were compared")
	}
}

// TestIQRMatchesHarness pins iqr to statistics.quantiles(xs, n=4) of Python.
func TestIQRMatchesHarness(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 4.5 - 1.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 82.5 - 27.5},
		{[]float64{3, 1}, 3.5 - 0.5},
		{[]float64{7}, 0},
	} {
		if got := iqr(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSummarizeIgnoresOneBurst(t *testing.T) {
	s := &samples{}
	for i := 0; i < 20000; i++ {
		lat := 50_000 // 50 µs
		if i >= 4000 && i < 6000 {
			lat = 500_000 // one slice ten times slower
		}
		s.add(0, 0)
		s.endNs[i], s.latNs[i] = int64(i)*50_000, int64(lat)
	}
	st := summarize([]*samples{s}, []*samples{s}, 1_000_000_000)
	if st.rate.Value != 20000 || st.p50.Value != 50 || st.p99.Value != 50 {
		t.Errorf("rate %v p50 %v p99 %v, want 20000 50 50: a burst in one slice moved a metric", st.rate.Value, st.p50.Value, st.p99.Value)
	}
}
