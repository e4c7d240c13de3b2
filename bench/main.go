// Command bench is this repository's benchmark: five seeded workloads
// over the lccs library and the lccs-serve daemon, measured end to end
// (untraced) and layer by layer (traced). BENCHMARK.json at the repository
// root names the workloads and metrics; README.md explains them.
//
//	bash bench/run.sh --workload static-d16 --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -workload all -runs 5 -out new.json
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// File is a result file: what must match for a comparison, every run,
// and the claim the runs are offered in support of — none, here.
type File struct {
	Meta  Meta     `json:"meta"`
	Runs  []Result `json:"runs"`
	Claim *string  `json:"claim"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 8, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		runs     = flag.Int("runs", 1, "repetitions, interleaved across the selected workloads (A B C A B C)")
		out      = flag.String("out", "", "write every run and its metadata to this JSON file")
		spansOut = flag.String("spans", "", "traced runs: write the recorded spans to this JSON file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		serveBin = flag.String("serve-bin", "", "the lccs-serve binary to drive; bench/run.sh builds it from the checkout")
		workDir  = flag.String("workdir", "", "scratch directory for durable directories and logs (default: a temporary one)")
	)
	flag.Parse()
	if *spansOut != "" && (*trace != 1 || *runs != 1 || *workload == "all" || strings.Contains(*workload, ",")) {
		fatal(errors.New("-spans keeps the spans of one traced run of one workload"))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	var specs []spec
	for _, name := range strings.Split(*workload, ",") {
		if name == "all" {
			specs = append(specs, workloads(false)...)
			continue
		}
		s, err := findSpec(false, name)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, s)
	}
	e, err := newEnv(*serveBin, *workDir)
	if err != nil {
		fatal(err)
	}
	// A signal must not leave a daemon behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(1)
	}()

	file := File{Meta: newMeta(*seed, *seconds, specs)}
	ok := true
	for i := 0; i < *runs; i++ {
		for _, sp := range specs {
			res, spans, err := runOne(e, sp, *seed, *seconds, *trace == 1)
			if err != nil {
				e.cleanup()
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			printResult(res)
			file.Runs = append(file.Runs, *res)
			ok = ok && res.Correct
			if *spansOut != "" {
				if err := spans.write(*spansOut); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
				}
			}
		}
	}
	e.cleanup()
	if *out != "" {
		b, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the last run, in the driver's
	// format.
	fmt.Println(contractLine(&file.Runs[len(file.Runs)-1]))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// newEnv resolves the work directory of the runs and records the daemon
// binary they drive.
func newEnv(serveBin, workDir string) (*env, error) {
	if serveBin == "" {
		return nil, errors.New("-serve-bin is required: the lccs-serve binary to drive (bench/run.sh builds it)")
	}
	if workDir == "" {
		dir, err := os.MkdirTemp("", "lccs-bench-")
		if err != nil {
			return nil, err
		}
		workDir = dir
	} else {
		workDir = filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
	}
	workDir, err := filepath.Abs(workDir)
	if err != nil {
		return nil, err
	}
	return &env{serveBin: serveBin, workDir: workDir}, nil
}

// runOne generates the workload's inputs from the seed and runs it once.
func runOne(e *env, sp spec, seed uint64, seconds float64, trace bool) (*Result, *spanLog, error) {
	r := &run{spec: sp, seed: seed, window: seconds, trace: trace, env: e,
		res: &Result{Workload: sp.name, Seed: seed, Trace: trace, Metrics: map[string]Metric{}}}
	t0 := time.Now()
	r.data, r.inserts, r.queries = sp.recipe.generate(seed, sp.name, sp.n, max(sp.rounds, extraRows), sp.nq)
	r.width = sp.recipe.bucketWidth(sp.name)
	gen := time.Since(t0).Seconds()
	var err error
	switch {
	case trace:
		r.spans = newSpanLog()
		r.set("bench.gen_s", Metric{Value: gen})
		err = r.probeLayers()
	case sp.kind == "static":
		err = r.runStatic()
	case sp.kind == "churn":
		err = r.runChurn()
	default:
		err = r.runServe()
	}
	if err != nil {
		return nil, nil, err
	}
	r.res.Correct = r.res.Failed == 0
	r.set("failed_ratio", Metric{Value: float64(r.res.Failed) / float64(r.res.Attempted), N: int(r.res.Attempted)})
	// Report the declared metrics, each with its declared unit: all of them,
	// except that an untraced run has alsoUntraced only where they apply.
	must, may := endToEnd, alsoUntraced
	if trace {
		must, may = perLayer, nil
	}
	declared := map[string]Metric{}
	for i, d := range append(append([]metricDef(nil), must...), may...) {
		m, ok := r.res.Metrics[d.name]
		if !ok && i < len(must) {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if ok {
			m.Unit = d.unit
			declared[d.name] = m
		}
	}
	r.res.Metrics = declared
	return r.res, r.spans, nil
}

// extraRows is how many rows beyond the indexed ones are generated, for
// inserts: above a daemon's write quota plus the traced run's extra adds.
const extraRows = 4000

func printResult(res *Result) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("# %s seed=%d %s: attempted=%d failed=%d\n", res.Workload, res.Seed, kind, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-34s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Q1 != 0 || m.Q3 != 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		fmt.Println(line)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
}

// contractLine is the one JSON object the driver reads: every metric
// BENCHMARK.json declares for this kind of run, and no other.
func contractLine(res *Result) string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = valueUnit{res.Metrics[d.name].Value, d.unit}
	}
	b, _ := json.Marshal(line)
	return string(b)
}
