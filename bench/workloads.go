package main

import (
	"fmt"
	"runtime"

	"lccs/internal/vec"
)

// spec is one workload. Sizes are for the 2 cores this
// repository is developed on; see README.md for why each workload exists.
type spec struct {
	name   string
	kind   string // "static", "churn" or "serve": which end-to-end driver runs it
	recipe recipe
	n      int // rows indexed before the timed phase
	nq     int // distinct queries cycled in the timed phase
	truthQ int // how many of them are checked against brute force
	m      int // hash-string length
	lambda int // candidate budget λ
	k      int

	// churn: rounds of Add, WaitRebuild, Delete, with a search every 4th.
	rounds int
	// serve: keep-alive connections, the share of requests that write
	// (half inserts, half deletes), and the daemon's -sync policy.
	conns     int
	writeFrac float64
	crashes   int // kill -9 → restart cycles after the timed phase
	// quota is how many inserts, and how many deletes, one daemon receives
	// in all: the timed mix stops writing at the quota and topUp fills it.
	// It keeps the inserts below the daemon's default rebuild threshold
	// (4096), so no background build is ever triggered, and it makes the
	// state that recall and recovery are measured on the same in every run
	// of a seed, however many writes the window had room for.
	quota int

	// probe sizes of the traced run, for layers the workload itself does
	// not drive: rows behind the mini daemon and the mini dynamic index.
	probeN, probeRounds int
}

// workloads lists the five workloads. toy shrinks every size for the
// package's tests; the command always runs the full sizes.
func workloads(toy bool) []spec {
	pick := func(full, small int) int {
		if toy {
			return small
		}
		return full
	}
	specs := []spec{
		{name: "static-d16", kind: "static", recipe: recipeD16,
			n: pick(100_000, 2000), nq: pick(10_000, 200), truthQ: pick(1000, 50), m: 32, lambda: 100, k: 10},
		{name: "static-d960", kind: "static", recipe: recipeGist,
			n: pick(50_000, 1000), nq: pick(2000, 100), truthQ: pick(500, 20), m: 64, lambda: pick(1000, 200), k: 10},
		{name: "churn-d16", kind: "churn", recipe: recipeD16,
			n: pick(20_000, 2000), nq: pick(2000, 100), truthQ: pick(200, 20), m: 32, lambda: 100, k: 10,
			rounds: pick(6000, 300)},
		{name: "serve-read", kind: "serve", recipe: recipeSift,
			n: pick(50_000, 2000), nq: pick(2000, 100), truthQ: pick(2000, 20), m: 64, lambda: 100, k: 10,
			conns: 2},
		{name: "serve-mixed", kind: "serve", recipe: recipeSift,
			n: pick(50_000, 2000), nq: pick(2000, 100), truthQ: pick(1000, 20), m: 64, lambda: 100, k: 10,
			conns: 2, writeFrac: 0.10, crashes: 3},
	}
	for i := range specs {
		s := &specs[i]
		s.probeN, s.probeRounds = min(pick(5000, 1000), s.n), pick(1000, 200)
		s.quota = pick(1200, 60)
	}
	return specs
}

func findSpec(toy bool, name string) (spec, error) {
	for _, s := range workloads(toy) {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sizes is the spec as recorded in result metadata; -compare refuses to
// compare runs whose sizes differ.
func (s spec) sizes() string {
	return fmt.Sprintf("n=%d dim=%d nq=%d truthQ=%d m=%d lambda=%d k=%d rounds=%d conns=%d writeFrac=%g crashes=%d quota=%d",
		s.n, s.recipe.dim, s.nq, s.truthQ, s.m, s.lambda, s.k, s.rounds, s.conns, s.writeFrac, s.crashes, s.quota)
}

// metricDef names a metric, its unit and its good direction. BENCHMARK.json
// lists the same names; bench_test.go keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics BENCHMARK.json bounds for the harness: an
// untraced run reports every one of them on every workload, and none is
// ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "ops/s", "higher"},
	{"search_p50_us", "us", "lower"},
	{"recall_at_10", "ratio", "higher"},
	{"mem_mb", "MB", "lower"},
}

// alsoUntraced are the end-to-end metrics BENCHMARK.json cannot bound: a
// bound there must hold across seeds, on every workload, on a value that
// is never zero. An untraced run measures them where they apply and keeps
// them in its result file, where -compare gates them like the others (see
// gates); the traced run reports them to the harness, unbounded.
var alsoUntraced = []metricDef{
	{"search_p99_us", "us", "lower"},
	{"write_p50_us", "us", "lower"}, // serve-mixed
	{"recovery_s", "s", "lower"},    // serve-mixed
	{"failed_ratio", "ratio", "lower"},
}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = []metricDef{
	{"lshfamily.hash_us", "us", "lower"},
	{"lshfamily.build_hash_s", "s", "lower"},
	{"csa.build_s", "s", "lower"},
	{"csa.bytes", "bytes", "lower"},
	{"csa.begin_us", "us", "lower"},
	{"csa.comparisons", "count", "lower"},
	{"csa.drain_us", "us", "lower"},
	{"csa.next_ns", "ns", "lower"},
	{"vec.gather_us", "us", "lower"},
	{"vec.gather_bytes", "bytes", "lower"},
	{"vec.gather_gbps", "GB/s", "higher"},
	{"vec.scan_gbps", "GB/s", "higher"},
	{"core.search_us", "us", "lower"},
	{"core.unaccounted_us", "us", "lower"},
	{"lccs.facade_us", "us", "lower"},
	{"lccs.allocs_per_op", "count", "lower"},
	{"lccs.bytes_per_op", "bytes", "lower"},
	{"lccs.dynamic_add_us", "us", "lower"},
	{"lccs.dynamic_delete_us", "us", "lower"},
	{"lccs.dynamic_rebuild_wait_s", "s", "lower"},
	{"lccs.dynamic_compact_s", "s", "lower"},
	{"lccs.dynamic_tombstones", "count", "lower"},
	{"lccs.dynamic_buffered", "count", "lower"},
	{"lccs.dynamic_shards", "count", "lower"},
	{"lccs.dynamic_tombstone_slowdown", "ratio", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.overhead_us", "us", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"server.bytes_per_req", "bytes", "lower"},
	{"server.req_bytes", "bytes", "lower"},
	{"server.resp_bytes", "bytes", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.rejected", "count", "lower"},
	{"engine.comparisons_per_query", "count", "lower"},
	{"engine.candidates_per_query", "count", "lower"},
	{"engine.scan_bytes_per_query", "bytes", "lower"},
	{"engine.wal_bytes_per_write", "bytes", "lower"},
	{"wal.append_sync_us", "us", "lower"},
	{"wal.append_nosync_us", "us", "lower"},
	{"wal.fsyncs_per_write", "ratio", "lower"},
	{"wal.fsync_mean_us", "us", "lower"},
	{"lccs.durable_add_us", "us", "lower"},
	{"lccs.durable_prepare_s", "s", "lower"},
	{"lccs-serve.boot_s", "s", "lower"},
	{"lccs.durable_recover_s", "s", "lower"},
	{"lccs.durable_replay_records", "count", "lower"},
	{"serve.mix_writes", "count", "higher"},
	{"search_p99_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"recovery_s", "s", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"bench.replay_mismatch", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.gen_s", "s", "lower"},
	{"bench.truth_s", "s", "lower"},
}

// Meta is what must match before two result files may be compared.
type Meta struct {
	NumCPU     int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	KernelImpl string            `json:"kernel_impl"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Sizes      map[string]string `json:"sizes"`
}

func newMeta(seed uint64, seconds float64, specs []spec) Meta {
	m := Meta{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		KernelImpl: vec.KernelImpl(), Seed: seed, Seconds: seconds, Sizes: map[string]string{}}
	for _, s := range specs {
		m.Sizes[s.name] = s.sizes()
	}
	return m
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Failures holds the first few violations, for the reader.
	Failures []string `json:"failures,omitempty"`
}

// run carries the state every workload driver shares: its inputs, its
// result so far and the places it may write.
type run struct {
	spec    spec
	seed    uint64
	window  float64 // seconds the timed phase measures
	trace   bool
	env     *env
	res     *Result
	spans   *spanLog
	data    [][]float32
	inserts [][]float32
	queries [][]float32
	width   float64
}

// fail records one violated check. Every violation counts as a failed
// operation and makes the command exit non-zero.
func (r *run) fail(format string, a ...any) { r.failN(1, format, a...) }

// failN records n failed operations of one kind; n may be zero.
func (r *run) failN(n int64, format string, a ...any) {
	if n == 0 {
		return
	}
	r.res.Failed += n
	if len(r.res.Failures) < 10 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, a...))
	}
}

func (r *run) set(name string, m Metric) { r.res.Metrics[name] = m }
