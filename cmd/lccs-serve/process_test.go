package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"lccs"
	"lccs/internal/dataset"
)

// The Process tests drive the real daemon: the binary built from this
// checkout, on loopback ports, over HTTP, with real signals. They carry
// every assertion of the three inline bash + python CI steps they
// replaced, and run wherever `go test` runs. -short skips them.

// serveBin is the daemon, built once by TestMain.
var serveBin string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "lccs-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "lccs-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building lccs-serve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running lccs-serve.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	logs bytes.Buffer
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startDaemon boots lccs-serve with args on a free port and returns once
// /healthz answers 200. The process is killed when the test ends, if it
// is still running.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	if testing.Short() {
		t.Skip("boots a daemon")
	}
	addr := freeAddr(t)
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(serveBin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("lccs-serve %v: not healthy after 20s\n%s", args, d.logs.String())
		}
	}
}

// stop sends sig and waits for the process to exit.
func (d *daemon) stop(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait() // a signalled exit is the expected one
}

// do issues one request, decodes a JSON response into out (when non-nil)
// and returns the status code.
func (d *daemon) do(t *testing.T, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, d.logs.String())
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// ok is do requiring a 2xx.
func (d *daemon) ok(t *testing.T, method, path string, body, out any) {
	t.Helper()
	if code := d.do(t, method, path, body, out); code/100 != 2 {
		t.Fatalf("%s %s: HTTP %d\n%s", method, path, code, d.logs.String())
	}
}

type obj = map[string]any

// searchReply is the part of a search response the tests read.
type searchReply struct {
	Neighbors []struct {
		ID int `json:"id"`
	} `json:"neighbors"`
	NextCursor string `json:"next_cursor"`
	RequestID  uint64 `json:"request_id"`
	Trace      []span `json:"trace"`
	Explain    struct {
		Backend string `json:"backend"`
		Shards  []struct {
			Shard       int   `json:"shard"`
			Comparisons int64 `json:"comparisons"`
			Bytes       int64 `json:"bytes"`
		} `json:"shards"`
	} `json:"explain"`
}

type span struct {
	Stage    string `json:"stage"`
	Shard    *int   `json:"shard"`
	Children []span `json:"children"`
}

func (r searchReply) ids() []int {
	ids := make([]int, len(r.Neighbors))
	for i, n := range r.Neighbors {
		ids[i] = n.ID
	}
	return ids
}

func wantIDs(t *testing.T, what string, got, want []int) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ids %v, want %v", what, got, want)
	}
}

// TestProcessCollections is the multi-tenant surface end to end: boot a
// durable lccs-serve, create two collections with different metrics, run
// filtered and cursor-paginated queries against one, drop the other, and
// verify the survivor is untouched.
func TestProcessCollections(t *testing.T) {
	d := startDaemon(t, "-data", t.TempDir(), "-sync", "always")
	d.ok(t, "POST", "/v1/collections", obj{"name": "geo", "metric": "euclidean", "m": 8}, nil)
	d.ok(t, "POST", "/v1/collections", obj{"name": "ang", "metric": "angular", "m": 8}, nil)
	attrs := make([]obj, 6)
	for i := range attrs {
		attrs[i] = obj{"color": []string{"red", "blue"}[i%2], "rank": i}
	}
	d.ok(t, "POST", "/v1/collections/geo/insert", obj{
		"vectors": [][]float32{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {9, 9}, {10, 10}}, "attrs": attrs}, nil)
	d.ok(t, "POST", "/v1/collections/ang/insert", obj{"vectors": [][]float32{{1, 0}, {0, 1}, {1, 1}}}, nil)

	const geo = "/v1/collections/geo/search"
	var res searchReply
	// String-equality filter: the red rows nearest [0,0], budget = n for
	// exactness.
	d.ok(t, "POST", geo, obj{"query": []float32{0, 0}, "k": 3, "budget": 6,
		"filter": []obj{{"key": "color", "value": "red"}}}, &res)
	wantIDs(t, "color = red", res.ids(), []int{0, 2, 4})
	// Range filter: rank in [1,3].
	res = searchReply{}
	d.ok(t, "POST", geo, obj{"query": []float32{0, 0}, "k": 6, "budget": 6,
		"filter": []obj{{"key": "rank", "op": "range", "min": 1, "max": 3}}}, &res)
	wantIDs(t, "rank in [1,3]", res.ids(), []int{1, 2, 3})
	// Cursor drain, pages of 2, must equal the one-shot ranking.
	res = searchReply{}
	d.ok(t, "POST", geo, obj{"query": []float32{0, 0}, "k": 6, "budget": 6}, &res)
	oneShot := res.ids()
	var drained []int
	cursor, pages := "", 0
	for {
		body := obj{"query": []float32{0, 0}, "limit": 2, "budget": 6}
		if cursor != "" {
			body["cursor"] = cursor
		}
		res = searchReply{}
		d.ok(t, "POST", geo, body, &res)
		drained = append(drained, res.ids()...)
		pages++
		if cursor = res.NextCursor; cursor == "" {
			break
		}
	}
	wantIDs(t, "one-shot ranking", oneShot, []int{0, 1, 2, 3, 4, 5})
	wantIDs(t, "cursor drain", drained, oneShot)
	// 6 rows at limit=2: page 3 fills exactly, so exhaustion is only
	// detected by the empty 4th page (its response has no cursor).
	if pages != 4 {
		t.Fatalf("drained in %d pages, want 4", pages)
	}
	// The angular collection answers with its own metric.
	res = searchReply{}
	d.ok(t, "POST", "/v1/collections/ang/search", obj{"query": []float32{1, 0}, "k": 1}, &res)
	wantIDs(t, "angular nearest", res.ids(), []int{0})

	// Drop one collection; the other is untouched.
	d.ok(t, "DELETE", "/v1/collections/ang", nil, nil)
	if code := d.do(t, "POST", "/v1/collections/ang/search", obj{"query": []float32{1, 0}, "k": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("search on the dropped collection: HTTP %d, want 404", code)
	}
	var stats struct {
		Collections map[string]struct {
			Backend struct{ Vectors int }
		}
	}
	d.ok(t, "GET", "/v1/stats", nil, &stats)
	if _, ok := stats.Collections["ang"]; ok || stats.Collections["geo"].Backend.Vectors != 6 {
		t.Fatalf("after the drop, /v1/stats collections = %+v", stats.Collections)
	}
	res = searchReply{}
	d.ok(t, "POST", geo, obj{"query": []float32{0, 0}, "k": 1}, &res)
	wantIDs(t, "survivor", res.ids(), []int{0})
	d.stop(t, syscall.SIGTERM)
}

// TestProcessCrashRecovery is the durability contract end to end: start
// a durable lccs-serve, write over HTTP (to the default collection and
// to a created one), SIGKILL it, restart over the same data dir, and
// verify that every acknowledged write survived — inserts searchable,
// the delete still dead, the created collection's attributed rows intact
// and filterable. Then the graceful path: SIGTERM must checkpoint and
// truncate.
func TestProcessCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-data", dir, "-sync", "always")
	d.ok(t, "POST", "/v1/insert", obj{"vectors": [][]float32{{1, 0}, {0, 1}, {1, 1}, {5, 5}, {9, 9}}}, nil)
	d.ok(t, "POST", "/v1/delete", obj{"id": 3}, nil)
	d.ok(t, "POST", "/v1/collections", obj{"name": "tenant", "metric": "euclidean", "m": 8}, nil)
	d.ok(t, "POST", "/v1/collections/tenant/insert", obj{
		"vectors": [][]float32{{7, 7}, {8, 8}}, "attrs": []obj{{"t": "x"}, {"t": "y"}}}, nil)
	d.stop(t, syscall.SIGKILL)

	d = startDaemon(t, "-data", dir, "-sync", "always")
	var stats struct {
		Backend struct {
			Kind                string
			Vectors, Tombstones int
		}
		WAL struct{ Depth int }
	}
	d.ok(t, "GET", "/v1/stats", nil, &stats)
	if b := stats.Backend; b.Kind != "durable" || b.Vectors != 4 || b.Tombstones != 1 || stats.WAL.Depth != 6 {
		t.Fatalf("after kill -9: backend %+v, wal depth %d; want durable, 4 vectors (5 inserted, 1 deleted), 1 tombstone, depth 6",
			b, stats.WAL.Depth)
	}
	var res searchReply
	d.ok(t, "POST", "/v1/search", obj{"query": []float32{5, 5}, "k": 5}, &res)
	ids := res.ids()
	sort.Ints(ids)
	// The SIGKILLed inserts are all searchable and the delete stays dead.
	wantIDs(t, "recovered default collection", ids, []int{0, 1, 2, 4})
	res = searchReply{}
	d.ok(t, "POST", "/v1/collections/tenant/search", obj{"query": []float32{7, 7}, "k": 2, "budget": 2,
		"filter": []obj{{"key": "t", "value": "x"}}}, &res)
	wantIDs(t, "recovered tenant, filtered", res.ids(), []int{0})

	d.stop(t, syscall.SIGTERM)
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatalf("no MANIFEST after a graceful stop: %v\n%s", err, d.logs.String())
	}
	var man struct{ LSN, Generation int }
	if err := json.Unmarshal(raw, &man); err != nil || man.LSN != 6 || man.Generation != 1 {
		t.Fatalf("MANIFEST %s (%v), want lsn 6 generation 1", raw, err)
	}
	// The created collection checkpointed into its own data dir too.
	for _, name := range []string{"COLLECTION.json", "MANIFEST"} {
		if _, err := os.Stat(filepath.Join(dir, "collections", "tenant", name)); err != nil {
			t.Fatalf("tenant's %s: %v", name, err)
		}
	}
}

// TestProcessObservability is the tracing + metering surface end to end:
// boot lccs-serve over a two-segment index container with every request
// traced and a 1ns slow threshold, issue an explicitly traced query and a
// burst of plain traffic, and assert the span tree covers the whole
// lifecycle, the slow-query log captured it, EXPLAIN lists both shards,
// the per-stage histograms populated, pprof answers on the debug
// listener, the health windows and usage counters are non-zero after
// traffic, and /metrics parses as exposition text.
func TestProcessObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon")
	}
	if out, err := exec.Command(serveBin, "-version").Output(); err != nil || !strings.HasPrefix(string(out), "lccs-serve ") {
		t.Fatalf("lccs-serve -version: %q, %v", out, err)
	}
	spec, err := dataset.Preset("sift", 2000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "obs.ds")
	if err := ds.Save(data); err != nil {
		t.Fatal(err)
	}
	// Two segments: a dynamic index over the first half whose buffered
	// second half its snapshot builds as a segment of its own.
	dyn, err := lccs.NewDynamicIndex(ds.Data[:1000], lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 1}, len(ds.Data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.AddBatch(ds.Data[1000:]); err != nil {
		t.Fatal(err)
	}
	_, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "obs.lccs")
	if err := snap.Save(index); err != nil {
		t.Fatal(err)
	}
	debug := freeAddr(t)
	d := startDaemon(t, "-data", data, "-index", index, "-debug-addr", debug,
		"-trace-sample", "1", "-slow-threshold", "1ns", "-log-format", "json")
	query := func(v float32) []float32 {
		q := make([]float32, 128)
		for i := range q {
			q[i] = v
		}
		return q
	}

	var traced searchReply
	d.ok(t, "POST", "/v1/search", obj{"query": query(0), "k": 3, "trace": true}, &traced)
	if traced.RequestID == 0 {
		t.Fatal("traced response carries no request_id")
	}
	stages, shards := map[string]bool{}, map[int]bool{}
	var walk func(nodes []span, parent string)
	walk = func(nodes []span, parent string) {
		for _, n := range nodes {
			stages[n.Stage] = true
			if n.Stage == "shard_scan" && parent == "query" && n.Shard != nil {
				shards[*n.Shard] = true
			}
			walk(n.Children, n.Stage)
		}
	}
	walk(traced.Trace, "")
	for _, stage := range []string{"admission", "query", "shard_scan", "merge", "encode"} {
		if !stages[stage] {
			t.Errorf("span tree has no %s stage: %v", stage, stages)
		}
	}
	if !reflect.DeepEqual(shards, map[int]bool{0: true, 1: true}) {
		t.Errorf("shard ordinals under query = %v, want 0 and 1", shards)
	}
	// Plain traffic to populate the health ring and usage counters, plus
	// one explained query exercising the plan path.
	for i := 0; i < 8; i++ {
		d.ok(t, "POST", "/v1/search", obj{"query": query(1), "k": 3}, nil)
	}
	var explained searchReply
	d.ok(t, "POST", "/v1/search", obj{"query": query(2), "k": 3, "explain": true}, &explained)
	// EXPLAIN enumerates both shards with per-shard cost.
	if ex := explained.Explain; ex.Backend != "index" || len(ex.Shards) != 2 || ex.Shards[0].Shard+ex.Shards[1].Shard != 1 {
		t.Errorf("explain = %+v, want an index backend and shards 0 and 1", ex)
	}
	for _, sh := range explained.Explain.Shards {
		if sh.Comparisons <= 0 || sh.Bytes <= 0 {
			t.Errorf("explain shard %d reports no cost: %+v", sh.Shard, sh)
		}
	}

	var slow struct {
		Slow []struct {
			RequestID  uint64 `json:"request_id"`
			Collection string
		}
	}
	d.ok(t, "GET", "/v1/debug/slow", nil, &slow)
	if len(slow.Slow) == 0 || slow.Slow[0].RequestID == 0 || slow.Slow[0].Collection != "default" {
		t.Errorf("slow log = %+v, want an entry of the default collection with a request id", slow.Slow)
	}

	// The process document's health: two resolutions, and the short
	// window saw the traffic, the default collection's too.
	type window struct {
		Resolution            string
		Requests, Comparisons int64
		P50Ms                 float64 `json:"p50_ms"`
	}
	var health struct {
		Status      string
		Windows     []window
		Collections map[string]struct{ Windows []window }
	}
	d.ok(t, "GET", "/v1/stats", nil, &health)
	if health.Status != "ok" || len(health.Windows) < 2 || health.Windows[0].Resolution == health.Windows[1].Resolution {
		t.Fatalf("stats = %+v, want status ok and two resolutions", health)
	}
	if w := health.Windows[0]; w.Requests <= 0 || w.Comparisons <= 0 || w.P50Ms <= 0 {
		t.Errorf("short window is empty after traffic: %+v", w)
	}
	if ws := health.Collections["default"].Windows; len(ws) == 0 || ws[0].Requests <= 0 {
		t.Errorf("default collection's window is empty: %+v", health.Collections)
	}

	// Usage: cumulative counters metered the burst.
	var usage struct {
		Cumulative struct {
			Searches, Comparisons int64
			BytesScanned          int64 `json:"bytes_scanned"`
			CostUnits             int64 `json:"cost_units"`
		}
		Windows []window
	}
	d.ok(t, "GET", "/v1/collections/default/usage", nil, &usage)
	cum := usage.Cumulative
	if cum.Searches < 10 || cum.BytesScanned <= 0 || cum.Comparisons <= 0 {
		t.Errorf("usage counters did not meter the burst: %+v", cum)
	}
	if cum.CostUnits != cum.Comparisons+cum.BytesScanned/4 {
		t.Errorf("cost_units %d != comparisons %d + bytes_scanned %d / 4", cum.CostUnits, cum.Comparisons, cum.BytesScanned)
	}
	if len(usage.Windows) == 0 || usage.Windows[0].Requests <= 0 {
		t.Errorf("usage windows are empty: %+v", usage.Windows)
	}

	// Metrics: the exposition parses line by line and the histogram and
	// usage families are populated.
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|[+-]?Inf)$`)
	metric := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		metric[line[:i]], _ = strconv.ParseFloat(line[i+1:], 64)
	}
	for _, series := range []string{
		`lccs_stage_seconds_count{stage="shard_scan"}`,
		`lccs_request_seconds_count`,
		`lccs_collection_scan_bytes_total{collection="default"}`,
		`lccs_collection_cost_units_total{collection="default"}`,
	} {
		if metric[series] <= 0 {
			t.Errorf("/metrics: %s = %g, want > 0", series, metric[series])
		}
	}
	if !strings.Contains(string(raw), "lccs_build_info{") {
		t.Error("/metrics: lccs_build_info missing")
	}

	if resp, err = http.Get("http://" + debug + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on the debug listener: %v, %v", resp, err)
	}
	resp.Body.Close()
	d.stop(t, syscall.SIGTERM)
}

// TestProcessBootstrapOneShard: -bootstrap seeds a fresh data dir as one
// index shard over every row, with nothing left in the delta buffer,
// whatever the background builds were doing while the rows went in.
func TestProcessBootstrapOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon")
	}
	spec, err := dataset.Preset("sift", 10000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(t.TempDir(), "boot.ds")
	if err := ds.Save(data); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d := startDaemon(t, "-data", dir, "-bootstrap", data, "-m", "16", "-sync", "none")
	var stats struct {
		Backend struct{ Vectors, Shards, Buffered int }
	}
	d.ok(t, "GET", "/v1/stats", nil, &stats)
	if b := stats.Backend; b.Vectors != 10000 || b.Shards != 1 || b.Buffered != 0 {
		t.Fatalf("after -bootstrap: backend %+v, want 10000 vectors in 1 shard, 0 buffered\n%s", b, d.logs.String())
	}
	d.stop(t, syscall.SIGTERM)
}

// TestProcessIndexRefusesConfigFlags: a container carries its own m, λ
// and seed, so with -index an explicitly set -m, -lambda or -seed exits 2
// at startup, naming the flag, instead of being silently ignored; with
// none of them set (and -metric, which still selects the dataset's
// normalisation) the daemon serves the container.
func TestProcessIndexRefusesConfigFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon")
	}
	spec, err := dataset.Preset("sift", 300, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data, index := filepath.Join(dir, "ix.ds"), filepath.Join(dir, "ix.lccs")
	if err := ds.Save(data); err != nil {
		t.Fatal(err)
	}
	ix, err := lccs.NewIndex(ds.Data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(index); err != nil {
		t.Fatal(err)
	}
	for _, set := range [][2]string{{"m", "16"}, {"lambda", "400"}, {"seed", "1"}} {
		cmd := exec.Command(serveBin, "-addr", freeAddr(t), "-data", data, "-index", index, "-"+set[0], set[1])
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		select {
		case err := <-exited:
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("-index with -%s: exit %v, want status 2\n%s", set[0], err, stderr.String())
			} else if !strings.Contains(stderr.String(), "-"+set[0]+" ") {
				t.Errorf("-index with -%s: stderr does not name the flag: %q", set[0], stderr.String())
			}
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-exited
			t.Errorf("-index with -%s: still running after 20s, want an exit with status 2\n%s", set[0], stderr.String())
		}
	}
	d := startDaemon(t, "-data", data, "-index", index, "-metric", "euclidean")
	var stats struct {
		Backend struct{ Vectors int }
	}
	d.ok(t, "GET", "/v1/stats", nil, &stats)
	if stats.Backend.Vectors != 300 {
		t.Fatalf("served %d vectors, want 300", stats.Backend.Vectors)
	}
	d.stop(t, syscall.SIGTERM)
}
