package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lccs"
	"lccs/internal/engine"
)

// The tests in this file are black-box in the sense of Huang et al.'s
// checker (PAPERS.md): they drive the daemon's handler over HTTP and
// trust only what the client-visible stats surfaces say — the process
// document (/v1/stats), the collection document
// (/v1/collections/{name}/usage) and /metrics — then check that the
// surfaces cannot contradict each other, or the script that produced the
// traffic.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/*.golden from the running code (for an intentional surface change only)")

// surfaceFixture is the server the surface tests share: the layout
// `lccs-serve -data <dir>` arranges — a rooted registry whose root
// directory is the durable default collection — with the result cache
// on, one execution slot and no queue (so saturation is one parked
// request away), a per-collection share of one, and an adopted "gate"
// collection over a blockingBackend to park that request in.
type surfaceFixture struct {
	srv     *Server
	ts      *httptest.Server
	dur     *lccs.DynamicIndex
	gate    *blockingBackend
	data    [][]float32
	queries [][]float32
}

func newSurfaceFixture(t *testing.T) *surfaceFixture {
	t.Helper()
	f := &surfaceFixture{gate: &blockingBackend{started: make(chan struct{}, 64), gate: make(chan struct{})}}
	eng, err := engine.New(t.TempDir(), engine.Spec{Metric: "euclidean", M: 8, Seed: 7, BucketWidth: 4,
		RebuildAt: 64, SegmentBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	def, err := eng.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	f.dur = def.Dynamic()
	if _, err := eng.Adopt("gate", f.gate); err != nil {
		t.Fatal(err)
	}
	f.srv, f.ts = newTestServer(t, Config{Engine: eng, CacheSize: 64,
		MaxInFlight: 1, MaxQueue: -1, CollectionMaxInFlight: 1, Timeout: 10 * time.Second})
	f.data, f.queries = testWorkload(31, 120, 8)
	return f
}

// colorAttrs alternates red and blue and numbers the rows.
func colorAttrs(lo, hi int) []map[string]any {
	out := make([]map[string]any, hi-lo)
	for i := range out {
		out[i] = map[string]any{"color": []string{"red", "blue"}[(lo+i)%2], "rank": lo + i}
	}
	return out
}

// post sends body to path and requires the status code.
func (f *surfaceFixture) post(t *testing.T, path string, body any, want int) {
	t.Helper()
	if code := postJSON(t, f.ts, path, body, nil); code != want {
		t.Fatalf("POST %s: HTTP %d, want %d", path, code, want)
	}
}

// park sends one search into the gate collection and returns once it
// holds the server's only execution slot; the returned function opens
// the gate and waits for the parked request's 200.
func (f *surfaceFixture) park(t *testing.T) (open func()) {
	t.Helper()
	var wg sync.WaitGroup
	var once sync.Once
	openGate := func() { once.Do(func() { close(f.gate.gate) }) }
	t.Cleanup(openGate) // a failed test must not leave the server unable to close
	code := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		code = postJSON(t, f.ts, "/v1/collections/gate/search", searchRequest{Query: []float32{1}, K: 1}, nil)
	}()
	<-f.gate.started
	return func() {
		openGate()
		wg.Wait()
		if code != http.StatusOK {
			t.Fatalf("parked request: HTTP %d, want 200", code)
		}
	}
}

// scriptTruth is what driveMix did, counted by hand from the script.
type scriptTruth struct {
	inserts, deletes, searches, errors map[string]int64
	cacheHits, cacheMisses             uint64
	admissionRejected                  uint64
	quotaRejected                      map[string]uint64
	latencies                          uint64 // searches + batches answered 200
}

// driveMix runs the scripted traffic mix: inserts with attributes,
// misses, hits, filtered and cursor searches, a batch, 400s of every
// kind, deletes including missing ids, requests shed by the collection
// share and by the full admission controller, a cache hit served during
// saturation, an unknown collection and a wrong method.
func (f *surfaceFixture) driveMix(t *testing.T) scriptTruth {
	t.Helper()
	d, q := f.data, f.queries
	const def, ten = "/v1", "/v1/collections/tenant"

	// Writes. The first batch crosses RebuildAt, so after the wait the
	// default collection has a shard, and the second leaves a buffer.
	f.post(t, def+"/insert", insertRequest{Vectors: d[:80], Attrs: colorAttrs(0, 80)}, 200)
	f.dur.WaitRebuild()
	f.post(t, def+"/insert", insertRequest{Vectors: d[80:85]}, 200)
	f.post(t, "/v1/collections", map[string]any{"name": "tenant", "sync": "none"}, 201)
	f.post(t, ten+"/insert", insertRequest{Vectors: d[85:105], Attrs: colorAttrs(85, 105)}, 200)

	// Default collection reads: miss, hit, filtered miss, two cursor pages.
	f.post(t, def+"/search", searchRequest{Query: q[0], K: 3}, 200)
	f.post(t, def+"/search", searchRequest{Query: q[0], K: 3}, 200)
	f.post(t, def+"/search", searchRequest{Query: q[1], K: 3,
		Filter: []filterTermJSON{{Key: "color", Value: "red"}}}, 200)
	var page searchResponse
	if code := postJSON(t, f.ts, def+"/search", searchRequest{Query: q[2], Limit: 2}, &page); code != 200 || page.NextCursor == "" {
		t.Fatalf("first cursor page: HTTP %d, cursor %q", code, page.NextCursor)
	}
	f.post(t, def+"/search", searchRequest{Query: q[2], Limit: 2, Cursor: page.NextCursor}, 200)
	// 400s: k = 0 and a negative budget never reach the cache; a wrong
	// dimension does, and fails after its miss.
	f.post(t, def+"/search", searchRequest{Query: q[0], K: 0}, 400)
	f.post(t, def+"/search", searchRequest{Query: []float32{1, 2}, K: 3}, 400)
	f.post(t, def+"/search", searchRequest{Query: q[0], K: 3, Budget: -2}, 400)
	resp, err := http.Post(f.ts.URL+def+"/search", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
	f.post(t, def+"/search/batch", batchRequest{Queries: q[:4], K: 3}, 200)

	// Tenant reads: miss, hit, explained miss.
	f.post(t, ten+"/search", searchRequest{Query: q[3], K: 2}, 200)
	f.post(t, ten+"/search", searchRequest{Query: q[3], K: 2}, 200)
	f.post(t, ten+"/search", searchRequest{Query: q[4], K: 2, Explain: true}, 200)

	// Deletes: two live ids and a missing one, a single id, an empty body.
	f.post(t, def+"/delete", deleteRequest{IDs: []int{3, 4, 9999}}, 200)
	f.post(t, ten+"/delete", map[string]any{"id": 0}, 200)
	f.post(t, def+"/delete", deleteRequest{}, 400)

	// Saturation: with the only slot parked in the gate collection, the
	// gate's share sheds a second gate search, the full controller sheds
	// a default search (after its cache miss) and a default insert, and a
	// cached answer (primed after the deletes, which orphaned the earlier
	// entries) is still served.
	f.post(t, def+"/search", searchRequest{Query: q[6], K: 3}, 200)
	open := f.park(t)
	f.post(t, "/v1/collections/gate/search", searchRequest{Query: []float32{2}, K: 1}, 503)
	f.post(t, def+"/search", searchRequest{Query: q[5], K: 3}, 503)
	f.post(t, def+"/insert", insertRequest{Vectors: d[105:106]}, 503)
	f.post(t, def+"/search", searchRequest{Query: q[6], K: 3}, 200)
	open()

	// Requests that resolve to no collection.
	f.post(t, "/v1/collections/nosuch/search", searchRequest{Query: q[0], K: 3}, 404)
	if code := doJSON(t, f.ts, "GET", "/v1/search", nil, nil); code != 405 {
		t.Fatalf("GET /v1/search: HTTP %d, want 405", code)
	}

	return scriptTruth{
		inserts:           map[string]int64{"default": 85, "tenant": 20, "gate": 0},
		deletes:           map[string]int64{"default": 2, "tenant": 1, "gate": 0},
		searches:          map[string]int64{"default": 8, "tenant": 3, "gate": 1},
		errors:            map[string]int64{"default": 7, "tenant": 0, "gate": 1},
		cacheHits:         3,
		cacheMisses:       11,
		admissionRejected: 2,
		quotaRejected:     map[string]uint64{"default": 0, "tenant": 0, "gate": 1},
		latencies:         7 + 3 + 1 + 1,
	}
}

// ---- reading the surfaces ----

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	if code := doJSON(t, ts, "GET", path, nil, out); code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, code)
	}
}

// promSample is one sample line of a scrape.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is one parsed /metrics response: the comment lines as
// written and every sample.
type promScrape struct {
	meta    []string
	samples []promSample
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) promScrape {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p promScrape
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			p.meta = append(p.meta, line)
		default:
			name, labels, v, err := parseSample(line)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			p.samples = append(p.samples, promSample{name, labels, v})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// get returns the one sample of name whose label set is exactly the
// given key/value pairs.
func (p promScrape) get(t *testing.T, name string, kv ...string) float64 {
	t.Helper()
	found, val := 0, 0.0
	for _, s := range p.samples {
		if s.name != name || len(s.labels) != len(kv)/2 {
			continue
		}
		match := true
		for i := 0; i < len(kv); i += 2 {
			match = match && s.labels[kv[i]] == kv[i+1]
		}
		if match {
			found++
			val = s.value
		}
	}
	if found != 1 {
		t.Fatalf("scrape has %d samples of %s%v, want 1", found, name, kv)
	}
	return val
}

// sum adds every sample of name, whatever its labels.
func (p promScrape) sum(name string) float64 {
	total := 0.0
	for _, s := range p.samples {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// series returns the samples of name.
func (p promScrape) series(name string) []promSample {
	var out []promSample
	for _, s := range p.samples {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// bucketQuantile recomputes a quantile from a scraped histogram's
// cumulative buckets by the rule every surface documents: the upper
// bound of the bucket holding observation floor(q·N)+1, the top finite
// bound on overflow.
func (p promScrape) bucketQuantile(t *testing.T, family string, q float64) float64 {
	t.Helper()
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for _, s := range p.series(family + "_bucket") {
		le := math.Inf(1)
		if s.labels["le"] != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(s.labels["le"], 64); err != nil {
				t.Fatal(err)
			}
		}
		bs = append(bs, bucket{le, s.value})
	}
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	rank := math.Min(math.Floor(q*total)+1, total)
	for _, b := range bs[:len(bs)-1] {
		if b.cum >= rank {
			return b.le
		}
	}
	return bs[len(bs)-2].le
}

// familyLines returns the scrape's # HELP and # TYPE lines, sorted.
func (p promScrape) familyLines() []string {
	out := append([]string(nil), p.meta...)
	sort.Strings(out)
	return out
}

// jsonSurfaces are the two JSON stats documents; {name} expands to every
// loaded collection.
var jsonSurfaces = []string{
	"/v1/stats",
	"/v1/collections/{name}/usage",
}

// keyPaths adds the path of a decoded JSON value and of everything under
// it. Children of the maps keyed by data — "requests" by endpoint:code,
// "collections" by name — collapse to "*", array elements to "[]".
func keyPaths(prefix string, v any, out map[string]bool) {
	out[prefix] = true
	switch x := v.(type) {
	case map[string]any:
		dynamic := strings.HasSuffix(prefix, ".requests") || strings.HasSuffix(prefix, ".collections")
		for k, child := range x {
			if dynamic {
				k = "*"
			}
			keyPaths(prefix+"."+k, child, out)
		}
	case []any:
		for _, child := range x {
			keyPaths(prefix+"[]", child, out)
		}
	}
}

// surfaceKeyLines fetches the JSON documents and returns their
// recursive key sets as sorted "surface path" lines.
func surfaceKeyLines(t *testing.T, ts *httptest.Server, collections []string) []string {
	t.Helper()
	set := map[string]bool{}
	for _, surface := range jsonSurfaces {
		paths := []string{surface}
		if strings.Contains(surface, "{name}") {
			paths = paths[:0]
			for _, name := range collections {
				paths = append(paths, strings.Replace(surface, "{name}", name, 1))
			}
		}
		for _, path := range paths {
			var v any
			getJSON(t, ts, path, &v)
			keyPaths(surface+" $", v, set)
		}
	}
	lines := make([]string, 0, len(set))
	for line := range set {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

// checkGolden compares lines with testdata/<name>, rewriting the file
// under -update-golden.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := strings.Join(lines, "\n") + "\n"
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
		t.Fatalf("%s differs from the running code.\n--- golden\n%s--- got\n%s", path, want, got)
	}
}

// TestJSONSurfaceKeys pins the recursive key sets of the two JSON stats
// documents, after the scripted mix has populated every optional field,
// to the golden: no JSON field is added, removed or renamed unnoticed.
// No other path answers a stats document.
func TestJSONSurfaceKeys(t *testing.T) {
	f := newSurfaceFixture(t)
	f.driveMix(t)
	checkGolden(t, "json_keys.golden", surfaceKeyLines(t, f.ts, []string{"default", "tenant", "gate"}))
	for _, path := range []string{"/v1/usage", "/v1/debug/health", "/v1/collections/default/stats"} {
		if code := doJSON(t, f.ts, "GET", path, nil, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, code)
		}
	}
}

// ---- the surfaces agree ----

// eq fails the test unless every value equals the first.
func eq[T comparable](t *testing.T, what string, vals ...T) {
	t.Helper()
	for _, v := range vals[1:] {
		if v != vals[0] {
			t.Errorf("%s: surfaces disagree: %v", what, vals)
			return
		}
	}
}

// codeOf splits an "endpoint:code" request key.
func codeOf(t *testing.T, key string) (endpoint string, code int) {
	t.Helper()
	i := strings.LastIndexByte(key, ':')
	code, err := strconv.Atoi(key[i+1:])
	if err != nil {
		t.Fatalf("request key %q: %v", key, err)
	}
	return key[:i], code
}

// selfReporting are the endpoints the checks themselves call: their
// counts move between two reads, so they are compared nowhere.
var selfReporting = map[string]bool{"stats": true, "metrics": true}

// TestSurfacesAgree drives the scripted mix and then, through HTTP only,
// requires every number the JSON documents and /metrics both export to
// be equal on both — and equal to what the script did. The second half
// takes scrapes while writers insert and delete, and requires each
// scrape to add up within itself.
func TestSurfacesAgree(t *testing.T) {
	f := newSurfaceFixture(t)
	truth := f.driveMix(t)
	t.Run("quiescent", func(t *testing.T) { f.checkSurfacesAgree(t, truth) })
	t.Run("concurrent", func(t *testing.T) { f.checkScrapesAddUp(t) })
}

// checkSurfacesAgree reads every surface once, with no traffic running,
// and compares them with each other and with the script's own count.
func (f *surfaceFixture) checkSurfacesAgree(t *testing.T, truth scriptTruth) {
	names := []string{"default", "gate", "tenant"}

	var st Stats
	getJSON(t, f.ts, "/v1/stats", &st)
	docs := map[string]CollectionStats{}
	for _, n := range names {
		var cd CollectionStats
		getJSON(t, f.ts, "/v1/collections/"+n+"/usage", &cd)
		docs[n] = cd
	}
	m := scrapeMetrics(t, f.ts)
	if len(st.Collections) != len(names) {
		t.Fatalf("/v1/stats lists %d collections, want %d", len(st.Collections), len(names))
	}
	whole, wholeLong := st.Windows[0], st.Windows[1]

	// Per collection: its document inside /v1/stats and at its own path
	// (one assembly; only the self-reporting request counts move between
	// the two reads), writes, searches, errors, cache, admission, backend.
	var sumIns, sumDel, sumVec, sumTomb int64
	var sumHits, sumMisses, sumQuota, sumRingRejected uint64
	var sumUse engine.UsageSnapshot
	for _, n := range names {
		sc, cd := st.Collections[n], docs[n]
		u, w := cd.Cumulative, cd.Windows[0]
		lbl := []string{"collection", n}
		eq(t, n+" name", n, sc.Collection, cd.Collection)
		eq(t, n+" cumulative", sc.Cumulative, cd.Cumulative)
		eq(t, n+" windows", len(healthWindows), len(sc.Windows), len(cd.Windows))
		for i := range sc.Windows {
			eq(t, n+" window "+sc.Windows[i].Window, sc.Windows[i], cd.Windows[i])
		}
		eq(t, n+" inserts", truth.inserts[n], u.Inserts, int64(m.get(t, "lccs_collection_inserts_total", lbl...)))
		eq(t, n+" deletes", truth.deletes[n], u.Deletes, int64(m.get(t, "lccs_collection_deletes_total", lbl...)))
		var failed, ok200 int64
		for key, cnt := range sc.Requests {
			if endpoint, code := codeOf(t, key); code >= 400 {
				failed += int64(cnt)
			} else if endpoint == "search" || endpoint == "search_batch" {
				ok200 += int64(cnt)
			}
		}
		eq(t, n+" errors", truth.errors[n], failed, u.Errors,
			int64(m.get(t, "lccs_collection_errors_total", lbl...)),
			int64(w.Errors+w.Rejected))
		eq(t, n+" searches", truth.searches[n], ok200, u.Searches,
			int64(m.get(t, "lccs_collection_searches_total", lbl...)))
		eq(t, n+" cache hits", u.CacheHits, int64(m.get(t, "lccs_collection_cache_hits_total", lbl...)),
			int64(w.CacheHits), int64(cd.Windows[1].CacheHits))
		eq(t, n+" cache misses", u.CacheMisses, int64(m.get(t, "lccs_collection_cache_misses_total", lbl...)),
			int64(w.CacheMisses), int64(cd.Windows[1].CacheMisses))
		eq(t, n+" comparisons", u.Comparisons, w.Comparisons)
		eq(t, n+" scan bytes", u.BytesScanned, w.BytesScanned,
			int64(m.get(t, "lccs_collection_scan_bytes_total", lbl...)))
		eq(t, n+" cost units", u.CostUnits, u.Comparisons+u.BytesScanned/4,
			int64(m.get(t, "lccs_collection_cost_units_total", lbl...)))
		eq(t, n+" filter rejected", u.FilterRejected,
			int64(m.get(t, "lccs_collection_filter_rejected_total", lbl...)))
		eq(t, n+" wal bytes", u.WALBytes, w.WALBytes,
			int64(m.get(t, "lccs_collection_wal_appended_bytes_total", lbl...)))
		eq(t, n+" quota rejected", truth.quotaRejected[n], sc.QuotaRejected, cd.QuotaRejected,
			uint64(m.get(t, "lccs_collection_quota_rejected_total", lbl...)))
		eq(t, n+" in flight", 0, sc.InFlight, cd.InFlight, int64(m.get(t, "lccs_collection_inflight", lbl...)))
		eq(t, n+" backend", sc.Backend, cd.Backend)
		eq(t, n+" vectors", sc.Backend.Vectors, int(m.get(t, "lccs_collection_vectors", lbl...)))
		eq(t, n+" tombstones", sc.Backend.Tombstones, int(m.get(t, "lccs_collection_tombstones", lbl...)))
		// The collection's window saw every data-plane request it was not
		// shed from; a shed request is `rejected` and nothing else.
		var served uint64
		for key, cnt := range sc.Requests {
			if endpoint, _ := codeOf(t, key); !selfReporting[endpoint] {
				served += cnt
			}
		}
		eq(t, n+" window requests", served, w.Requests+w.Rejected)
		for key, cnt := range sc.Requests {
			endpoint, code := codeOf(t, key)
			if selfReporting[endpoint] {
				continue
			}
			eq(t, n+" requests "+key, cnt, cd.Requests[key], uint64(m.get(t, "lccs_requests_total",
				"collection", n, "endpoint", endpoint, "code", strconv.Itoa(code))))
		}

		// The journal: present on the two durable collections, in both
		// documents, with one depth and one fsync count; the journal's own
		// appended-bytes counter is the usage counters' wal_bytes.
		if n == "gate" {
			if sc.WAL != nil || cd.WAL != nil {
				t.Errorf("gate has no journal, yet a document reports one")
			}
		} else {
			if sc.WAL == nil || cd.WAL == nil {
				t.Fatalf("%s: journal missing from a document", n)
			}
			eq(t, n+" wal", *sc.WAL, *cd.WAL)
			eq(t, n+" wal depth", sc.WAL.Depth, uint64(m.get(t, "lccs_collection_wal_depth_records", lbl...)))
			c, err := f.srv.eng.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			eq(t, n+" wal appended", c.Dynamic().WALStats().AppendedBytes, u.WALBytes)
		}
		sumIns, sumDel = sumIns+u.Inserts, sumDel+u.Deletes
		sumVec, sumTomb = sumVec+int64(sc.Backend.Vectors), sumTomb+int64(sc.Backend.Tombstones)
		sumHits, sumMisses = sumHits+uint64(u.CacheHits), sumMisses+uint64(u.CacheMisses)
		sumQuota, sumRingRejected = sumQuota+sc.QuotaRejected, sumRingRejected+w.Rejected
		sumUse.Add(u)
	}

	// Server-wide: the sums, the cache, admission, the default's journal.
	eq(t, "usage total", st.Total, sumUse)
	eq(t, "inserts", sumIns, st.Total.Inserts, int64(m.get(t, "lccs_inserts_total")))
	eq(t, "deletes", sumDel, st.Total.Deletes, int64(m.get(t, "lccs_deletes_total")))
	eq(t, "vectors", sumVec, int64(m.get(t, "lccs_index_vectors")))
	eq(t, "tombstones", sumTomb, int64(m.get(t, "lccs_index_tombstones")))
	eq(t, "cache hits", truth.cacheHits, sumHits, uint64(st.Total.CacheHits),
		uint64(m.get(t, "lccs_cache_hits_total")), whole.CacheHits, wholeLong.CacheHits)
	eq(t, "cache misses", truth.cacheMisses, sumMisses, uint64(st.Total.CacheMisses),
		uint64(m.get(t, "lccs_cache_misses_total")), whole.CacheMisses, wholeLong.CacheMisses)
	eq(t, "cache hit rate", float64(truth.cacheHits)/float64(truth.cacheHits+truth.cacheMisses), st.Cache.HitRate)
	eq(t, "cache evictions", st.Cache.Evictions, uint64(m.get(t, "lccs_cache_evictions_total")))
	eq(t, "cache entries", st.Cache.Entries, int(m.get(t, "lccs_cache_entries")))
	eq(t, "admission rejected", truth.admissionRejected, st.Rejected,
		uint64(m.get(t, "lccs_admission_rejected_total")))
	eq(t, "admission timeouts", 0, st.WaitTimeouts, uint64(m.get(t, "lccs_admission_wait_timeouts_total")))
	eq(t, "in flight", 0, st.InFlight, int(m.get(t, "lccs_inflight_requests")))
	eq(t, "queue depth", 0, st.QueueDepth, int64(m.get(t, "lccs_admission_queue_depth")))
	eq(t, "shed requests", st.Rejected+st.WaitTimeouts+sumQuota, whole.Rejected, wholeLong.Rejected, sumRingRejected)
	eq(t, "status", "ok", st.Status)
	eq(t, "slo", sloBurn(st.Windows), st.SLO)
	eq(t, "default backend", st.Backend, st.Collections["default"].Backend)
	eq(t, "default wal", *st.WAL, *st.Collections["default"].WAL)
	eq(t, "default wal depth", st.WAL.Depth, uint64(m.get(t, "lccs_wal_depth_records")))
	eq(t, "default wal fsyncs", st.WAL.Fsyncs, uint64(m.get(t, "lccs_wal_fsyncs_total")))
	eq(t, "default wal synced lsn", st.WAL.SyncedLSN, uint64(m.get(t, "lccs_wal_synced_lsn")))
	if st.WAL.Fsyncs == 0 || st.WAL.Depth == 0 || st.Backend.Shards == 0 || st.Backend.Buffered == 0 || st.Backend.Tombstones == 0 {
		t.Errorf("fixture left a compared figure at zero: wal %+v backend %+v", *st.WAL, st.Backend)
	}

	// Requests by endpoint and code: the aggregate map is the sum of the
	// collections' maps plus the server-scoped series, and the scrape
	// carries the same counts.
	byKey := map[string]uint64{}
	for _, s := range m.series("lccs_requests_total") {
		if !selfReporting[s.labels["endpoint"]] {
			byKey[s.labels["endpoint"]+":"+s.labels["code"]] += uint64(s.value)
		}
	}
	var errs, ringed uint64
	for key, cnt := range st.Requests {
		endpoint, code := codeOf(t, key)
		if selfReporting[endpoint] {
			continue
		}
		eq(t, "requests "+key, cnt, byKey[key])
		delete(byKey, key)
		switch {
		case code >= 400:
			errs += cnt
			ringed += cnt
		case endpoint == "search" || endpoint == "search_batch" || endpoint == "insert" || endpoint == "delete":
			ringed += cnt
		}
	}
	if len(byKey) != 0 {
		t.Errorf("/metrics counts requests /v1/stats does not: %v", byKey)
	}
	eq(t, "window requests", ringed, whole.Requests+whole.Rejected, wholeLong.Requests+wholeLong.Rejected)
	eq(t, "window errors", errs, whole.Errors+whole.Rejected, wholeLong.Errors+wholeLong.Rejected)
	eq(t, "unknown collection", 1, st.Requests["search:404"],
		uint64(m.get(t, "lccs_requests_total", "endpoint", "search", "code", "404")))

	// Latency: one histogram behind /v1/stats and lccs_request_seconds,
	// read by the rule the health windows use, one observation per
	// answered search.
	eq(t, "latency count", truth.latencies, uint64(st.Total.Searches), uint64(m.get(t, "lccs_request_seconds_count")),
		st.Requests["search:200"]+st.Requests["search_batch:200"])
	eq(t, "latency p50", st.Latency.P50Ms, m.bucketQuantile(t, "lccs_request_seconds", 0.50)*1000)
	eq(t, "latency p99", st.Latency.P99Ms, m.bucketQuantile(t, "lccs_request_seconds", 0.99)*1000)
}

// checkScrapesAddUp takes scrapes of /metrics and /v1/stats while two
// writers insert and delete, and requires every scrape to add up within
// itself: a total is the sum of the per-collection series beside it (the
// fixture drops no collection, so no retired counts add in;
// TestCountersSurviveDrop covers those), and the default collection's
// figures are the same wherever one response repeats them.
func (f *surfaceFixture) checkScrapesAddUp(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, base := range []string{"/v1", "/v1/collections/tenant"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var ins insertResponse
				code := postJSON(t, f.ts, base+"/insert", insertRequest{Vectors: f.data[i%100 : i%100+1]}, &ins)
				if code == http.StatusOK && i%2 == 1 {
					postJSON(t, f.ts, base+"/delete", deleteRequest{IDs: ins.IDs}, nil)
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	// The window in which a source read twice can move is microseconds
	// wide, so it takes many scrapes to hit one: up to 1 500, for at most
	// three seconds.
	for i, deadline := 0, time.Now().Add(3*time.Second); i < 1500 && time.Now().Before(deadline); i++ {
		m := scrapeMetrics(t, f.ts)
		eq(t, "scrape inserts", m.get(t, "lccs_inserts_total"), m.sum("lccs_collection_inserts_total"))
		eq(t, "scrape deletes", m.get(t, "lccs_deletes_total"), m.sum("lccs_collection_deletes_total"))
		eq(t, "scrape vectors", m.get(t, "lccs_index_vectors"), m.sum("lccs_collection_vectors"))
		eq(t, "scrape tombstones", m.get(t, "lccs_index_tombstones"), m.sum("lccs_collection_tombstones"))
		eq(t, "scrape wal depth", m.get(t, "lccs_wal_depth_records"),
			m.get(t, "lccs_collection_wal_depth_records", "collection", "default"))
		if i%10 != 0 && !t.Failed() {
			continue
		}

		var st Stats
		getJSON(t, f.ts, "/v1/stats", &st)
		var sum engine.UsageSnapshot
		for _, c := range st.Collections {
			sum.Add(c.Cumulative)
		}
		eq(t, "stats total", st.Total, sum)
		eq(t, "stats backend", st.Backend, st.Collections["default"].Backend)
		eq(t, "stats wal", *st.WAL, *st.Collections["default"].WAL)
		if t.Failed() {
			t.Fatalf("scrape %d does not add up", i)
		}
	}
}

// TestLatencySurfacesAgree: on a server whose whole traffic is searches,
// the request histogram and the health rings hold the same observations,
// so /v1/stats' latency and every window covering the run — the
// server's and the collection's — report the same count and the same
// p50 and p99, to the digit: they share one quantile rule.
func TestLatencySurfacesAgree(t *testing.T) {
	data, queries := testWorkload(32, 300, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 8})
	for i := 0; i < 40; i++ {
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i%7], K: 3, Budget: 50 + 50*(i%5)}, nil); code != 200 {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
	}
	if code := postJSON(t, ts, "/v1/search/batch", batchRequest{Queries: queries, K: 3}, nil); code != 200 {
		t.Fatalf("batch: HTTP %d", code)
	}
	var st Stats
	getJSON(t, ts, "/v1/stats", &st)
	m := scrapeMetrics(t, ts)
	for _, w := range append(st.Windows, st.Collections["default"].Windows...) {
		eq(t, w.Window+" latency count", 41, uint64(st.Total.Searches), w.Requests, uint64(m.get(t, "lccs_request_seconds_count")))
		eq(t, w.Window+" p50", st.Latency.P50Ms, w.P50Ms, m.bucketQuantile(t, "lccs_request_seconds", 0.50)*1000)
		eq(t, w.Window+" p99", st.Latency.P99Ms, w.P99Ms, m.bucketQuantile(t, "lccs_request_seconds", 0.99)*1000)
	}
	if st.Latency.P50Ms <= 0 || st.Latency.P99Ms < st.Latency.P50Ms {
		t.Fatalf("latency quantiles: %+v", st.Latency)
	}
}

// ---- the three counting fixes ----

// TestShedRequestCountedOnce: a request shed by admission is `rejected`
// in the health rings and nothing else there — not a served request, not
// an error, no SLO burn — while the request counter, the collection's
// error counter and its quota counter still see it.
func TestShedRequestCountedOnce(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Backend: backend, MaxInFlight: 4, MaxQueue: 4,
		CollectionMaxInFlight: 1, Timeout: 10 * time.Second})
	var once sync.Once
	open := func() { once.Do(func() { close(backend.gate) }) }
	t.Cleanup(open) // a failed test must not leave the server unable to close
	req := searchRequest{Query: []float32{1}, K: 1}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts, "/v1/search", req, nil)
	}()
	<-backend.started // one request parked in the backend, holding the share

	const shed = 3
	for i := 0; i < shed; i++ {
		if code := postJSON(t, ts, "/v1/search", req, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("over-share request %d: HTTP %d, want 503", i, code)
		}
	}
	var st Stats
	getJSON(t, ts, "/v1/stats", &st)
	for _, w := range append(st.Windows, st.Collections["default"].Windows...) {
		if w.Rejected != shed || w.Requests != 0 || w.Errors != 0 || w.ErrorRate != 0 {
			t.Fatalf("window %s/%s: rejected %d requests %d errors %d error_rate %g, want %d/0/0/0",
				w.Window, w.Resolution, w.Rejected, w.Requests, w.Errors, w.ErrorRate, shed)
		}
	}
	if st.SLO.State != "ok" || st.SLO.BurnRate1m != 0 {
		t.Fatalf("shed load burns the SLO budget: %+v", st.SLO)
	}
	// The cumulative counters still count every 503.
	var cd CollectionStats
	getJSON(t, ts, "/v1/collections/default/usage", &cd)
	m := scrapeMetrics(t, ts)
	eq(t, "503s", shed, st.Requests["search:503"], uint64(cd.Cumulative.Errors),
		cd.QuotaRejected,
		uint64(m.get(t, "lccs_requests_total", "collection", "default", "endpoint", "search", "code", "503")))

	open()
	wg.Wait()
	getJSON(t, ts, "/v1/stats", &st)
	if w := st.Windows[0]; w.Requests != 1 || w.Rejected != shed || w.Errors != 0 {
		t.Fatalf("after the gate opens: requests %d rejected %d errors %d, want 1/%d/0", w.Requests, w.Rejected, w.Errors, shed)
	}
}

// TestCacheOutcomeOnEveryExit: a cache probe is counted where it
// happens, whatever the request does next. Over two collections and a
// mix of hit, miss-then-200, miss-then-400 and miss-then-503, the global
// cache counters equal the per-collection sums on every surface.
func TestCacheOutcomeOnEveryExit(t *testing.T) {
	eng := newTestEngine(t)
	gate := &blockingBackend{started: make(chan struct{}, 8), gate: make(chan struct{})}
	if _, err := eng.Adopt("gate", gate); err != nil {
		t.Fatal(err)
	}
	f := &surfaceFixture{gate: gate}
	f.srv, f.ts = newTestServer(t, Config{Engine: eng, CacheSize: 32, MaxInFlight: 1, MaxQueue: -1,
		Timeout: 10 * time.Second})
	data, queries := testWorkload(33, 40, 8)
	f.post(t, "/v1/collections", createCollectionRequest{Name: "a"}, 201)
	f.post(t, "/v1/collections", createCollectionRequest{Name: "b"}, 201)
	f.post(t, "/v1/collections/a/insert", insertRequest{Vectors: data[:20]}, 200)
	f.post(t, "/v1/collections/b/insert", insertRequest{Vectors: data[20:]}, 200)

	search := func(coll string, q []float32, want int) {
		t.Helper()
		f.post(t, "/v1/collections/"+coll+"/search", searchRequest{Query: q, K: 3}, want)
	}
	search("a", queries[0], 200)         // miss, then 200
	search("a", queries[0], 200)         // hit
	search("a", []float32{1, 2}, 400)    // miss, then 400: wrong dimension
	search("b", queries[1], 200)         // miss, then 200
	search("b", []float32{1, 2, 3}, 400) // miss, then 400
	open := f.park(t)                    // gate: miss, then (later) 200
	search("a", queries[2], 503)         // miss, then shed
	search("b", queries[1], 200)         // hit, served while saturated
	open()

	var st Stats
	getJSON(t, f.ts, "/v1/stats", &st)
	m := scrapeMetrics(t, f.ts)
	want := map[string][2]int64{"a": {1, 3}, "b": {1, 2}, "gate": {0, 1}} // hits, misses
	for name, hm := range want {
		var cd CollectionStats
		getJSON(t, f.ts, "/v1/collections/"+name+"/usage", &cd)
		eq(t, name+" cache hits", hm[0], cd.Cumulative.CacheHits, st.Collections[name].Cumulative.CacheHits,
			int64(m.get(t, "lccs_collection_cache_hits_total", "collection", name)), int64(cd.Windows[0].CacheHits))
		eq(t, name+" cache misses", hm[1], cd.Cumulative.CacheMisses, st.Collections[name].Cumulative.CacheMisses,
			int64(m.get(t, "lccs_collection_cache_misses_total", "collection", name)), int64(cd.Windows[0].CacheMisses))
	}
	eq(t, "cache hits", 2, uint64(st.Total.CacheHits),
		uint64(m.get(t, "lccs_cache_hits_total")), uint64(m.sum("lccs_collection_cache_hits_total")))
	eq(t, "cache misses", 6, uint64(st.Total.CacheMisses),
		uint64(m.get(t, "lccs_cache_misses_total")), uint64(m.sum("lccs_collection_cache_misses_total")))
}

// TestRequestLabelCardinality: a request that resolves to no collection
// is counted under the server-scoped series, so neither the request map
// nor the scrape grows with names a client makes up, and no label value
// ever comes from the request path. A thousand unknown names and ten
// hostile ones leave exactly the series that one of each leaves.
func TestRequestLabelCardinality(t *testing.T) {
	hostile := []string{
		"bad%22name%0Ax", "back%5Cslash", "tab%09inside", "sp%20ace", "uni%E2%98%83code",
		"%7Bbrace%7D", "eq%3Dsign", "comma%2Cname", "-leading-dash",
		strings.Repeat("x", 65),
	}
	drive := func(valid, bad []string) (*Server, promScrape) {
		srv, ts := newCollServer(t, Config{})
		body, _ := json.Marshal(searchRequest{Query: []float32{1, 2}, K: 1})
		post := func(name string, want int) {
			t.Helper()
			resp, err := http.Post(ts.URL+"/v1/collections/"+name+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("collection %q: HTTP %d, want %d", name, resp.StatusCode, want)
			}
		}
		for _, name := range valid {
			post(name, http.StatusNotFound)
		}
		for _, name := range bad {
			post(name, http.StatusBadRequest)
		}
		return srv, scrapeMetrics(t, ts)
	}
	valid := make([]string, 1000)
	for i := range valid {
		valid[i] = fmt.Sprintf("nosuch-%04d_%x", i, i*2654435761)
	}
	control, controlScrape := drive(valid[:1], hostile[:1])
	srv, scrape := drive(valid, hostile)

	count := func(s *Server) int { return len(s.met.requests.Snapshot()) }
	if got, want := count(srv), count(control); got != want {
		t.Errorf("request map holds %d keys after 1 010 made-up names, %d after two", got, want)
	}
	series := scrape.series("lccs_requests_total")
	if got, want := len(series), len(controlScrape.series("lccs_requests_total")); got != want {
		t.Errorf("scrape has %d lccs_requests_total series after 1 010 made-up names, %d after two", got, want)
	}
	for _, s := range series {
		if name, ok := s.labels["collection"]; ok {
			t.Errorf("request for an unloaded collection minted the label value %q", name)
			break
		}
	}
	eq(t, "404s", 1000, scrape.get(t, "lccs_requests_total", "endpoint", "search", "code", "404"))
	eq(t, "400s", 10, scrape.get(t, "lccs_requests_total", "endpoint", "search", "code", "400"))
}
