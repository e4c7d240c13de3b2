package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/obs"
)

// TestUsageEndpoints drives metered traffic over a durable backend and
// checks both usage views: the collection document's cumulative counters
// (with WAL bytes) and the process document's total.
func TestUsageEndpoints(t *testing.T) {
	dir := t.TempDir()
	data, queries := testWorkload(21, 200, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di, CacheSize: 16})

	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	if code := postJSON(t, ts, "/v1/delete", map[string]any{"ids": []int{3}}, nil); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i], K: 3}, nil); code != http.StatusOK {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
	}
	// Repeat the first query: a cache hit still counts as a search.
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 3}, nil); code != http.StatusOK {
		t.Fatal("repeat search failed")
	}

	var ur CollectionStats
	if code := doJSON(t, ts, "GET", "/v1/collections/default/usage", nil, &ur); code != http.StatusOK {
		t.Fatalf("collection usage: HTTP %d", code)
	}
	cu := ur.Cumulative
	if ur.Collection != "default" {
		t.Fatalf("collection = %q", ur.Collection)
	}
	if cu.Searches != 6 {
		t.Fatalf("searches = %d, want 6", cu.Searches)
	}
	if cu.Inserts != int64(len(data)) || cu.Deletes != 1 {
		t.Fatalf("inserts/deletes = %d/%d, want %d/1", cu.Inserts, cu.Deletes, len(data))
	}
	if cu.Comparisons <= 0 || cu.Candidates <= 0 || cu.BytesScanned <= 0 {
		t.Fatalf("cost counters empty: %+v", cu)
	}
	if cu.CostUnits != cu.Comparisons+cu.BytesScanned/4 {
		t.Fatalf("cost units %d, want %d", cu.CostUnits, cu.Comparisons+cu.BytesScanned/4)
	}
	if cu.CacheHits != 1 || cu.CacheMisses != 5 {
		t.Fatalf("cache = %d hits / %d misses, want 1/5", cu.CacheHits, cu.CacheMisses)
	}
	if cu.WALBytes <= 0 {
		t.Fatalf("wal bytes = %d, want > 0", cu.WALBytes)
	}
	if ur.WAL == nil || di.WALStats().AppendedBytes < cu.WALBytes {
		t.Fatalf("wal stats missing or inconsistent: %+v, journal %d bytes vs usage %d",
			ur.WAL, di.WALStats().AppendedBytes, cu.WALBytes)
	}
	// Windowed rates at both resolutions; the traffic just ran, so the
	// short window must see it.
	if len(ur.Windows) != 2 || ur.Windows[0].Resolution != "1s" || ur.Windows[1].Resolution != "1m" {
		t.Fatalf("windows = %+v, want [1s, 1m] resolutions", ur.Windows)
	}
	if ur.Windows[0].Requests == 0 || ur.Windows[0].BytesScanned <= 0 {
		t.Fatalf("short window empty: %+v", ur.Windows[0])
	}

	// The process total sums to the same figures for a single tenant.
	var st Stats
	if code := doJSON(t, ts, "GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if st.Total != st.Collections["default"].Cumulative {
		t.Fatalf("process total %+v != default %+v", st.Total, st.Collections["default"].Cumulative)
	}
	if st.Total.Searches != cu.Searches || st.Total.BytesScanned < cu.BytesScanned {
		t.Fatalf("process total drifted from collection: %+v vs %+v", st.Total, cu)
	}

	// The same counters surface as per-collection Prometheus families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := map[string]bool{
		"lccs_collection_searches_total":           false,
		"lccs_collection_scan_bytes_total":         false,
		"lccs_collection_cost_units_total":         false,
		"lccs_collection_wal_appended_bytes_total": false,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for fam := range want {
			if strings.HasPrefix(line, fam+`{collection="default"}`) && !strings.HasSuffix(line, " 0") {
				want[fam] = true
			}
		}
	}
	for fam, ok := range want {
		if !ok {
			t.Errorf("metrics missing non-zero %s{collection=\"default\"}", fam)
		}
	}
}

// TestStatsHealthWindows exercises the process document's windowed
// health: RED and usage figures at two resolutions, the SLO burn
// indicator, status and uptime, the collection's windows, and its
// journal.
func TestStatsHealthWindows(t *testing.T) {
	dir := t.TempDir()
	data, queries := testWorkload(22, 200, 8)
	di := openDurableBackend(t, dir)
	_, ts := newTestServer(t, Config{Backend: di})

	if code := postJSON(t, ts, "/v1/insert", insertRequest{Vectors: data}, nil); code != http.StatusOK {
		t.Fatal("insert failed")
	}
	for i := 0; i < 8; i++ {
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i], K: 3}, nil); code != http.StatusOK {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
	}
	// One failing request: counted as an error, without a latency sample.
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: -1}, nil); code != http.StatusBadRequest {
		t.Fatal("bad search did not 400")
	}

	var st Stats
	if code := doJSON(t, ts, "GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if st.Status != "ok" || st.UptimeSeconds < 0 {
		t.Fatalf("status/uptime: %+v", st)
	}
	if len(st.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(st.Windows))
	}
	short, long := st.Windows[0], st.Windows[1]
	if short.Resolution != "1s" || long.Resolution != "1m" {
		t.Fatalf("resolutions = %q/%q, want 1s/1m", short.Resolution, long.Resolution)
	}
	// Both resolutions see the traffic that just ran: requests, errors,
	// latency, and usage are all non-zero.
	if short.Requests == 0 || long.Requests == 0 {
		t.Fatalf("windows empty: short %d, long %d requests", short.Requests, long.Requests)
	}
	if short.Errors == 0 || long.Errors == 0 {
		t.Fatalf("error not visible: short %d, long %d", short.Errors, long.Errors)
	}
	if short.P50Ms <= 0 || short.MeanMs <= 0 {
		t.Fatalf("latency empty: %+v", short)
	}
	if short.Comparisons <= 0 || short.BytesScanned <= 0 || short.WALBytes <= 0 {
		t.Fatalf("usage empty in window: %+v", short)
	}
	if short.ErrorRate <= 0 || short.RPS <= 0 {
		t.Fatalf("rates empty: %+v", short)
	}
	// The SLO indicator reflects the induced error rate (1/10 >> 0.1%
	// budget in both windows → burning).
	if st.SLO.Target != 0.999 {
		t.Fatalf("slo target = %g", st.SLO.Target)
	}
	if st.SLO.BurnRate1m <= 1 || st.SLO.State != "burning" {
		t.Fatalf("slo = %+v, want burning with rate > 1", st.SLO)
	}
	// The collection's windows and journal: the fsync lag is the
	// difference of two LSNs the journal reports.
	cd, ok := st.Collections["default"]
	if !ok || len(cd.Windows) != 2 || cd.Windows[0].Requests == 0 {
		t.Fatalf("collection window missing/empty: %+v", st.Collections)
	}
	if cd.WAL == nil || cd.WAL.LastLSN < cd.WAL.SyncedLSN || cd.WAL.Depth == 0 || cd.Cumulative.WALBytes <= 0 {
		t.Fatalf("wal = %+v, wal bytes %d", cd.WAL, cd.Cumulative.WALBytes)
	}
}

// TestExplainSearch checks the resolved query plan over a multi-segment
// backend: every shard enumerated with its own comparisons, candidates,
// and bytes, the whole-query cost record, and the cache outcome across
// a miss/hit pair.
func TestExplainSearch(t *testing.T) {
	data, queries := testWorkload(23, 400, 8)
	sx := segmentedIndex(t, data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 9}, 3)
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 16})

	var got searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 5, Explain: true}, &got); code != http.StatusOK {
		t.Fatalf("explain search: HTTP %d", code)
	}
	e := got.Explain
	if e == nil {
		t.Fatal("response missing explain")
	}
	if got.RequestID == 0 {
		t.Fatal("explain response missing request_id")
	}
	// Explain implies an internal trace but must not leak the span tree.
	if len(got.Trace) != 0 {
		t.Fatal("explain leaked the span tree without trace:true")
	}
	if e.Collection != "default" || e.Backend != "index" || e.K != 5 {
		t.Fatalf("plan header: %+v", e)
	}
	if e.Filtered || e.FilterSelectivity != nil {
		t.Fatalf("unfiltered plan claims a filter: %+v", e)
	}
	if e.Cache != "miss" {
		t.Fatalf("cache outcome = %q, want miss", e.Cache)
	}
	if e.Cost == nil || e.Cost.Comparisons <= 0 || e.Cost.Candidates <= 0 || e.Cost.BytesScanned <= 0 {
		t.Fatalf("cost record empty: %+v", e.Cost)
	}
	// Every shard appears, each with its own non-zero counters, and the
	// per-shard figures sum to the query totals.
	if len(e.Shards) != sx.Shards() {
		t.Fatalf("plan covers %d shards, want %d", len(e.Shards), sx.Shards())
	}
	seen := map[int]bool{}
	var sumComp, sumCand, sumBytes int64
	for _, sh := range e.Shards {
		if sh.Shard < 0 || seen[sh.Shard] {
			t.Fatalf("bad/duplicate shard ordinal: %+v", e.Shards)
		}
		seen[sh.Shard] = true
		if sh.Comparisons <= 0 || sh.Candidates <= 0 || sh.Bytes <= 0 {
			t.Fatalf("shard %d counters empty: %+v", sh.Shard, sh)
		}
		sumComp += sh.Comparisons
		sumCand += sh.Candidates
		sumBytes += sh.Bytes
	}
	if sumComp != e.Cost.Comparisons || sumCand != e.Cost.Candidates || sumBytes != e.Cost.BytesScanned {
		t.Fatalf("per-shard sums %d/%d/%d != cost %d/%d/%d",
			sumComp, sumCand, sumBytes, e.Cost.Comparisons, e.Cost.Candidates, e.Cost.BytesScanned)
	}

	// The identical query again: a cache hit, explained as such, with no
	// backend work to report.
	var hit searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 5, Explain: true}, &hit); code != http.StatusOK {
		t.Fatal("cached explain failed")
	}
	if !hit.Cached || hit.Explain == nil {
		t.Fatalf("second query not a cache hit: %+v", hit)
	}
	if hit.Explain.Cache != "hit" || hit.Explain.Cost != nil || len(hit.Explain.Shards) != 0 {
		t.Fatalf("cache-hit plan should carry no backend work: %+v", hit.Explain)
	}
}

// TestPaginatedSearchMetered: a cursor page is a query like any other. Its
// cost reaches the collection's usage exactly as EXPLAIN reports it, its
// plan has k = limit and lists every shard and the buffer it scanned, and
// a traced page carries the query root with its scan spans.
func TestPaginatedSearchMetered(t *testing.T) {
	data, queries := testWorkload(26, 300, 8)
	dyn, err := lccs.NewDynamicIndex(data[:280], lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[280:] {
		if _, err := dyn.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{Backend: dyn})

	var first searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], Limit: 4, Explain: true}, &first); code != http.StatusOK {
		t.Fatalf("first page: HTTP %d", code)
	}
	e := first.Explain
	if e == nil || e.K != 4 || len(first.Neighbors) != 4 || first.NextCursor == "" {
		t.Fatalf("first page: %d results, cursor %q, plan %+v", len(first.Neighbors), first.NextCursor, e)
	}
	if e.Cost == nil || e.Cost.Comparisons <= 0 || e.Cost.Candidates <= 0 {
		t.Fatalf("page cost empty: %+v", e.Cost)
	}
	if len(e.Shards) != dyn.Shards() || e.Buffer == nil || e.Buffer.Comparisons != int64(dyn.Buffered()) {
		t.Fatalf("plan scans: %d shards (want %d), buffer %+v", len(e.Shards), dyn.Shards(), e.Buffer)
	}
	var ur CollectionStats
	if code := doJSON(t, ts, "GET", "/v1/collections/default/usage", nil, &ur); code != http.StatusOK {
		t.Fatalf("usage: HTTP %d", code)
	}
	cu := ur.Cumulative
	if cu.Searches != 1 || cu.Comparisons != e.Cost.Comparisons || cu.Candidates != e.Cost.Candidates ||
		cu.BytesScanned != e.Cost.BytesScanned {
		t.Fatalf("usage %+v after one page, its plan costs %+v", cu, e.Cost)
	}

	var second searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], Limit: 4, Cursor: first.NextCursor, Trace: true}, &second); code != http.StatusOK {
		t.Fatalf("second page: HTTP %d", code)
	}
	q := findRoot(second.Trace, "query")
	if q == nil {
		t.Fatalf("traced page has no query span: %+v", second.Trace)
	}
	scans := map[string]int{}
	for _, c := range q.Children {
		scans[c.Stage]++
	}
	if scans["shard_scan"] != dyn.Shards() || scans["buffer_scan"] != 1 {
		t.Fatalf("traced page's query spans %+v", q.Children)
	}
}

// TestExplainFilteredBuffer checks the plan of a filtered query against
// a collection whose rows still sit in the delta buffer: the
// buffer scan is reported, and the observed filter selectivity is
// present and sane.
func TestExplainFilteredBuffer(t *testing.T) {
	_, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a"}, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	data, queries := testWorkload(24, 60, 8)
	attrs := make([]map[string]any, len(data))
	for i := range attrs {
		color := "red"
		if i%2 == 1 {
			color = "blue"
		}
		attrs[i] = map[string]any{"color": color}
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-a/insert",
		insertRequest{Vectors: data, Attrs: attrs}, nil); code != http.StatusOK {
		t.Fatal("insert failed")
	}

	var got searchResponse
	req := searchRequest{
		Query:   queries[0],
		K:       3,
		Filter:  []filterTermJSON{{Key: "color", Value: "red"}},
		Explain: true,
	}
	if code := postJSON(t, ts, "/v1/collections/tenant-a/search", req, &got); code != http.StatusOK {
		t.Fatalf("filtered explain: HTTP %d", code)
	}
	e := got.Explain
	if e == nil {
		t.Fatal("response missing explain")
	}
	if e.Backend != "durable" || !e.Filtered {
		t.Fatalf("plan header: %+v", e)
	}
	if e.Cache != "off" {
		t.Fatalf("cache outcome = %q, want off (no cache configured)", e.Cache)
	}
	// All rows are unindexed, so the work happened in the buffer scan.
	if e.Buffer == nil || e.Buffer.Comparisons != int64(len(data)) {
		t.Fatalf("buffer scan = %+v, want %d comparisons", e.Buffer, len(data))
	}
	if len(e.Shards) != 0 {
		t.Fatalf("no shards exist yet, plan lists %d", len(e.Shards))
	}
	if e.FilterSelectivity == nil {
		t.Fatal("filtered plan missing selectivity")
	}
	if sel := *e.FilterSelectivity; sel != 0.5 {
		t.Fatalf("selectivity = %g, want 0.5 (half the rows are red)", sel)
	}
	if e.Cost == nil || e.Cost.FilterRejected != int64(len(data)/2) {
		t.Fatalf("cost = %+v, want %d filter-rejected", e.Cost, len(data)/2)
	}
}

// TestExplainSelectivityIgnoresTombstones: a tombstoned row is neither a
// candidate nor filter-rejected, so the selectivity EXPLAIN reports for a
// filter is a property of the live rows, not of the delete history — the
// same before and after a third of the rows of both colours is deleted
// from a collection with index shards and a delta buffer.
func TestExplainSelectivityIgnoresTombstones(t *testing.T) {
	srv, ts := newCollServer(t, Config{})
	if code := doJSON(t, ts, "POST", "/v1/collections",
		createCollectionRequest{Name: "tenant-a", Spec: engine.Spec{RebuildAt: 32}}, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	c, err := srv.eng.Get("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	data, queries := testWorkload(25, 108, 8)
	// One shard per 32 rows, whatever the timing; the last 12 stay buffered.
	for lo := 0; lo < len(data); lo += 32 {
		hi := min(lo+32, len(data))
		attrs := make([]map[string]any, hi-lo)
		for i := range attrs {
			attrs[i] = map[string]any{"color": []string{"red", "blue"}[(lo+i)%2]}
		}
		if code := postJSON(t, ts, "/v1/collections/tenant-a/insert",
			insertRequest{Vectors: data[lo:hi], Attrs: attrs}, nil); code != http.StatusOK {
			t.Fatal("insert failed")
		}
		c.Dynamic().WaitRebuild()
	}
	if dyn := c.Dynamic(); dyn.Shards() != 3 || dyn.Buffered() != 12 {
		t.Fatalf("fixture: %d shards, %d buffered", dyn.Shards(), dyn.Buffered())
	}
	explain := func(live int) *explainJSON {
		t.Helper()
		var got searchResponse
		req := searchRequest{Query: queries[0], K: 5, Budget: 8 * len(data), Explain: true,
			Filter: []filterTermJSON{{Key: "color", Value: "red"}}}
		if code := postJSON(t, ts, "/v1/collections/tenant-a/search", req, &got); code != http.StatusOK {
			t.Fatalf("filtered explain: HTTP %d", code)
		}
		e := got.Explain
		if e == nil || e.FilterSelectivity == nil || e.Cost == nil {
			t.Fatalf("incomplete plan: %+v", e)
		}
		if *e.FilterSelectivity != 0.5 || e.Cost.Candidates != int64(live/2) || e.Cost.FilterRejected != int64(live/2) {
			t.Fatalf("%d live rows, half of them red: selectivity %g, cost %+v", live, *e.FilterSelectivity, e.Cost)
		}
		return e
	}
	explain(len(data))
	// Ids 0, 1 (mod 6): a red and a blue row out of every six, in every
	// shard and in the buffer.
	var victims []int
	for id := range data {
		if id%6 < 2 {
			victims = append(victims, id)
		}
	}
	var del deleteResponse
	if code := postJSON(t, ts, "/v1/collections/tenant-a/delete", deleteRequest{IDs: victims}, &del); code != http.StatusOK || del.Deleted != len(victims) {
		t.Fatalf("delete: HTTP %d, %+v", code, del)
	}
	explain(len(data) - len(victims))
}

// TestWriteRequestIDs checks that the write and registry endpoints
// carry a request id in both the JSON body and the X-Request-Id header.
func TestWriteRequestIDs(t *testing.T) {
	srv, ts := newCollServer(t, Config{})
	_ = srv
	raw, _ := json.Marshal(createCollectionRequest{Name: "tenant-a"})
	resp, err := http.Post(ts.URL+"/v1/collections", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var cr createCollectionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.RequestID == 0 || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("create: request id missing (body %d, header %q)", cr.RequestID, resp.Header.Get("X-Request-Id"))
	}

	data, _ := testWorkload(25, 10, 8)
	raw, _ = json.Marshal(insertRequest{Vectors: data})
	resp, err = http.Post(ts.URL+"/v1/collections/tenant-a/insert", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ins insertResponse
	if err := json.NewDecoder(resp.Body).Decode(&ins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ins.RequestID == 0 || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("insert: request id missing: %+v", ins)
	}

	raw, _ = json.Marshal(deleteRequest{IDs: []int{0}})
	resp, err = http.Post(ts.URL+"/v1/collections/tenant-a/delete", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var del deleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if del.RequestID == 0 || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("delete: request id missing: %+v", del)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/collections/tenant-a", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr dropCollectionResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.RequestID == 0 || dr.Dropped != "tenant-a" || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("drop: request id missing: %+v", dr)
	}
}

// TestPromLabelEscaping renders series whose collection names carry
// every character the exposition format must escape — quotes,
// backslashes, newlines — and checks each sample stays a single,
// well-formed line. The HTTP API's name validation keeps such names
// out in practice; the formatter must still never emit a broken scrape.
func TestPromLabelEscaping(t *testing.T) {
	hostile := []string{
		`quote"inside`,
		`back\slash`,
		"new\nline",
		"tab\tand\"both\\of\nthem",
	}
	// The one exposition writer, driven the way /metrics drives it: the
	// family table over a scrape whose collections carry the names.
	snap := &scrape{latency: new(obs.Hist)}
	for _, name := range hostile {
		snap.colls = append(snap.colls, collSnap{CollectionStats: CollectionStats{Collection: name,
			Cumulative: engine.UsageSnapshot{BytesScanned: 1}},
			requests: []obs.RequestCount{{Endpoint: "search", Code: 200, N: 1}}})
	}
	var e obs.Expo
	writeFamilies(&e, snap)
	out := string(e.Bytes())

	sc := bufio.NewScanner(strings.NewReader(out))
	samples := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.HasPrefix(line, "lccs_") {
			// A raw newline inside a label value would start a line that
			// is neither a comment nor a sample.
			t.Fatalf("stray continuation line %q: label value leaked a newline", line)
		}
		if _, _, _, err := parseSample(line); err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		if strings.HasPrefix(line, "lccs_collection_scan_bytes_total") {
			samples++
		}
	}
	if samples != len(hostile) {
		t.Fatalf("rendered %d hostile-name samples, want %d", samples, len(hostile))
	}
	// The escapes themselves: ", \, and newline become \", \\, \n.
	for _, esc := range []string{`quote\"inside`, `back\\slash`, `new\nline`} {
		if !strings.Contains(out, esc) {
			t.Errorf("output missing escaped form %s", esc)
		}
	}
}

// TestWALBytesExactUnderConcurrentWriters: each write claims the journal
// bytes appended past its collection's watermark, so however concurrent
// writers interleave, the usage counters' wal_bytes and the health
// windows' sum to exactly the bytes the journal appended. Before/after
// deltas taken around each write overlapped and over-counted.
func TestWALBytesExactUnderConcurrentWriters(t *testing.T) {
	di := openDurableBackend(t, t.TempDir())
	_, ts := newTestServer(t, Config{Backend: di})
	const writers, each = 8, 40
	data, _ := testWorkload(24, writers*each, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(rows [][]float32) {
			defer wg.Done()
			for i := range rows {
				raw, _ := json.Marshal(insertRequest{Vectors: rows[i : i+1]})
				resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("insert: HTTP %d", resp.StatusCode)
				}
			}
		}(data[w*each : (w+1)*each])
	}
	wg.Wait()
	var cs CollectionStats
	getJSON(t, ts, "/v1/collections/"+DefaultCollection+"/usage", &cs)
	appended := di.WALStats().AppendedBytes
	if cs.Cumulative.Inserts != writers*each || cs.Cumulative.WALBytes != appended {
		t.Fatalf("usage: %d inserts, wal_bytes %d; want %d and the journal's %d",
			cs.Cumulative.Inserts, cs.Cumulative.WALBytes, writers*each, appended)
	}
	for _, w := range cs.Windows {
		if w.WALBytes != appended {
			t.Errorf("%s window: wal_bytes %d, want %d", w.Window, w.WALBytes, appended)
		}
	}
}
