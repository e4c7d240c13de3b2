package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"lccs"
	"lccs/internal/obs"
)

// findRoot returns the first root span with the given stage name.
func findRoot(tree []obs.SpanNode, stage string) *obs.SpanNode {
	for i := range tree {
		if tree[i].Stage == stage {
			return &tree[i]
		}
	}
	return nil
}

func TestTracedSearchEndToEnd(t *testing.T) {
	data, queries := testWorkload(7, 400, 8)
	sx := segmentedIndex(t, data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 5}, 3)
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 64})

	scansBefore := obs.StageCount(obs.StageShardScan)
	mergesBefore := obs.StageCount(obs.StageMerge)

	var got searchResponse
	code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 5, Trace: true}, &got)
	if code != http.StatusOK {
		t.Fatalf("traced search: HTTP %d", code)
	}
	if got.RequestID == 0 {
		t.Fatal("traced response missing request_id")
	}
	if len(got.Trace) == 0 {
		t.Fatal("traced response missing span tree")
	}

	// The roots cover the handler stages (body decode, cache probe,
	// admission wait, backend query, response encode) ...
	for _, stage := range []string{"decode", "cache", "admission", "query", "encode"} {
		if findRoot(got.Trace, stage) == nil {
			t.Errorf("no %s span in trace %+v", stage, got.Trace)
		}
	}
	// ... and the query root holds one scan per shard plus the merge.
	q := findRoot(got.Trace, "query")
	if q == nil {
		t.Fatal("no query root span")
	}
	shards := map[int]bool{}
	merges := 0
	for _, c := range q.Children {
		switch c.Stage {
		case "shard_scan":
			if c.Shard == nil {
				t.Fatalf("shard_scan span missing shard ordinal: %+v", c)
			}
			shards[*c.Shard] = true
			if c.Rows <= 0 || c.Cands <= 0 {
				t.Errorf("shard %d span has empty counters: %+v", *c.Shard, c)
			}
		case "merge":
			merges++
		}
	}
	if len(shards) != sx.Shards() {
		t.Fatalf("trace covers %d shards, want %d: %+v", len(shards), sx.Shards(), q.Children)
	}
	if merges != 1 {
		t.Fatalf("want 1 merge span, got %d", merges)
	}

	// The same stages fed the histograms.
	if d := obs.StageCount(obs.StageShardScan) - scansBefore; d < uint64(sx.Shards()) {
		t.Errorf("shard_scan histogram grew by %d, want >= %d", d, sx.Shards())
	}
	if d := obs.StageCount(obs.StageMerge) - mergesBefore; d < 1 {
		t.Error("merge histogram did not grow")
	}

	// The traced response carries a correlation header.
	raw, _ := json.Marshal(searchRequest{Query: queries[1], K: 3, Trace: true})
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("traced response missing X-Request-Id header")
	}

	// Untraced requests carry neither.
	var plain searchResponse
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[2], K: 5}, &plain); code != http.StatusOK {
		t.Fatalf("plain search: HTTP %d", code)
	}
	if plain.RequestID != 0 || len(plain.Trace) != 0 {
		t.Fatalf("untraced response leaked trace fields: %+v", plain)
	}
}

func TestTraceSampleStride(t *testing.T) {
	data, queries := testWorkload(8, 300, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Sample every 2nd search; no cache so every request hits the backend.
	_, ts := newTestServer(t, Config{Backend: sx, TraceSample: 0.5})
	// The query-stage histogram is only fed on the traced path, so its
	// growth counts exactly the sampled requests.
	before := obs.StageCount(obs.StageQuery)
	for i := 0; i < 10; i++ {
		var got searchResponse
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i%len(queries)], K: 3}, &got); code != http.StatusOK {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
		// Sampler-selected traces must not leak into client responses.
		if len(got.Trace) > 0 || got.RequestID != 0 {
			t.Fatalf("search %d: sampled trace leaked into response: %+v", i, got)
		}
	}
	if traced := obs.StageCount(obs.StageQuery) - before; traced != 5 {
		t.Fatalf("TraceSample 0.5 traced %d of 10 searches, want exactly 5", traced)
	}
}

func TestDebugSlowEndpoint(t *testing.T) {
	data, queries := testWorkload(9, 300, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns threshold makes every search "slow"; capacity 4 forces ring
	// eviction across 6 requests.
	_, ts := newTestServer(t, Config{Backend: sx, SlowThreshold: time.Nanosecond, SlowLogSize: 4})

	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[i], K: 3}, nil); code != http.StatusOK {
			t.Fatalf("search %d: HTTP %d", i, code)
		}
	}
	// Newest request is traced, so its slow entry carries spans.
	if code := postJSON(t, ts, "/v1/search", searchRequest{Query: queries[5], K: 3, Trace: true}, nil); code != http.StatusOK {
		t.Fatal("traced search failed")
	}

	resp, err := http.Get(ts.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/slow: HTTP %d", resp.StatusCode)
	}
	var out slowLogResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ThresholdUS <= 0 {
		t.Errorf("threshold_us = %g, want > 0", out.ThresholdUS)
	}
	if len(out.Slow) != 4 {
		t.Fatalf("slow ring holds %d entries, want capacity 4", len(out.Slow))
	}
	for i := 1; i < len(out.Slow); i++ {
		if out.Slow[i-1].RequestID <= out.Slow[i].RequestID {
			t.Fatalf("slow entries not newest-first: ids %d then %d",
				out.Slow[i-1].RequestID, out.Slow[i].RequestID)
		}
	}
	newest := out.Slow[0]
	if !newest.Traced || len(newest.Spans) == 0 {
		t.Fatalf("newest slow entry should be traced with spans: %+v", newest)
	}
	if newest.K != 3 || newest.DurUS <= 0 {
		t.Fatalf("slow entry fields wrong: %+v", newest)
	}

	// The endpoint is GET-only.
	if code := postJSON(t, ts, "/v1/debug/slow", struct{}{}, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/debug/slow: HTTP %d, want 405", code)
	}
}

// TestMetricsExpositionParses retrieves the full /metrics payload and
// validates it against the Prometheus text-format rules: every sample
// belongs to a family declared by a preceding # TYPE line, histogram
// buckets are cumulative, labels are well-formed, and no family is
// declared twice.
func TestMetricsExpositionParses(t *testing.T) {
	data, queries := testWorkload(10, 300, 8)
	sx, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: sx, CacheSize: 8, Version: "test-1.2.3"})
	// Populate: a traced search, a repeat (cache hit), and a miss.
	postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 3, Trace: true}, nil)
	postJSON(t, ts, "/v1/search", searchRequest{Query: queries[0], K: 3}, nil)
	postJSON(t, ts, "/v1/search", searchRequest{Query: queries[1], K: 3}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}

	types := map[string]string{}    // family → counter|gauge|histogram
	samples := map[string]float64{} // first sample per full series key
	var bucketFamily string
	var lastBucket float64
	sawBucketFor := map[string]bool{}

	sc := bufio.NewScanner(resp.Body)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			parts := strings.SplitN(text, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", line, text)
			}
			if parts[1] == "TYPE" {
				name, typ := parts[2], parts[3]
				if typ != "counter" && typ != "gauge" && typ != "histogram" {
					t.Fatalf("line %d: unknown type %q", line, typ)
				}
				if _, dup := types[name]; dup {
					t.Fatalf("line %d: family %s declared twice", line, name)
				}
				types[name] = typ
			}
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			t.Fatalf("line %d: %v (%q)", line, err, text)
		}
		family := name
		if typ, ok := types[family]; !ok || typ != "histogram" {
			// Histogram samples use suffixed names; resolve the family.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suf)
				if base != name && types[base] == "histogram" {
					family = base
					break
				}
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %s has no # TYPE declaration", line, name)
		}
		samples[text[:strings.LastIndex(text, " ")]] = value

		// Histogram buckets must be cumulative within one series run.
		if strings.HasSuffix(name, "_bucket") && types[family] == "histogram" {
			seriesKey := family + "|" + labels["stage"]
			if bucketFamily != seriesKey {
				bucketFamily, lastBucket = seriesKey, 0
			}
			if value < lastBucket {
				t.Fatalf("line %d: bucket count decreased in %s: %g < %g", line, seriesKey, value, lastBucket)
			}
			lastBucket = value
			if labels["le"] == "+Inf" {
				sawBucketFor[seriesKey] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Families this PR added or renamed must be present.
	for family, typ := range map[string]string{
		"lccs_request_seconds":         "histogram",
		"lccs_stage_seconds":           "histogram",
		"lccs_build_info":              "gauge",
		"lccs_trace_pool_gets_total":   "counter",
		"lccs_trace_pool_misses_total": "counter",
		"lccs_trace_pool_hit_rate":     "gauge",
		"lccs_cache_hits_total":        "counter",
		"lccs_cache_misses_total":      "counter",
		"lccs_cache_evictions_total":   "counter",
		"lccs_goroutines":              "gauge",
		"lccs_heap_alloc_bytes":        "gauge",
	} {
		if got := types[family]; got != typ {
			t.Errorf("family %s: type %q, want %q", family, got, typ)
		}
	}
	foundBuild := false
	for key := range samples {
		if strings.HasPrefix(key, "lccs_build_info{") && strings.Contains(key, `version="test-1.2.3"`) {
			foundBuild = true
		}
	}
	if !foundBuild {
		t.Error("lccs_build_info sample with version label missing")
	}
	// A traced search ran, so the shard_scan stage histogram has data
	// and terminates with a +Inf bucket.
	if !sawBucketFor["lccs_stage_seconds|shard_scan"] {
		t.Error("lccs_stage_seconds{stage=\"shard_scan\"} has no +Inf bucket")
	}
	foundCount := false
	for key, v := range samples {
		if strings.HasPrefix(key, `lccs_stage_seconds_count{stage="shard_scan"}`) && v > 0 {
			foundCount = true
		}
	}
	if !foundCount {
		t.Error("lccs_stage_seconds_count{stage=\"shard_scan\"} not populated")
	}
	// The renamed request histogram exposes _sum and _count.
	if _, ok := samples["lccs_request_seconds_count"]; !ok {
		t.Error("lccs_request_seconds_count missing")
	}
	if _, ok := samples["lccs_request_seconds_sum"]; !ok {
		t.Error("lccs_request_seconds_sum missing")
	}
}

// parseSample splits one exposition sample line into name, labels, and
// value.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unbalanced label braces")
		}
		for _, pair := range splitLabels(rest[i+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			val := pair[eq+1:]
			if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value %q", val)
			}
			labels[pair[:eq]] = val[1 : len(val)-1]
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("no value")
		}
		name, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	for _, r := range name {
		if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return "", nil, 0, fmt.Errorf("bad metric name %q", name)
		}
	}
	if name == "" {
		return "", nil, 0, fmt.Errorf("empty metric name")
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %v", rest, err)
	}
	return name, labels, value, nil
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestQuantileOverflowClamp pins the overflow rule: observations beyond
// the top finite bucket must report the top bound, not an extrapolated
// 2×lo value.
func TestQuantileOverflowClamp(t *testing.T) {
	var h obs.Hist
	h.Observe(30 * time.Second) // far past the ~16.8s top bucket
	const top = 16.777216       // 2^24 µs
	if got := h.Quantile(0.99); got != top {
		t.Fatalf("overflow quantile = %g, want clamp to top bound %g", got, top)
	}
}
