package server

import (
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/obs"
)

// This file is the server's metering: the one recorder every request's
// outcome goes through, and the EXPLAIN plan builder.

// outcome is everything the stats surfaces will ever say about one
// request. A handler fills it in as the request proceeds and every exit
// hands it, through respond, to record — once.
type outcome struct {
	endpoint string
	code     int
	dur      time.Duration // set on the 2xx exits of the search and write endpoints
	rejected bool          // a 503 from admission: share, full queue or deadline
	// use is what the request adds to its collection's usage counters.
	// The handler fills in what it did — the cache probe's result, the
	// query's cost, the vectors a write applied (the prefix that went in,
	// on a failed write), the journal bytes — and record adds whether it
	// was a search or an error.
	use engine.UsageSnapshot
}

// meter fills in the query cost the request's searches added to co.
func (o *outcome) meter(co *lccs.Cost) {
	o.use.Comparisons, o.use.Candidates = co.Comparisons, co.Candidates
	o.use.BytesScanned, o.use.FilterRejected = co.BytesScanned, co.FilterRejected
}

// record is the one place a request is counted: the only caller of the
// request counter, the request histogram, engine.Usage and the two
// health rings, so what two surfaces say about the same requests cannot
// differ. c is nil for a request that resolved to no collection, which
// counts under the server-scoped series and the server-wide ring only.
//
// Every request is one lccs_requests_total increment. Usage and the
// rings meter the data plane — search, batch, insert, delete — and every
// failure (code ≥ 400): an error with no latency observation, so an
// error storm cannot drag the percentiles toward zero — or, if admission
// shed it, `rejected` in the rings and nothing else. An answered search,
// single or batch, is one search in Usage and one lccs_request_seconds
// observation; a batch's cost is the sum of its queries'.
func (s *Server) record(c *engine.Collection, o outcome) {
	s.met.countRequest(c, o.endpoint, o.code)
	failed := o.code >= 400
	switch {
	case failed:
		o.dur, o.use.Errors = -1, 1
	case o.endpoint == "search" || o.endpoint == "search_batch":
		o.use.Searches = 1
		s.met.latency.Observe(o.dur)
	case o.endpoint != "insert" && o.endpoint != "delete":
		return // a successful read of a stats or registry endpoint is a request count only
	}
	hs := obs.HealthSample{Dur: o.dur, Err: failed, Rejected: o.rejected,
		Comparisons: o.use.Comparisons, BytesScanned: o.use.BytesScanned, WALBytes: o.use.WALBytes,
		CacheHit: o.use.CacheHits > 0, CacheMiss: o.use.CacheMisses > 0}
	now := time.Now()
	s.health.Record(now, hs)
	if c != nil {
		c.Serving().Health.Record(now, hs)
		c.Usage().Add(o.use)
	}
}

// claimWAL is the journal bytes a write request adds to its collection's
// usage and health samples: called once the write returned, it claims the
// journal's cumulative appended-bytes count (0 for memory-only backends)
// past the collection's watermark. Under concurrent writers the split
// between requests is approximate — a request may claim a concurrent
// one's bytes — but the claims telescope, so their sum is exactly the
// bytes the journal appended.
func claimWAL(c *engine.Collection) int64 {
	return c.Serving().ClaimWAL(c.Dynamic().WALStats().AppendedBytes)
}

// ---- EXPLAIN ----

// explainShardJSON is one scan unit of the plan: an immutable shard
// (shard ≥ 0) or the dynamic delta buffer.
type explainShardJSON struct {
	Shard       int     `json:"shard"`
	Comparisons int64   `json:"comparisons"`
	Candidates  int64   `json:"candidates"`
	Bytes       int64   `json:"bytes"`
	DurUS       float64 `json:"dur_us"`
}

// explainJSON is the resolved query plan returned for "explain": true.
// It is assembled from the request's (forced) trace spans and its cost
// record, so building it costs nothing on requests that don't ask.
type explainJSON struct {
	Collection string `json:"collection"`
	// Backend is the facade kind serving the collection (index |
	// dynamic | durable | custom).
	Backend string `json:"backend"`
	K       int    `json:"k"`
	// Budget is the requested candidate budget λ (0 = backend default).
	Budget   int  `json:"budget"`
	Filtered bool `json:"filtered"`
	// FilterSelectivity is the observed accept fraction among
	// predicate-checked candidates; present only on filtered queries
	// that checked at least one.
	FilterSelectivity *float64 `json:"filter_selectivity,omitempty"`
	// Cache is the result-cache outcome: "hit", "miss", or "off".
	Cache string `json:"cache"`
	// Cost is the whole query's cost record (absent on cache hits —
	// no backend work ran).
	Cost *lccs.Cost `json:"cost,omitempty"`
	// Shards lists every shard visited with its per-shard cost; Buffer
	// is the dynamic delta scan when the backend has one.
	Shards []explainShardJSON `json:"shards"`
	Buffer *explainShardJSON  `json:"buffer,omitempty"`
}

// buildExplain assembles the plan. co is nil on cache hits; tr is the
// request's trace (explain forces one, so it is non-nil here except
// for custom backends that ignored it).
func buildExplain(c *engine.Collection, k, budget int, f *lccs.Filter, co *lccs.Cost, cache string, tr *obs.Trace) *explainJSON {
	e := &explainJSON{
		Collection: c.Name(),
		Backend:    backendStats(c).Kind,
		K:          k,
		Budget:     budget,
		Filtered:   f != nil,
		Cache:      cache,
		Shards:     []explainShardJSON{},
	}
	if co != nil {
		e.Cost = co
		if f != nil {
			if checked := co.Candidates + co.FilterRejected; checked > 0 {
				sel := float64(co.Candidates) / float64(checked)
				e.FilterSelectivity = &sel
			}
		}
	}
	collectExplainScans(e, tr.Tree())
	return e
}

// collectExplainScans walks the span forest for shard_scan and
// buffer_scan nodes.
func collectExplainScans(e *explainJSON, nodes []obs.SpanNode) {
	for i := range nodes {
		n := &nodes[i]
		switch n.Stage {
		case obs.StageShardScan.String():
			sh := explainShardJSON{Shard: -1, Comparisons: n.Rows,
				Candidates: n.Cands, Bytes: n.Bytes, DurUS: n.DurUS}
			if n.Shard != nil {
				sh.Shard = *n.Shard
			}
			e.Shards = append(e.Shards, sh)
		case obs.StageBufferScan.String():
			e.Buffer = &explainShardJSON{Shard: -1, Comparisons: n.Rows,
				Candidates: n.Cands, Bytes: n.Bytes, DurUS: n.DurUS}
		}
		collectExplainScans(e, n.Children)
	}
}
