package server

import (
	"runtime"
	"strconv"
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/obs"
)

// This file declares every serve-time number: the two stores the server
// itself owns (written only by Server.record), the per-scrape snapshot
// that reads every other owner once — the two JSON stats documents are
// assembled from it too (server.go, "the stats documents") — and the one
// table of /metrics families.

// metrics holds the two stores the server owns: the request counts of
// requests that resolved no collection (a collection's are on its
// engine.Serving) and the search latency histogram.
type metrics struct {
	start    time.Time
	requests obs.RequestCounts
	latency  obs.Hist
}

// countRequest counts one request under its collection's series, or the
// server-scoped ones when c is nil.
func (m *metrics) countRequest(c *engine.Collection, endpoint string, code int) {
	rc := &m.requests
	if c != nil {
		rc = &c.Serving().Requests
	}
	rc.Inc(endpoint, code)
}

// ---- the per-scrape snapshot ----

// collSnap is one loaded collection's sources, each read once: its
// request counts and, in the shape of its stats document, the rest
// (Requests is filled in by collSnap.stats).
type collSnap struct {
	requests []obs.RequestCount
	CollectionStats
}

// snap reads c's sources, its windows as they stand at now.
func snap(c *engine.Collection, now time.Time) collSnap {
	sv := c.Serving()
	cs := collSnap{requests: sv.Requests.Snapshot(), CollectionStats: CollectionStats{
		Collection:    c.Name(),
		InFlight:      sv.Occupancy.Load(),
		QuotaRejected: sv.QuotaRejected.Load(),
		Cumulative:    c.Usage().Snapshot(),
		Windows:       windowsOf(&sv.Health, now),
		Backend:       backendStats(c),
	}}
	if d := c.Dynamic(); d != nil && d.Dir() != "" {
		ws := d.WALStats()
		cs.WAL = &ws
	}
	return cs
}

// scrape is one read of every source behind the stats surfaces. A total
// is summed from the collSnaps beside it and what the collections dropped
// before it counted, and the default collection's figures are those of
// its collSnap, so a response cannot contradict itself however much is
// being written while it is assembled, and a counter does not fall when a
// collection is dropped.
type scrape struct {
	uptime              float64
	draining            bool
	requests            []obs.RequestCount // server-scoped; a collection's are on its collSnap
	retiredRequests     []obs.RequestCount // the dropped collections'
	latency             *obs.Hist
	windows             []obs.HealthWindow // the server-wide ring's
	adm                 admissionStats
	cache               CacheStats
	colls               []collSnap           // ordered by name
	total               engine.UsageSnapshot // the dropped collections' + Σ colls[i].Cumulative
	vectors, tombstones int                  // Σ colls[i].Backend
	writable            bool                 // some collection takes writes
	def                 *collSnap            // the default collection; nil when not loaded
	// Read by handleMetrics only: ReadMemStats stops the world.
	version              string
	poolGets, poolMisses uint64
	mem                  runtime.MemStats
}

func (s *Server) scrape() *scrape {
	now := time.Now()
	loaded, retired, retiredRequests := s.eng.Census()
	sc := &scrape{
		uptime:          now.Sub(s.met.start).Seconds(),
		draining:        s.draining.Load(),
		requests:        s.met.requests.Snapshot(),
		retiredRequests: retiredRequests,
		latency:         &s.met.latency,
		windows:         windowsOf(s.health, now),
		adm:             s.adm.stats(),
		colls:           make([]collSnap, len(loaded)),
		total:           retired,
	}
	if s.cache != nil {
		sc.cache = s.cache.stats()
	}
	for i, c := range loaded {
		cs := &sc.colls[i]
		*cs = snap(c, now)
		sc.total.Add(cs.Cumulative)
		sc.vectors += cs.Backend.Vectors
		sc.tombstones += cs.Backend.Tombstones
		sc.writable = sc.writable || cs.Backend.Writable
		if cs.Collection == DefaultCollection {
			sc.def = cs
		}
	}
	if probes := sc.total.CacheHits + sc.total.CacheMisses; sc.cache.Enabled && probes > 0 {
		sc.cache.HitRate = float64(sc.total.CacheHits) / float64(probes)
	}
	return sc
}

// ---- the /metrics families ----

// family declares one /metrics family: its exposition header and emit,
// which writes its samples of one scrape — none when their source does
// not exist in this process (no cache, no journal). The table in
// docs/OBSERVABILITY.md lists the same rows in the same order
// (TestMetricFamiliesDeclaredOnce).
type family struct {
	name, help string
	kind       obs.Kind
	emit       func(e *obs.Expo, sc *scrape)
}

// value and perColl build emit from a read that returns a value and
// whether its source exists: one series for the server, or (the
// lccs_collection_* families) one per loaded collection, labelled with
// its name. wal reads the default collection's journal, which the
// unlabelled lccs_wal_* series describe.
func value(read func(*scrape) (float64, bool)) func(*obs.Expo, *scrape) {
	return func(e *obs.Expo, sc *scrape) {
		if v, ok := read(sc); ok {
			e.Sample("", v)
		}
	}
}

func perColl(read func(*collSnap) (float64, bool)) func(*obs.Expo, *scrape) {
	return func(e *obs.Expo, sc *scrape) {
		for i := range sc.colls {
			if v, ok := read(&sc.colls[i]); ok {
				e.Sample("", v, obs.Label{Name: "collection", Value: sc.colls[i].Collection})
			}
		}
	}
}

func wal(read func(*lccs.WALStats) float64) func(*obs.Expo, *scrape) {
	return value(func(sc *scrape) (float64, bool) {
		if sc.def == nil || sc.def.WAL == nil {
			return 0, false
		}
		return read(sc.def.WAL), true
	})
}

var families = []family{
	{"lccs_requests_total", "HTTP requests served, by collection, endpoint, and status code.", obs.Counter, func(e *obs.Expo, sc *scrape) {
		sample := func(r obs.RequestCount, labels ...obs.Label) {
			labels = append(labels, obs.Label{Name: "endpoint", Value: r.Endpoint}, obs.Label{Name: "code", Value: strconv.Itoa(r.Code)})
			e.Sample("", float64(r.N), labels...)
		}
		for _, r := range sc.requests {
			sample(r)
		}
		for i := range sc.colls {
			for _, r := range sc.colls[i].requests {
				sample(r, obs.Label{Name: "collection", Value: sc.colls[i].Collection})
			}
		}
	}},
	{"lccs_request_seconds", "Search handler latency (admission wait included).", obs.Histogram, func(e *obs.Expo, sc *scrape) { sc.latency.Write(e) }},

	{"lccs_admission_rejected_total", "Requests rejected because the admission queue was full.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.adm.Rejected), true })},
	{"lccs_admission_wait_timeouts_total", "Requests whose deadline expired while waiting for a slot.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.adm.WaitTimeouts), true })},
	{"lccs_inflight_requests", "Requests currently holding an admission slot.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.adm.InFlight), true })},
	{"lccs_admission_queue_depth", "Requests waiting for an admission slot.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.adm.QueueDepth), true })},

	{"lccs_inserts_total", "Vectors inserted across all collections.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.total.Inserts), true })},
	{"lccs_deletes_total", "Vectors tombstoned across all collections.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.total.Deletes), true })},
	{"lccs_index_vectors", "Vectors searchable across all collections.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.vectors), true })},
	{"lccs_index_tombstones", "Deleted vectors awaiting compaction.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.tombstones), sc.writable })},

	{"lccs_cache_hits_total", "Result cache hits.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.total.CacheHits), sc.cache.Enabled })},
	{"lccs_cache_misses_total", "Result cache misses.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.total.CacheMisses), sc.cache.Enabled })},
	{"lccs_cache_evictions_total", "Result cache LRU evictions.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.cache.Evictions), sc.cache.Enabled })},
	{"lccs_cache_entries", "Live result cache entries.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.cache.Entries), sc.cache.Enabled })},

	{"lccs_wal_fsyncs_total", "Write-ahead log fsync calls.", obs.Counter, wal(func(w *lccs.WALStats) float64 { return float64(w.Fsyncs) })},
	{"lccs_wal_depth_records", "Records held only by the write-ahead log (replayed on crash recovery).", obs.Gauge, wal(func(w *lccs.WALStats) float64 { return float64(w.Depth) })},
	{"lccs_wal_segments", "Live write-ahead log segment files.", obs.Gauge, wal(func(w *lccs.WALStats) float64 { return float64(w.Segments) })},
	{"lccs_wal_bytes", "Total size of live write-ahead log segments.", obs.Gauge, wal(func(w *lccs.WALStats) float64 { return float64(w.Bytes) })},
	{"lccs_wal_last_fsync_seconds", "Latency of the most recent WAL fsync.", obs.Gauge, wal(func(w *lccs.WALStats) float64 { return w.LastFsyncMicros / 1e6 })},
	{"lccs_wal_synced_lsn", "Highest log sequence number known fsynced.", obs.Gauge, wal(func(w *lccs.WALStats) float64 { return float64(w.SyncedLSN) })},

	{"lccs_collection_inserts_total", "Vectors inserted, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.Inserts), true })},
	{"lccs_collection_deletes_total", "Vectors tombstoned, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.Deletes), true })},
	{"lccs_collection_searches_total", "Search requests served (backend or cache), by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.Searches), true })},
	{"lccs_collection_errors_total", "Failed requests, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.Errors), true })},
	{"lccs_collection_scan_bytes_total", "Vector bytes read by the distance kernels, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.BytesScanned), true })},
	{"lccs_collection_cost_units_total", "Derived query cost units (comparisons + scan bytes / 4), by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.CostUnits), true })},
	{"lccs_collection_filter_rejected_total", "Candidates discarded by metadata predicates, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.FilterRejected), true })},
	{"lccs_collection_cache_hits_total", "Result-cache hits, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.CacheHits), true })},
	{"lccs_collection_cache_misses_total", "Result-cache misses, by collection.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.CacheMisses), true })},
	{"lccs_collection_wal_appended_bytes_total", "Journal bytes appended by this collection's writes.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.Cumulative.WALBytes), true })},
	{"lccs_collection_quota_rejected_total", "Requests rejected by the per-collection concurrency share.", obs.Counter, perColl(func(c *collSnap) (float64, bool) { return float64(c.QuotaRejected), true })},
	{"lccs_collection_vectors", "Vectors searchable, by collection.", obs.Gauge, perColl(func(c *collSnap) (float64, bool) { return float64(c.Backend.Vectors), true })},
	{"lccs_collection_tombstones", "Deleted vectors awaiting compaction, by collection.", obs.Gauge, perColl(func(c *collSnap) (float64, bool) { return float64(c.Backend.Tombstones), true })},
	{"lccs_collection_inflight", "Admitted in-flight requests, by collection.", obs.Gauge, perColl(func(c *collSnap) (float64, bool) { return float64(c.InFlight), true })},
	{"lccs_collection_wal_depth_records", "WAL records a crash would replay, by collection.", obs.Gauge, perColl(func(c *collSnap) (float64, bool) {
		if c.WAL == nil {
			return 0, false
		}
		return float64(c.WAL.Depth), true
	})},

	{"lccs_stage_seconds", "Time spent per request-lifecycle stage.", obs.Histogram, func(e *obs.Expo, _ *scrape) { obs.WriteStageMetrics(e) }},
	{"lccs_trace_pool_gets_total", "Traces drawn from the span pool.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.poolGets), true })},
	{"lccs_trace_pool_misses_total", "Trace pool gets that allocated a fresh trace.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.poolMisses), true })},
	{"lccs_trace_pool_hit_rate", "Fraction of trace pool gets served without allocating.", obs.Gauge, value(func(sc *scrape) (float64, bool) {
		if sc.poolGets == 0 {
			return 0, true
		}
		return float64(sc.poolGets-sc.poolMisses) / float64(sc.poolGets), true
	})},

	{"lccs_goroutines", "Live goroutines.", obs.Gauge, value(func(*scrape) (float64, bool) { return float64(runtime.NumGoroutine()), true })},
	{"lccs_heap_alloc_bytes", "Bytes of allocated heap objects.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.mem.HeapAlloc), true })},
	{"lccs_gc_runs_total", "Completed garbage-collection cycles.", obs.Counter, value(func(sc *scrape) (float64, bool) { return float64(sc.mem.NumGC), true })},
	{"lccs_gc_pause_last_seconds", "Duration of the most recent GC stop-the-world pause.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return float64(sc.mem.PauseNs[(sc.mem.NumGC+255)%256]) / 1e9, true })},
	{"lccs_uptime_seconds", "Seconds since the server started.", obs.Gauge, value(func(sc *scrape) (float64, bool) { return sc.uptime, true })},
	{"lccs_build_info", "Build metadata; the value is always 1.", obs.Gauge, func(e *obs.Expo, sc *scrape) {
		e.Sample("", 1, obs.Label{Name: "version", Value: sc.version}, obs.Label{Name: "go", Value: runtime.Version()})
	}},
}

// writeFamilies renders the table over one scrape.
func writeFamilies(e *obs.Expo, sc *scrape) {
	for i := range families {
		f := &families[i]
		e.Family(f.name, f.help, f.kind)
		f.emit(e, sc)
	}
}
