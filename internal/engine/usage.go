package engine

import (
	"sync/atomic"

	"lccs/internal/obs"
)

// Usage is one collection's cumulative resource accounting, and the one
// owner of its twelve numbers: the stats documents' cumulative and total
// usage and the lccs_collection_*_total families all read them from
// here. It is a UsageSnapshot kept in monotone atomics — counter i is
// field i of UsageSnapshot.counters — so a request is recorded with a
// handful of uncontended atomic adds, no locks, no allocations, and a
// scrape reads a consistent-enough snapshot without stopping traffic.
// Counters reset only with the process; windowed rates come from the
// health rings (internal/obs), which the same recorder feeds.
type Usage struct{ c [11]atomic.Int64 }

// UsageSnapshot is a point-in-time copy of a Usage, shaped for JSON.
type UsageSnapshot struct {
	// Searches counts answered search requests — from the backend or
	// the cache — a batch being one request (validation failures count
	// under Errors).
	Searches int64 `json:"searches"`
	// Inserts and Deletes count acknowledged write operations.
	Inserts int64 `json:"inserts"`
	Deletes int64 `json:"deletes"`
	// Errors counts failed requests of any kind against the collection,
	// requests shed by admission included.
	Errors int64 `json:"errors"`
	// Comparisons is the total CSA hash-comparison work; Candidates the
	// vectors verified with exact distances.
	Comparisons int64 `json:"comparisons"`
	Candidates  int64 `json:"candidates"`
	// BytesScanned is the vector bytes the distance kernels read: 4 B/dim
	// per candidate, of the dims read — a Euclidean row stops being read
	// once it cannot make the k nearest.
	BytesScanned int64 `json:"bytes_scanned"`
	// FilterRejected counts candidates discarded by a metadata predicate.
	FilterRejected int64 `json:"filter_rejected"`
	// CacheHits / CacheMisses count result-cache probes by outcome,
	// whatever the request did after the probe.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// WALBytes is the journal bytes appended on behalf of this
	// collection's writes (monotone; checkpoint truncation does not
	// rewind it).
	WALBytes int64 `json:"wal_bytes"`
	// CostUnits is the CPU-proxy cost: one unit approximates one scalar
	// operation — a hash-character comparison or one 4-byte distance
	// lane (BytesScanned/4). It is derived, not stored.
	CostUnits int64 `json:"cost_units"`
}

// counters lists the stored counters — every field but the derived
// CostUnits — in the order Usage keeps them.
func (s *UsageSnapshot) counters() [11]*int64 {
	return [...]*int64{&s.Searches, &s.Inserts, &s.Deletes, &s.Errors, &s.Comparisons, &s.Candidates,
		&s.BytesScanned, &s.FilterRejected, &s.CacheHits, &s.CacheMisses, &s.WALBytes}
}

// Add folds one request's contribution into the counters; zero fields
// cost nothing. The serving layer calls it from exactly one place
// (Server.record), once per request.
func (u *Usage) Add(d UsageSnapshot) {
	for i, v := range d.counters() {
		if *v != 0 {
			u.c[i].Add(*v)
		}
	}
}

// Snapshot copies the counters. Each load is individually atomic; the
// snapshot as a whole is not a cross-counter consistent cut, which is
// fine for metering (counters are monotone and drift by at most the
// requests in flight during the scrape).
func (u *Usage) Snapshot() UsageSnapshot {
	var s UsageSnapshot
	for i, v := range s.counters() {
		*v = u.c[i].Load()
	}
	s.CostUnits = s.Comparisons + s.BytesScanned/4
	return s
}

// Add accumulates o into s (for the engine-wide aggregate view).
func (s *UsageSnapshot) Add(o UsageSnapshot) {
	dst := s.counters()
	for i, v := range o.counters() {
		*dst[i] += *v
	}
	s.CostUnits += o.CostUnits
}

// Usage returns the collection's usage counters. Never nil; shared by
// every handle to the collection.
func (c *Collection) Usage() *Usage { return &c.usage }

// Serving is one collection's live request state: the windowed RED/usage
// ring behind the stats documents' windows, its requests by
// endpoint and status code (lccs_requests_total), the requests of the
// collection currently admitted, those its concurrency share shed, and
// the journal bytes its writes have claimed. The registry creates it
// with the collection and drops it with it; the serving layer reads and
// writes it.
type Serving struct {
	Health        obs.Health
	Requests      obs.RequestCounts
	Occupancy     atomic.Int64
	QuotaRejected atomic.Uint64
	// walMark is the journal's cumulative appended-bytes count already
	// claimed (ClaimWAL).
	walMark atomic.Int64
}

// ClaimWAL attributes to the caller the journal bytes appended past the
// watermark, appended being the journal's cumulative count read after
// the caller's own append, and moves the watermark there. Concurrent
// claims race by CAS, so every byte is claimed once: the claims sum to
// the highest count claimed minus the watermark's start, exactly.
func (s *Serving) ClaimWAL(appended int64) int64 {
	for {
		mark := s.walMark.Load()
		if appended <= mark {
			return 0
		}
		if s.walMark.CompareAndSwap(mark, appended) {
			return appended - mark
		}
	}
}

// Serving returns the collection's request state. Never nil; shared by
// every handle to the collection.
func (c *Collection) Serving() *Serving { return &c.serving }
