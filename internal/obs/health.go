package obs

import (
	"sync"
	"time"
)

// Health is an in-process, dependency-free time-series of request
// health: every request is dual-written into a per-second ring
// covering the last two minutes and a per-minute ring covering the
// last hour, so the stats documents can answer windowed RED questions
// (rate, errors, duration percentiles) plus usage rates (bytes
// scanned, WAL bytes, cache outcomes) at two resolutions without any
// external metrics store. Buckets are stamp-invalidated: a slot is
// reset lazily when its wall-clock second (or minute) comes around
// again, so an idle series costs nothing and stale data can never
// leak into a window.
//
// Record takes one short mutex critical section (a handful of adds),
// matching the serving layer's request-counting precedent; the search
// hot path itself never touches a Health — recording happens once per
// HTTP request, not per shard, and only in the server's one recorder
// (Server.record), which hands the same sample to the server-wide ring
// and the collection's.
const (
	healthSecSlots = 120 // per-second ring: ~2 minutes
	healthMinSlots = 60  // per-minute ring: ~1 hour
)

// HealthSample is one finished request to record: exactly one sample per
// request, whatever its outcome.
type HealthSample struct {
	// Dur is the request's total latency (ignored for rejections). A
	// negative Dur counts the request without a latency observation —
	// the error paths use it so failure storms cannot skew the latency
	// percentiles with meaningless near-zero durations.
	Dur time.Duration
	// Err marks a failed request.
	Err bool
	// Rejected marks a request shed by admission (the collection's
	// share, the full queue, the admission deadline) — counted
	// separately, not as a served request: it adds to Rejected and, when
	// the cache was probed first, to the cache outcome, and to nothing
	// else, so shed load is neither an error nor SLO burn.
	Rejected bool
	// Comparisons, BytesScanned, WALBytes meter the request's work.
	Comparisons  int64
	BytesScanned int64
	WALBytes     int64
	// CacheHit / CacheMiss record a result-cache outcome (both false
	// when the cache was not consulted).
	CacheHit  bool
	CacheMiss bool
}

// healthBucket accumulates one second (or one minute) of samples.
type healthBucket struct {
	stamp        int64 // unix second or minute this slot covers; 0 = empty
	requests     uint64
	errors       uint64
	rejected     uint64
	comparisons  int64
	bytesScanned int64
	walBytes     int64
	cacheHits    uint64
	cacheMisses  uint64
	latCount     uint64 // requests that carried a latency observation
	latSumNS     int64
	lat          [numBuckets + 1]uint32 // the layout of Hist
}

// add folds one sample into the bucket.
func (b *healthBucket) add(s HealthSample) {
	if s.CacheHit {
		b.cacheHits++
	}
	if s.CacheMiss {
		b.cacheMisses++
	}
	if s.Rejected {
		b.rejected++
		return
	}
	b.requests++
	if s.Err {
		b.errors++
	}
	b.comparisons += s.Comparisons
	b.bytesScanned += s.BytesScanned
	b.walBytes += s.WALBytes
	if s.Dur >= 0 {
		b.latCount++
		b.latSumNS += int64(s.Dur)
		b.lat[bucketIdx(s.Dur)]++
	}
}

// Health is one ring-buffer time-series. The zero value is ready to
// use.
type Health struct {
	mu  sync.Mutex
	sec [healthSecSlots]healthBucket
	min [healthMinSlots]healthBucket
}

// Record folds one sample into both rings at time now.
func (h *Health) Record(now time.Time, s HealthSample) {
	secStamp := now.Unix()
	minStamp := secStamp / 60
	h.mu.Lock()
	slot := &h.sec[secStamp%healthSecSlots]
	if slot.stamp != secStamp {
		*slot = healthBucket{stamp: secStamp}
	}
	slot.add(s)
	slot = &h.min[minStamp%healthMinSlots]
	if slot.stamp != minStamp {
		*slot = healthBucket{stamp: minStamp}
	}
	slot.add(s)
	h.mu.Unlock()
}

// HealthWindow is the merged view of one trailing window.
type HealthWindow struct {
	// Window and Resolution describe the merge: the trailing span and
	// the ring it was answered from ("1s" or "1m").
	Window     string `json:"window"`
	Resolution string `json:"resolution"`
	// Requests, Errors, Rejected are totals inside the window.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Rejected counts requests shed by admission. They are not included
	// in Requests or Errors: Requests + Rejected is every request the
	// window saw, and ErrorRate is over served requests only.
	Rejected uint64 `json:"rejected"`
	// ErrorRate is Errors/Requests (0 when idle).
	ErrorRate float64 `json:"error_rate"`
	// RPS is Requests divided by the window span.
	RPS float64 `json:"rps"`
	// P50Ms / P99Ms are latency percentiles from the merged power-of-two
	// histogram, read by the rule of Hist.Quantile (bucket upper bounds,
	// so quantized but never understated); MeanMs is exact.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Usage rates inside the window.
	Comparisons  int64  `json:"comparisons"`
	BytesScanned int64  `json:"bytes_scanned"`
	WALBytes     int64  `json:"wal_bytes"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
}

// Window merges the trailing span ending at now. Spans up to two
// minutes are answered from the per-second ring; longer spans (up to
// an hour) from the per-minute ring. The bucket containing now is
// included, so the newest data is visible immediately (at the cost of
// that bucket being partial).
func (h *Health) Window(now time.Time, span time.Duration) HealthWindow {
	if span <= 0 {
		span = time.Minute
	}
	var (
		merged healthBucket
		lat    [numBuckets + 1]uint64
	)
	ring, unit, res := h.sec[:], time.Second, "1s"
	if span > healthSecSlots*time.Second {
		ring, unit, res = h.min[:], time.Minute, "1m"
	}
	hi := now.Unix() / int64(unit/time.Second)
	lo := hi - int64((span+unit-1)/unit) + 1
	h.mu.Lock()
	for i := range ring {
		if b := &ring[i]; b.stamp >= lo && b.stamp <= hi {
			mergeBucket(&merged, &lat, b)
		}
	}
	h.mu.Unlock()

	w := HealthWindow{
		Window:       span.String(),
		Resolution:   res,
		Requests:     merged.requests,
		Errors:       merged.errors,
		Rejected:     merged.rejected,
		RPS:          float64(merged.requests) / span.Seconds(),
		Comparisons:  merged.comparisons,
		BytesScanned: merged.bytesScanned,
		WALBytes:     merged.walBytes,
		CacheHits:    merged.cacheHits,
		CacheMisses:  merged.cacheMisses,
	}
	if merged.requests > 0 {
		w.ErrorRate = float64(merged.errors) / float64(merged.requests)
	}
	if merged.latCount > 0 {
		w.MeanMs = float64(merged.latSumNS) / float64(merged.latCount) / 1e6
		w.P50Ms = quantile(&lat, merged.latCount, 0.50) * 1e3 // seconds → ms
		w.P99Ms = quantile(&lat, merged.latCount, 0.99) * 1e3
	}
	return w
}

// mergeBucket folds b into the accumulator (latency histogram widened
// to uint64 so an hour of merges cannot overflow).
func mergeBucket(dst *healthBucket, lat *[numBuckets + 1]uint64, b *healthBucket) {
	dst.requests += b.requests
	dst.errors += b.errors
	dst.rejected += b.rejected
	dst.comparisons += b.comparisons
	dst.bytesScanned += b.bytesScanned
	dst.walBytes += b.walBytes
	dst.cacheHits += b.cacheHits
	dst.cacheMisses += b.cacheMisses
	dst.latCount += b.latCount
	dst.latSumNS += b.latSumNS
	for i, c := range b.lat {
		lat[i] += uint64(c)
	}
}
