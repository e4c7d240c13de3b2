package obs

import (
	"testing"
	"time"
)

func TestHealthWindowCounts(t *testing.T) {
	var h Health
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10; i++ {
		h.Record(base.Add(time.Duration(i)*time.Second), HealthSample{
			Dur:          2 * time.Millisecond,
			Err:          i%5 == 0, // 2 errors
			Comparisons:  100,
			BytesScanned: 4096,
			WALBytes:     32,
			CacheMiss:    true,
		})
	}
	h.Record(base.Add(5*time.Second), HealthSample{Rejected: true})

	now := base.Add(9 * time.Second)
	w := h.Window(now, time.Minute)
	if w.Resolution != "1s" {
		t.Fatalf("resolution = %q, want 1s", w.Resolution)
	}
	if w.Requests != 10 || w.Errors != 2 || w.Rejected != 1 {
		t.Fatalf("requests/errors/rejected = %d/%d/%d, want 10/2/1", w.Requests, w.Errors, w.Rejected)
	}
	if w.ErrorRate != 0.2 {
		t.Fatalf("error rate = %g, want 0.2", w.ErrorRate)
	}
	if w.Comparisons != 1000 || w.BytesScanned != 40960 || w.WALBytes != 320 {
		t.Fatalf("usage = %d/%d/%d, want 1000/40960/320", w.Comparisons, w.BytesScanned, w.WALBytes)
	}
	if w.CacheMisses != 10 || w.CacheHits != 0 {
		t.Fatalf("cache = %d hits / %d misses, want 0/10", w.CacheHits, w.CacheMisses)
	}
	// 2ms lands in the (1ms, 2.048ms] power-of-two bucket: both
	// percentiles report its upper bound.
	if w.P50Ms != 2.048 || w.P99Ms != 2.048 {
		t.Fatalf("p50/p99 = %g/%g ms, want 2.048/2.048", w.P50Ms, w.P99Ms)
	}
	if w.MeanMs != 2 {
		t.Fatalf("mean = %g ms, want 2", w.MeanMs)
	}
}

func TestHealthWindowPercentileSpread(t *testing.T) {
	var h Health
	base := time.Unix(1_700_000_100, 0)
	// 99 fast requests and one slow one: p50 stays in the fast bucket,
	// p99 reaches the slow one.
	for i := 0; i < 99; i++ {
		h.Record(base, HealthSample{Dur: 500 * time.Microsecond})
	}
	h.Record(base, HealthSample{Dur: 100 * time.Millisecond})
	w := h.Window(base, 10*time.Second)
	if w.P50Ms != 0.512 {
		t.Fatalf("p50 = %g ms, want 0.512", w.P50Ms)
	}
	if w.P99Ms != 131.072 {
		t.Fatalf("p99 = %g ms, want 131.072", w.P99Ms)
	}
}

func TestHealthStampInvalidation(t *testing.T) {
	var h Health
	base := time.Unix(1_700_001_000, 0)
	h.Record(base, HealthSample{Dur: time.Millisecond})
	// The same per-second slot comes around again two ring lengths
	// later; the old sample must not leak into the new window.
	later := base.Add(2 * healthSecSlots * time.Second)
	h.Record(later, HealthSample{Dur: time.Millisecond})
	w := h.Window(later, time.Minute)
	if w.Requests != 1 {
		t.Fatalf("requests = %d, want 1 (stale slot leaked)", w.Requests)
	}
}

func TestHealthMinuteRing(t *testing.T) {
	var h Health
	base := time.Unix(1_700_002_000, 0)
	// Samples spread over 10 minutes: far outside the per-second ring,
	// fully inside the per-minute ring.
	for i := 0; i < 10; i++ {
		h.Record(base.Add(time.Duration(i)*time.Minute), HealthSample{Dur: time.Millisecond, BytesScanned: 100})
	}
	now := base.Add(9*time.Minute + 30*time.Second)
	w := h.Window(now, 15*time.Minute)
	if w.Resolution != "1m" {
		t.Fatalf("resolution = %q, want 1m", w.Resolution)
	}
	if w.Requests != 10 || w.BytesScanned != 1000 {
		t.Fatalf("requests/bytes = %d/%d, want 10/1000", w.Requests, w.BytesScanned)
	}
	// The per-second ring only reaches back two minutes from now.
	ws := h.Window(now, time.Minute)
	if ws.Resolution != "1s" || ws.Requests != 1 {
		t.Fatalf("1m window = %q/%d requests, want 1s/1", ws.Resolution, ws.Requests)
	}
}

func TestHealthWindowIdle(t *testing.T) {
	var h Health
	w := h.Window(time.Unix(1_700_003_000, 0), time.Minute)
	if w.Requests != 0 || w.ErrorRate != 0 || w.P50Ms != 0 {
		t.Fatalf("idle window not zero: %+v", w)
	}
}

// TestHealthRejectedSample: a shed request is `rejected` plus the cache
// outcome of the probe that preceded it, and nothing else — not a served
// request, not an error, no latency.
func TestHealthRejectedSample(t *testing.T) {
	var h Health
	base := time.Unix(1_700_004_000, 0)
	h.Record(base, HealthSample{Rejected: true, Err: true, Dur: time.Millisecond, CacheMiss: true})
	w := h.Window(base, time.Minute)
	if w.Rejected != 1 || w.CacheMisses != 1 {
		t.Fatalf("rejected/cache_misses = %d/%d, want 1/1", w.Rejected, w.CacheMisses)
	}
	if w.Requests != 0 || w.Errors != 0 || w.ErrorRate != 0 || w.P50Ms != 0 || w.MeanMs != 0 {
		t.Fatalf("a shed request leaked into the served figures: %+v", w)
	}
}
