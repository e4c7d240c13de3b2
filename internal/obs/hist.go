package obs

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// numBuckets is the number of finite histogram buckets: upper bounds
// 2^i µs, i = 0..24 (1µs to ~16.8s, ×2 per bucket); one more slot
// holds +Inf.
const numBuckets = 25

// bucketBound returns the i-th upper bound in seconds.
func bucketBound(i int) float64 {
	return float64(uint64(1)<<uint(i)) * 1e-6
}

// bucketIdx maps a duration to the first bucket whose bound is >= d.
// Bound i is 2^i µs, so the index is the bit length of the duration in
// whole microseconds (ceiling division on the ns part).
func bucketIdx(d time.Duration) int {
	us := uint64((d + 999) / 1000) // ceil to µs
	if us <= 1 {
		return 0
	}
	idx := bits.Len64(us - 1) // smallest i with 2^i >= us
	if idx > numBuckets {
		return numBuckets // +Inf
	}
	return idx
}

// quantile reads quantile q from bucket counts: the upper bound, in
// seconds, of the bucket holding the q-th observation — quantized, never
// understated — or the largest finite bound when that bucket is +Inf; 0
// when nothing was observed. Hist.Quantile and the health windows both
// read by this rule, so over the same observations they agree to the
// digit.
func quantile(counts *[numBuckets + 1]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	// floor(q·N)+1 rather than nearest-rank, so a 1-in-100 outlier is
	// visible in p99 of exactly 100 samples.
	rank := uint64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return bucketBound(i)
		}
	}
	return bucketBound(numBuckets - 1)
}

// Hist is a latency histogram over the exponential buckets above.
// Buckets and sum are plain atomics, so Observe is lock-free and safe
// from any goroutine, including the WAL writer and checkpoint loops. The
// zero value is ready to use. One Hist per stage backs
// lccs_stage_seconds and one backs lccs_request_seconds.
type Hist struct {
	buckets [numBuckets + 1]atomic.Uint64 // last is +Inf
	sumNS   atomic.Int64
}

// Observe records one measurement; a negative duration counts as zero.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIdx(d)].Add(1)
	h.sumNS.Add(int64(d))
}

// counts loads the buckets and their total.
func (h *Hist) counts() (c [numBuckets + 1]uint64, total uint64) {
	for i := range h.buckets {
		c[i] = h.buckets[i].Load()
		total += c[i]
	}
	return c, total
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 {
	_, total := h.counts()
	return total
}

// Sum returns the total observed time.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Quantile returns quantile q (0 < q < 1) in seconds.
func (h *Hist) Quantile(q float64) float64 {
	c, total := h.counts()
	return quantile(&c, total, q)
}

// Write renders h as one series of the histogram family e is on: a
// cumulative _bucket sample per bound, then _sum and _count, each
// carrying labels.
func (h *Hist) Write(e *Expo, labels ...Label) {
	c, total := h.counts()
	withLE := append(labels[:len(labels):len(labels)], Label{Name: "le"})
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += c[i]
		withLE[len(labels)].Value = strconv.FormatFloat(bucketBound(i), 'g', -1, 64)
		e.Sample("_bucket", float64(cum), withLE...)
	}
	withLE[len(labels)].Value = "+Inf"
	e.Sample("_bucket", float64(total), withLE...)
	e.Sample("_sum", h.Sum().Seconds(), labels...)
	e.Sample("_count", float64(total), labels...)
}

// stageHists are the per-stage histograms behind lccs_stage_seconds.
var stageHists [numStages]Hist

// ObserveDur records one measurement of the given stage.
func ObserveDur(stage Stage, d time.Duration) {
	if stage < numStages {
		stageHists[stage].Observe(d)
	}
}

// ObserveSince is ObserveDur(stage, time.Since(t0)).
func ObserveSince(stage Stage, t0 time.Time) {
	ObserveDur(stage, time.Since(t0))
}

// StageCount returns the number of observations for a stage.
func StageCount(stage Stage) uint64 {
	if stage >= numStages {
		return 0
	}
	return stageHists[stage].Count()
}

// WriteStageMetrics renders every stage's histogram as a series,
// labelled stage=..., of the family e is on.
func WriteStageMetrics(e *Expo) {
	for s := Stage(0); s < numStages; s++ {
		stageHists[s].Write(e, Label{Name: "stage", Value: s.String()})
	}
}
