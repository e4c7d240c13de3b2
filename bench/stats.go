package main

import (
	"sort"
	"time"
)

// quantile returns the p-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// Metric is one reported number. N is the number of samples behind it and
// Q1/Q3 their quartiles, where the value is a statistic of many samples.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// medianMetric reports the median of xs with its count and quartiles.
func medianMetric(xs []float64, unit string) Metric {
	s := sortedCopy(xs)
	return Metric{Value: quantile(s, 0.5), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// blocks is how many equal slices a timed phase is cut into. Throughput
// is the median of the slices' rates and the tail latency the median of
// the slices' p99s, so one noisy-neighbour burst cannot move a metric.
const blocks = 10

// minTailSamples is the fewest samples a slice needs for its own p99 (ten
// samples beyond the percentile); below it the whole phase's p99 is used.
const minTailSamples = 1000

// samples records one client's operations in a timed phase: when each one
// ended, relative to the start of the phase, and how long it took.
type samples struct {
	endNs []int64
	latNs []int64
}

// shift moves every operation later by d: the timed phases of a run's
// successive set-ups are laid end to end on one timeline.
func (s *samples) shift(d time.Duration) *samples {
	for i := range s.endNs {
		s.endNs[i] += int64(d)
	}
	return s
}

func (s *samples) add(end, lat time.Duration) {
	s.endNs = append(s.endNs, int64(end))
	s.latNs = append(s.latNs, int64(lat))
}

// phaseStats is what a timed phase reports.
type phaseStats struct {
	rate Metric // operations per second, median over the slices
	p50  Metric // µs, median over all operations
	p99  Metric // µs, median over the slices' p99s (or the whole phase's)
}

// summarize cuts the window into equal slices and computes the phase's
// rate from every client's operations and its latencies from those in
// timed (a subset when the phase mixes operation types).
func summarize(all, timed []*samples, window time.Duration) phaseStats {
	slice := int64(window) / blocks
	at := func(end int64) int { return int(min(end/slice, blocks-1)) }
	counts := make([]float64, blocks)
	for _, s := range all {
		for _, e := range s.endNs {
			counts[at(e)]++
		}
	}
	for i := range counts {
		counts[i] /= time.Duration(slice).Seconds()
	}
	var lat []float64
	perBlock := make([][]float64, blocks)
	for _, s := range timed {
		for i, l := range s.latNs {
			us := float64(l) / 1e3
			lat = append(lat, us)
			b := at(s.endNs[i])
			perBlock[b] = append(perBlock[b], us)
		}
	}
	sort.Float64s(lat)
	st := phaseStats{rate: medianMetric(counts, "ops/s")}
	st.p50 = Metric{Value: quantile(lat, 0.5), Unit: "us", N: len(lat), Q1: quantile(lat, 0.25), Q3: quantile(lat, 0.75)}
	st.p99 = Metric{Value: quantile(lat, 0.99), Unit: "us", N: len(lat)}
	var p99s []float64
	for _, b := range perBlock {
		if len(b) < minTailSamples {
			return st
		}
		sort.Float64s(b)
		p99s = append(p99s, quantile(b, 0.99))
	}
	st.p99 = medianMetric(p99s, "us")
	return st
}

// closedLoop runs op back to back on one goroutine for the given window,
// after a warm-up of a tenth of it, and records every timed call. op
// receives a running index and reports failure by returning false.
func closedLoop(window time.Duration, op func(i int) bool) (s *samples, failed int64) {
	s = &samples{}
	i := 0
	for start := time.Now(); time.Since(start) < window/10; i++ {
		op(i)
	}
	start := time.Now()
	for t0 := start; ; i++ {
		ok := op(i)
		t1 := time.Now()
		s.add(t1.Sub(start), t1.Sub(t0))
		if !ok {
			failed++
		}
		if t1.Sub(start) >= window {
			return s, failed
		}
		t0 = t1
	}
}
