package main

import (
	"fmt"
	"time"

	"lccs"
)

// churnStats is what one pass of the churn schedule measured.
type churnStats struct {
	setup, memMB         float64
	ops                  int // phase 1: adds + deletes + searches
	phase1               time.Duration
	add, del, wait       time.Duration // phase 1 totals over the calls
	tombstones, buffered int
	shards               int
	phase2               *samples
	recall               float64
	truthQ               int
	compact              time.Duration
	afterRebuildP50      float64 // µs, the phase-2 queries again after Rebuild (traced)
}

// churn drives a DynamicIndex over the first n0 rows. Phase 1 is a fixed
// number of rounds of Add, WaitRebuild, Delete(random live id), with a
// search every 4th round; waiting after every Add makes the index state a
// function of the round number alone, whatever the machine's speed. Phase
// 2 searches that fixed state for the window. Then the index is
// compacted and, when traced, searched again.
func (r *run) churn(n0, rounds int, window time.Duration) (*churnStats, error) {
	sp := r.spec
	base := r.data[:n0]
	d, setup, mem, err := timedSetup(func() (*lccs.DynamicIndex, error) {
		return lccs.NewDynamicIndex(base, r.config(), 0)
	})
	if err != nil {
		return nil, err
	}
	cs := &churnStats{setup: setup, memMB: mem}

	rd := newRand(r.seed, sp.name, "churn")
	live := make([]int, n0, n0+rounds)
	for i := range live {
		live[i] = i
	}
	dead := make([]bool, n0+rounds)
	vectorOf := func(id int) []float32 {
		switch {
		case id < 0 || id >= len(dead) || dead[id]:
			return nil
		case id < n0:
			return base[id]
		}
		return r.inserts[id-n0]
	}
	var dst []lccs.Neighbor
	search := func(q []float32) bool {
		var err error
		dst, err = d.SearchInto(q, sp.k, dst)
		if err != nil || !wellFormed(dst, sp.k) {
			return false
		}
		for _, nb := range dst {
			if vectorOf(nb.ID) == nil {
				return false
			}
		}
		return true
	}

	start := time.Now()
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		id, err := d.Add(r.inserts[round])
		t1 := time.Now()
		d.WaitRebuild()
		t2 := time.Now()
		if err != nil || id != n0+round {
			r.fail("round %d: Add returned id %d, err %v", round, id, err)
		}
		live = append(live, n0+round)
		j := rd.IntN(len(live))
		victim := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		t3 := time.Now()
		ok := d.Delete(victim)
		t4 := time.Now()
		if !ok {
			r.fail("round %d: Delete(%d) of a live id reported false", round, victim)
		}
		dead[victim] = true
		cs.add += t1.Sub(t0)
		cs.wait += t2.Sub(t1)
		cs.del += t4.Sub(t3)
		cs.ops += 2
		if round%4 == 3 {
			cs.ops++
			if !search(r.queries[(round/4)%len(r.queries)]) {
				r.fail("round %d: search returned a malformed result or a deleted id", round)
			}
		}
	}
	cs.phase1 = time.Since(start)
	r.res.Attempted += int64(cs.ops)
	cs.tombstones, cs.buffered, cs.shards = d.Deleted(), d.Buffered(), d.Shards()

	// Phase 2: the fixed state, scored against brute force over the live
	// rows and then searched for the window.
	all := append(append([][]float32(nil), base...), r.inserts[:rounds]...)
	mask := make([]bool, len(all))
	for _, id := range live {
		mask[id] = true
	}
	cs.truthQ = min(sp.truthQ, len(r.queries))
	truth := bruteForce(all, mask, r.queries[:cs.truthQ], sp.k)
	cs.recall = r.recall(d, truth, vectorOf)
	s, failed := closedLoop(window, func(i int) bool { return search(r.queries[i%len(r.queries)]) })
	cs.phase2 = s
	r.res.Attempted += int64(len(s.latNs))
	r.failN(failed, "%d phase-2 searches returned a malformed result or a deleted id", failed)

	t0 := time.Now()
	if err := d.Rebuild(); err != nil {
		return nil, fmt.Errorf("Rebuild: %w", err)
	}
	cs.compact = time.Since(t0)
	if r.trace {
		after := interleave(r.queries, window/4, func(q []float32) {
			if !search(q) {
				r.fail("after Rebuild: search returned a malformed result or a deleted id")
			}
		})
		cs.afterRebuildP50 = median(after[0])
	}
	return cs, nil
}

// checkChurnExhaustive runs a short churn on a small index whose budget
// covers every row: after Rebuild its answers must equal brute force over
// the live rows.
func (r *run) checkChurnExhaustive() error {
	n0 := min(2000, len(r.data))
	rounds := min(300, len(r.inserts))
	cfg := r.config()
	cfg.Budget = 2 * (n0 + rounds)
	d, err := lccs.NewDynamicIndex(r.data[:n0], cfg, 0)
	if err != nil {
		return err
	}
	rd := newRand(r.seed, r.spec.name, "exhaustive")
	all := append(append([][]float32(nil), r.data[:n0]...), r.inserts[:rounds]...)
	mask := make([]bool, len(all))
	for i := 0; i < n0; i++ {
		mask[i] = true
	}
	for round := 0; round < rounds; round++ {
		if _, err := d.Add(r.inserts[round]); err != nil {
			return err
		}
		mask[n0+round] = true
		victim := rd.IntN(n0 + round + 1)
		if d.Delete(victim) != mask[victim] {
			r.fail("exhaustive churn: Delete(%d) disagrees with the live set", victim)
		}
		mask[victim] = false
	}
	if err := d.Rebuild(); err != nil {
		return err
	}
	qs := r.queries[:min(20, len(r.queries))]
	truth := bruteForce(all, mask, qs, r.spec.k)
	var dst []lccs.Neighbor
	for qi, q := range qs {
		dst, err = d.SearchInto(q, r.spec.k, dst)
		r.res.Attempted++
		got := make([]float64, 0, len(dst))
		for _, nb := range dst {
			if nb.ID < 0 || nb.ID >= len(all) || !mask[nb.ID] {
				r.fail("exhaustive churn, query %d: returned deleted id %d", qi, nb.ID)
				continue
			}
			got = append(got, dist(all[nb.ID], q))
		}
		if err != nil || !truth[qi].equal(got) {
			r.fail("exhaustive churn, query %d: result differs from brute force over the live rows", qi)
		}
	}
	return nil
}

// runChurn is the end-to-end run of the churn workload: the whole
// schedule once per set-up.
func (r *run) runChurn() error {
	if err := r.checkChurnExhaustive(); err != nil {
		return err
	}
	var (
		cs            *churnStats
		setups, rates []float64
		phase2        []*samples
		ops           int
	)
	share := r.windowDur() / 2 / churnSetups
	for rep := 0; rep < churnSetups; rep++ {
		var err error
		if cs, err = r.churn(r.spec.n, r.spec.rounds, share); err != nil {
			return err
		}
		setups = append(setups, cs.setup)
		rates = append(rates, float64(cs.ops)/cs.phase1.Seconds())
		phase2 = append(phase2, cs.phase2.shift(time.Duration(rep)*share))
		ops += cs.ops
	}
	st := summarize(phase2, phase2, share*churnSetups)
	qps := medianMetric(rates, "")
	qps.N = ops
	r.set("setup_s", medianMetric(setups, ""))
	r.set("qps", qps)
	r.set("search_p50_us", st.p50)
	r.set("search_p99_us", st.p99)
	r.set("recall_at_10", Metric{Value: cs.recall, N: cs.truthQ})
	r.set("mem_mb", Metric{Value: cs.memMB})
	return nil
}

// probeDynamic is the traced view of the dynamic layer: the workload's own
// schedule on churn-d16, a short one over the first rows elsewhere.
func (r *run) probeDynamic() error {
	n0, rounds, window := r.spec.probeN, r.spec.probeRounds, r.windowDur()/8
	if r.spec.kind == "churn" {
		n0, rounds, window = r.spec.n, r.spec.rounds, r.windowDur()/2
	}
	cs, err := r.churn(n0, rounds, window)
	if err != nil {
		return err
	}
	st := summarize([]*samples{cs.phase2}, []*samples{cs.phase2}, window)
	p50 := st.p50
	calls := float64(rounds)
	if r.spec.kind == "churn" {
		r.set("search_p99_us", st.p99)
	}
	r.set("lccs.dynamic_add_us", Metric{Value: us(cs.add) / calls, N: rounds})
	r.set("lccs.dynamic_delete_us", Metric{Value: us(cs.del) / calls, N: rounds})
	r.set("lccs.dynamic_rebuild_wait_s", Metric{Value: cs.wait.Seconds(), N: rounds})
	r.set("lccs.dynamic_compact_s", Metric{Value: cs.compact.Seconds()})
	r.set("lccs.dynamic_tombstones", Metric{Value: float64(cs.tombstones)})
	r.set("lccs.dynamic_buffered", Metric{Value: float64(cs.buffered)})
	r.set("lccs.dynamic_shards", Metric{Value: float64(cs.shards)})
	r.set("lccs.dynamic_tombstone_slowdown", Metric{Value: p50.Value / cs.afterRebuildP50, N: p50.N})
	return nil
}
