package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTracePoolReuse(t *testing.T) {
	// A trace drawn from the pool after a Put must come back reset:
	// zero spans, new id, and no leaked span data from the previous
	// request. Run single-goroutine so the pool round-trips.
	tr := GetTrace(1)
	root := tr.StartSpan(StageQuery, -1)
	for i := 0; i < 8; i++ {
		sp := tr.StartShardSpan(StageShardScan, root, i)
		tr.FinishSpanN(sp, 100, 10)
	}
	tr.FinishSpan(root)
	if tr.Len() != 9 {
		t.Fatalf("Len = %d, want 9", tr.Len())
	}
	grownCap := tr.Cap()
	PutTrace(tr)

	tr2 := GetTrace(2)
	if tr2.Len() != 0 {
		t.Fatalf("reused trace has %d stale spans", tr2.Len())
	}
	if tr2.ID != 2 {
		t.Fatalf("reused trace id = %d, want 2", tr2.ID)
	}
	if tr2 == tr && tr2.Cap() != grownCap {
		t.Fatalf("reused trace lost its grown capacity: %d != %d", tr2.Cap(), grownCap)
	}
	if tree := tr2.Tree(); tree != nil {
		t.Fatalf("reused trace leaked a span tree: %+v", tree)
	}
	PutTrace(tr2)
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	idx := tr.StartSpan(StageQuery, -1)
	if idx != -1 {
		t.Fatalf("nil StartSpan = %d, want -1", idx)
	}
	if d := tr.FinishSpanN(idx, 1, 1); d != 0 {
		t.Fatalf("nil FinishSpanN = %v, want 0", d)
	}
	tr.AddSpan(StageCache, -1, time.Now(), time.Millisecond)
	if tr.Len() != 0 || tr.Tree() != nil {
		t.Fatal("nil trace recorded spans")
	}
	PutTrace(tr) // must not panic
}

func TestTraceTreeNesting(t *testing.T) {
	tr := GetTrace(7)
	a := tr.StartSpan(StageAdmission, -1)
	tr.FinishSpan(a)
	q := tr.StartSpan(StageQuery, -1)
	s0 := tr.StartShardSpan(StageShardScan, q, 0)
	tr.FinishSpanN(s0, 42, 7)
	s1 := tr.StartShardSpan(StageShardScan, q, 1)
	tr.FinishSpanN(s1, 40, 5)
	m := tr.StartSpan(StageMerge, q)
	tr.FinishSpan(m)
	tr.FinishSpan(q)

	tree := tr.Tree()
	if len(tree) != 2 {
		t.Fatalf("want 2 roots, got %d", len(tree))
	}
	if tree[0].Stage != "admission" || tree[1].Stage != "query" {
		t.Fatalf("root order wrong: %s, %s", tree[0].Stage, tree[1].Stage)
	}
	kids := tree[1].Children
	if len(kids) != 3 {
		t.Fatalf("query should have 3 children, got %d", len(kids))
	}
	if kids[0].Stage != "shard_scan" || kids[0].Shard == nil || *kids[0].Shard != 0 {
		t.Fatalf("first child wrong: %+v", kids[0])
	}
	if kids[0].Rows != 42 || kids[0].Cands != 7 {
		t.Fatalf("shard 0 counters wrong: %+v", kids[0])
	}
	if kids[2].Stage != "merge" {
		t.Fatalf("last child = %s, want merge", kids[2].Stage)
	}
	PutTrace(tr)
}

func TestSlowLogRingEvictionOrder(t *testing.T) {
	sl := NewSlowLog(3, 0, time.Millisecond)
	for i := 1; i <= 5; i++ {
		sl.Record(SlowEntry{
			RequestID: uint64(i),
			DurUS:     float64(i) * 2000, // all over the 1ms threshold
		}, nil)
	}
	slow, _ := sl.Snapshot()
	if len(slow) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(slow))
	}
	// Newest first; the two oldest (1, 2) were evicted.
	want := []uint64{5, 4, 3}
	for i, e := range slow {
		if e.RequestID != want[i] {
			t.Fatalf("slot %d = request %d, want %d", i, e.RequestID, want[i])
		}
	}
}

func TestSlowLogThresholdAndReservoir(t *testing.T) {
	sl := NewSlowLog(4, 2, 10*time.Millisecond)
	// Fast untraced requests are dropped entirely — and must not pay
	// for span-tree construction on the way out.
	sl.Record(SlowEntry{RequestID: 1, DurUS: 100}, func() []SpanNode {
		t.Fatal("spans materialized for a rejected entry")
		return nil
	})
	// Fast traced requests go to the reservoir, bounded at cap.
	spanCalls := 0
	for i := 2; i <= 20; i++ {
		sl.Record(SlowEntry{RequestID: uint64(i), DurUS: 100, Traced: true}, func() []SpanNode {
			spanCalls++
			return []SpanNode{{Stage: "query"}}
		})
	}
	if spanCalls >= 19 {
		t.Fatalf("spans materialized for all %d offers; want lazy admission-only calls", spanCalls)
	}
	// Slow request (traced or not) enters the ring.
	sl.Record(SlowEntry{RequestID: 99, DurUS: 20000}, nil)
	slow, sample := sl.Snapshot()
	if len(slow) != 1 || slow[0].RequestID != 99 {
		t.Fatalf("slow = %+v, want just request 99", slow)
	}
	if len(sample) != 2 {
		t.Fatalf("reservoir holds %d, want 2", len(sample))
	}
	for _, e := range sample {
		if !e.Traced || e.RequestID == 1 {
			t.Fatalf("reservoir admitted a bad entry: %+v", e)
		}
	}
}

func TestStageHistogramBuckets(t *testing.T) {
	before := StageCount(StageCkptManifest)
	ObserveDur(StageCkptManifest, 500*time.Nanosecond) // bucket 0 (≤1µs)
	ObserveDur(StageCkptManifest, 3*time.Microsecond)  // bucket 2 (≤4µs)
	ObserveDur(StageCkptManifest, time.Hour)           // +Inf overflow
	if got := StageCount(StageCkptManifest); got != before+3 {
		t.Fatalf("count = %d, want %d", got, before+3)
	}
	var e Expo
	e.Family("lccs_stage_seconds", "Time spent per request-lifecycle stage.", Histogram)
	WriteStageMetrics(&e)
	out := string(e.Bytes())
	for _, want := range []string{
		`lccs_stage_seconds_bucket{stage="ckpt_manifest",le="1e-06"}`,
		`lccs_stage_seconds_bucket{stage="ckpt_manifest",le="+Inf"}`,
		`lccs_stage_seconds_sum{stage="ckpt_manifest"}`,
		`lccs_stage_seconds_count{stage="ckpt_manifest"}`,
		`lccs_stage_seconds_count{stage="shard_scan"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stage metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestStageBucketIdx(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{16 * time.Second, 24},
		{17 * time.Second, 25}, // +Inf
		{time.Hour, 25},
	}
	for _, c := range cases {
		if got := bucketIdx(c.d); got != c.want {
			t.Fatalf("bucketIdx(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestExpoFormat pins the exposition writer's rules: HELP and TYPE once
// per family and only before a first sample, labels in the order given
// with the format's three escapes (a tab stays a tab — %q would write
// \t, which a Prometheus parser refuses), integers in full.
func TestExpoFormat(t *testing.T) {
	var e Expo
	e.Family("lccs_empty", "Never sampled.", Gauge)
	e.Family("lccs_things_total", "Things.", Counter)
	e.Sample("", 12345678, Label{"collection", "a\"b\\c\nd\te"}, Label{"code", "200"})
	e.Sample("", 0.25)
	e.Sample("", math.Inf(1))
	want := "# HELP lccs_things_total Things.\n# TYPE lccs_things_total counter\n" +
		"lccs_things_total{collection=\"a\\\"b\\\\c\\nd\te\",code=\"200\"} 12345678\n" +
		"lccs_things_total 0.25\nlccs_things_total +Inf\n"
	if got := string(e.Bytes()); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
