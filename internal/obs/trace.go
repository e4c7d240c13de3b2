// Package obs is the zero-dependency observability layer: pooled
// per-request traces with typed spans, lock-free per-stage latency
// histograms rendered in Prometheus text exposition, and a
// ring-buffer slow-query log with reservoir sampling.
//
// The package is allocation-disciplined by construction: every Trace
// method is safe on a nil receiver and compiles down to a single
// pointer check, so the steady-state untraced search path pays no
// clock reads, no allocations, and no synchronization. Traced
// requests draw a Trace from a sync.Pool and reuse its span slice
// across requests.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented phase of the request or write
// lifecycle. Stages double as the `stage` label on the
// lccs_stage_seconds histogram family.
type Stage uint8

const (
	// Read path.
	StageAdmission  Stage = iota // wait in the admission semaphore queue
	StageCache                   // result-cache probe (hit or miss)
	StageQuery                   // whole backend search call (parent of the scans and merge)
	StageShardScan               // one CSA scan of one shard
	StageBufferScan              // linear scan of the unindexed delta buffer
	StageMerge                   // final sort of the one top-k collector + external-id mapping
	StageEncode                  // the cache's copy of the result + response serialisation
	StageDecode                  // request body read + parse

	// Durable write path.
	StageIndexApply // in-memory DynamicIndex apply under the write lock
	StageWALAppend  // journal record append (buffered, pre-fsync)
	StageWALFsync   // group-commit wait until the record is durable

	// Checkpoint phases.
	StageCkptSnapshot // in-memory snapshot build under the write lock
	StageCkptWrite    // snapshot file write + fsync
	StageCkptManifest // atomic MANIFEST swap
	StageCkptTruncate // WAL truncation + orphan sweep

	// Startup.
	StageRecoveryReplay // WAL replay during OpenDurable

	// Hybrid-query path.
	StageCursorResume // a resumed cursor page: token decode + the query it reruns

	numStages
)

var stageNames = [numStages]string{
	StageAdmission:      "admission",
	StageCache:          "cache",
	StageQuery:          "query",
	StageShardScan:      "shard_scan",
	StageBufferScan:     "buffer_scan",
	StageMerge:          "merge",
	StageEncode:         "encode",
	StageDecode:         "decode",
	StageIndexApply:     "index_apply",
	StageWALAppend:      "wal_append",
	StageWALFsync:       "wal_fsync",
	StageCkptSnapshot:   "ckpt_snapshot",
	StageCkptWrite:      "ckpt_write",
	StageCkptManifest:   "ckpt_manifest",
	StageCkptTruncate:   "ckpt_truncate",
	StageRecoveryReplay: "recovery_replay",
	StageCursorResume:   "cursor_resume",
}

// String returns the stage's exposition label value.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one timed phase inside a Trace. Start and Dur are offsets
// relative to the trace start, so a span tree is self-contained and
// serializes compactly. Shard is -1 for spans not tied to a shard.
// Rows and Cands carry stage-specific counters: for a CSA shard scan,
// Rows is the number of hash-string comparisons performed by the
// circular binary searches and Cands the number of candidates
// verified with exact distances; for a buffer scan both count the
// vectors scanned (every buffered vector is distance-verified).
type Span struct {
	Stage  Stage
	Shard  int // shard ordinal, or -1
	Parent int // index of parent span within the trace, or -1
	Start  time.Duration
	Dur    time.Duration
	Rows   int64
	Cands  int64
	// Bytes is the vector-block memory traffic attributed to the span
	// (scan and gather kernels); 0 for stages that touch no vectors.
	Bytes int64
}

// Trace accumulates spans for a single traced request. All methods
// are nil-safe: a nil *Trace is the untraced fast path and every
// method returns immediately. A mutex guards the span slice, so a
// Trace may be written from more than one goroutine; a search records
// all its spans from the goroutine that runs it.
type Trace struct {
	ID    uint64
	start time.Time

	mu    sync.Mutex
	spans []Span
}

var (
	tracePool = sync.Pool{New: func() any {
		poolMisses.Add(1)
		return &Trace{spans: make([]Span, 0, 16)}
	}}
	poolGets   atomic.Uint64
	poolMisses atomic.Uint64
)

// GetTrace draws a reset Trace from the pool and stamps it with the
// given request id. Pair with PutTrace.
func GetTrace(id uint64) *Trace { return GetTraceAt(id, time.Now()) }

// GetTraceAt is GetTrace for a trace that began at start: a handler
// that decides to trace only once it has parsed the request still
// records the parse as a span with a non-negative start.
func GetTraceAt(id uint64, start time.Time) *Trace {
	poolGets.Add(1)
	t := tracePool.Get().(*Trace)
	t.ID = id
	t.start = start
	t.spans = t.spans[:0]
	return t
}

// PutTrace returns a Trace to the pool. Safe on nil.
func PutTrace(t *Trace) {
	if t == nil {
		return
	}
	tracePool.Put(t)
}

// PoolStats reports cumulative Trace pool gets and misses (a miss
// allocated a fresh Trace). The hit rate is (gets-misses)/gets.
func PoolStats() (gets, misses uint64) {
	return poolGets.Load(), poolMisses.Load()
}

// Start returns the wall-clock instant the trace began.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StartSpan opens a span and returns its index for FinishSpan.
// parent is the index of the enclosing span, or -1 for a root span.
// Returns -1 on a nil trace.
func (t *Trace) StartSpan(stage Stage, parent int) int {
	return t.StartShardSpan(stage, parent, -1)
}

// StartShardSpan is StartSpan carrying a shard ordinal.
func (t *Trace) StartShardSpan(stage Stage, parent, shard int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, Span{
		Stage:  stage,
		Shard:  shard,
		Parent: parent,
		Start:  time.Since(t.start),
		Dur:    -1,
	})
	t.mu.Unlock()
	return idx
}

// FinishSpan closes the span at idx and returns its duration, so the
// caller can feed the same measurement into the stage histogram
// without a second clock read. No-op (returning 0) on a nil trace.
func (t *Trace) FinishSpan(idx int) time.Duration {
	return t.FinishSpanN(idx, 0, 0)
}

// FinishSpanN is FinishSpan recording stage counters.
func (t *Trace) FinishSpanN(idx int, rows, cands int64) time.Duration {
	return t.FinishSpanCost(idx, rows, cands, 0)
}

// FinishSpanCost is FinishSpanN also recording the span's vector-block
// byte traffic.
func (t *Trace) FinishSpanCost(idx int, rows, cands, bytes int64) time.Duration {
	if t == nil || idx < 0 {
		return 0
	}
	now := time.Since(t.start)
	t.mu.Lock()
	sp := &t.spans[idx]
	sp.Dur = now - sp.Start
	sp.Rows = rows
	sp.Cands = cands
	sp.Bytes = bytes
	d := sp.Dur
	t.mu.Unlock()
	return d
}

// AddSpan records an already-measured span (the caller timed the
// phase itself, typically because untraced requests measure it too).
func (t *Trace) AddSpan(stage Stage, parent int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Stage:  stage,
		Shard:  -1,
		Parent: parent,
		Start:  start.Sub(t.start),
		Dur:    dur,
	})
	t.mu.Unlock()
}

// Len reports the number of recorded spans. Zero on nil.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	return n
}

// Cap reports the capacity of the span slice (for pool-reuse tests).
func (t *Trace) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.spans)
}

// SpanNode is the JSON form of a span, with children nested.
type SpanNode struct {
	Stage    string     `json:"stage"`
	Shard    *int       `json:"shard,omitempty"`
	StartUS  float64    `json:"start_us"`
	DurUS    float64    `json:"dur_us"`
	Rows     int64      `json:"rows,omitempty"`
	Cands    int64      `json:"candidates,omitempty"`
	Bytes    int64      `json:"bytes,omitempty"`
	Children []SpanNode `json:"children,omitempty"`
}

// Tree renders the recorded spans as a forest of SpanNodes, children
// nested under their parents in recording order. Spans never
// finished render with dur_us -1. Returns nil on a nil trace.
func (t *Trace) Tree() []SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	return buildTree(spans)
}

func buildTree(spans []Span) []SpanNode {
	if len(spans) == 0 {
		return nil
	}
	nodes := make([]SpanNode, len(spans))
	for i, sp := range spans {
		nodes[i] = SpanNode{
			Stage:   sp.Stage.String(),
			StartUS: float64(sp.Start) / float64(time.Microsecond),
			DurUS:   float64(sp.Dur) / float64(time.Microsecond),
			Rows:    sp.Rows,
			Cands:   sp.Cands,
			Bytes:   sp.Bytes,
		}
		if sp.Shard >= 0 {
			sh := sp.Shard
			nodes[i].Shard = &sh
		}
	}
	// Attach children to parents in a reverse pass so each child is
	// fully assembled (with its own children) before being appended.
	var roots []SpanNode
	for i := len(spans) - 1; i >= 0; i-- {
		p := spans[i].Parent
		if p >= 0 && p < len(spans) && p != i {
			// Prepend to keep recording order among siblings.
			nodes[p].Children = append([]SpanNode{nodes[i]}, nodes[p].Children...)
		}
	}
	for i, sp := range spans {
		if sp.Parent < 0 || sp.Parent >= len(spans) || sp.Parent == i {
			roots = append(roots, nodes[i])
		}
	}
	return roots
}
