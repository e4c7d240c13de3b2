package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share its id; Parent is the index of
// the span that caused this one, -1 for a request's root.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the log: the first requests of a traced run are kept
// in full, later ones only feed the per-layer totals.
const maxSpans = 50_000

// spanLog keeps spans in memory and writes them out when the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records one span and returns its index, to parent children on.
func (l *spanLog) add(name string, request, parent int, start, end time.Time) int {
	if len(l.spans) >= maxSpans {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Request: request, Parent: parent,
		StartNs: int64(start.Sub(l.epoch)), EndNs: int64(end.Sub(l.epoch))})
	return len(l.spans) - 1
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
