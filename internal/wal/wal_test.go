package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lccs/internal/faultfs"
)

// append a mixed batch of inserts and deletes, one call per record.
func appendAll(t *testing.T, l *Log, recs []Record) uint64 {
	t.Helper()
	var last uint64
	for _, rec := range recs {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	return last
}

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		if i%4 == 3 {
			recs[i] = Record{Op: OpDelete, ID: int64(i / 2)}
		} else {
			recs[i] = Record{Op: OpInsert, ID: int64(i), Vec: []float32{float32(i), -float32(i), 0.5}}
		}
	}
	return recs
}

// collect replays everything above from into a slice, deep-copying the
// scratch-backed vectors.
func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	_, err := l.Replay(from, func(rec Record) error {
		rec.Vec = append([]float32(nil), rec.Vec...)
		out = append(out, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func checkRecords(t *testing.T, got, want []Record, firstLSN uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.LSN != firstLSN+uint64(i) {
			t.Errorf("record %d: LSN %d, want %d", i, g.LSN, firstLSN+uint64(i))
		}
		if g.Op != w.Op || g.ID != w.ID {
			t.Errorf("record %d: got op=%d id=%d, want op=%d id=%d", i, g.Op, g.ID, w.Op, w.ID)
		}
		if len(g.Vec) != len(w.Vec) {
			t.Errorf("record %d: vec length %d, want %d", i, len(g.Vec), len(w.Vec))
			continue
		}
		for j := range g.Vec {
			if g.Vec[j] != w.Vec[j] {
				t.Errorf("record %d: vec[%d] = %v, want %v", i, j, g.Vec[j], w.Vec[j])
			}
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Policy: policy, Interval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			recs := testRecords(100)
			appendAll(t, l, recs)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			checkRecords(t, collect(t, l2, 0), recs, 1)
			if got := l2.LastLSN(); got != 100 {
				t.Fatalf("LastLSN after reopen = %d, want 100", got)
			}
		})
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(200)
	appendAll(t, l, recs)
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkRecords(t, collect(t, l2, 0), recs, 1)
}

func TestReplayFromWatermarkSkips(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(50)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 30)
	checkRecords(t, got, recs[30:], 31)
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(20)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final write: append half a frame of garbage to the
	// newest segment.
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer l2.Close()
	if l2.TornBytes() == 0 {
		t.Fatal("expected torn bytes to be reported")
	}
	checkRecords(t, collect(t, l2, 0), recs, 1)
	// The log must keep accepting appends at the right LSN.
	lsn, err := l2.Append(Record{Op: OpDelete, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 21 {
		t.Fatalf("append after torn-tail recovery got LSN %d, want 21", lsn)
	}
}

func TestCorruptInteriorFrameErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(20))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the segment body.
	seg := newestSegment(t, dir)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open tolerates it (the valid prefix shrinks), but the segment now
	// holds fewer records — and if a later segment existed, replay would
	// error. Verify the prefix contract: replay yields a strict prefix.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) >= 20 {
		t.Fatalf("corruption went unnoticed: replayed %d records", len(got))
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, rec.LSN, i+1)
		}
	}
}

func TestCorruptSealedSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(100))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentPaths(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[segHeaderSize+10] ^= 0xFF
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay over a corrupt sealed segment must error")
	}
}

func TestTruncateThroughDeletesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	last := appendAll(t, l, testRecords(200))
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("expected several segments, got %d", before.Segments)
	}
	if err := l.TruncateThrough(last); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Segments != 1 {
		t.Fatalf("after full truncation want 1 (empty active) segment, got %d", after.Segments)
	}
	if after.Depth != 0 {
		t.Fatalf("depth after truncation = %d, want 0", after.Depth)
	}
	if got := len(segmentPaths(t, dir)); got != 1 {
		t.Fatalf("%d segment files on disk, want 1", got)
	}
	// Appends continue at the next LSN after truncation.
	lsn, err := l.Append(Record{Op: OpDelete, ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("append after truncation got LSN %d, want %d", lsn, last+1)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
}

func TestPartialTruncateKeepsNewerSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(200)
	appendAll(t, l, recs)
	if err := l.TruncateThrough(50); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 50)
	checkRecords(t, got, recs[50:], 51)
}

func TestConcurrentAppendersGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(Record{Op: OpInsert, ID: int64(w*perWriter + i), Vec: []float32{float32(w), float32(i)}})
				if err == nil {
					err = l.WaitDurable(lsn)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.LastLSN != writers*perWriter {
		t.Fatalf("LastLSN = %d, want %d", st.LastLSN, writers*perWriter)
	}
	if st.SyncedLSN != st.LastLSN {
		t.Fatalf("SyncedLSN = %d, want %d", st.SyncedLSN, st.LastLSN)
	}
	// Group commit: with 8 concurrent writers the fsync count must come
	// in well under one per record.
	if st.Fsyncs >= writers*perWriter {
		t.Errorf("no group commit: %d fsyncs for %d records", st.Fsyncs, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seen := make(map[int64]bool)
	if _, err := l2.Replay(0, func(rec Record) error {
		if rec.Op == OpInsert {
			seen[rec.ID] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replay found %d distinct inserts, want %d", len(seen), writers*perWriter)
	}
}

func TestSyncForcesDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	last := appendAll(t, l, testRecords(10))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SyncedLSN != last {
		t.Fatalf("SyncedLSN after Sync = %d, want %d", st.SyncedLSN, last)
	}
	if st.Fsyncs == 0 {
		t.Fatal("Sync did not fsync")
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpDelete, ID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on closed log: %v, want ErrClosed", err)
	}
	if err := l.TruncateThrough(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("TruncateThrough on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

func TestManifestRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	m, err := ReadManifest(faultfs.OS{}, dir)
	if err != nil || m != nil {
		t.Fatalf("fresh dir manifest = %v, %v; want nil, nil", m, err)
	}
	want := &Manifest{Container: "snapshot-3.lccs", Dataset: "snapshot-3.ds", LSN: 42, Generation: 3}
	if err := WriteManifest(faultfs.OS{}, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("manifest round trip: got %+v, want %+v", got, want)
	}
	// No temp file may linger.
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp manifest left behind: %v", err)
	}
	// A corrupt manifest errors rather than restarting empty.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(faultfs.OS{}, dir); err == nil {
		t.Fatal("corrupt manifest must error")
	}
}

func TestReopenAfterAbandonReplays(t *testing.T) {
	// Crash simulation: the first log is abandoned without Close — as
	// after SIGKILL — and a second Open over the same directory must
	// recover every acked record.
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(60)
	appendAll(t, l, recs) // acked under SyncAlways: all must survive
	// No Close. Reopen.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkRecords(t, collect(t, l2, 0), recs, 1)
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segmentPaths(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1]
}

func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestStatsDepthTracksCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, testRecords(10))
	l.SetCheckpointLSN(4)
	if d := l.Stats().Depth; d != 6 {
		t.Fatalf("depth = %d, want 6", d)
	}
	if p := l.Stats().Policy; p != "none" {
		t.Fatalf("policy = %q, want none", p)
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]SyncPolicy{"always": SyncAlways, " Interval ": SyncInterval, "NONE": SyncNone} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy must reject unknown names")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, base := range []uint64{1, 255, 1 << 40} {
		name := segName(base)
		got, ok := parseSegName(name)
		if !ok || got != base {
			t.Fatalf("parseSegName(%q) = %d, %v; want %d", name, got, ok, base)
		}
	}
	for _, bad := range []string{"x.wal", "0000000000000001.log", fmt.Sprintf("%017x.wal", 1)} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%q) accepted", bad)
		}
	}
}

// TestInsertAttrsRoundTrip pins the OpInsertAttrs frame: the opaque
// attribute blob survives append → replay byte for byte, alongside
// plain inserts and deletes, and empty blobs are legal.
func TestInsertAttrsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: OpInsertAttrs, ID: 0, Vec: []float32{1, 2, 3}, Attrs: []byte("blob-zero")},
		{Op: OpInsert, ID: 1, Vec: []float32{4, 5, 6}},
		{Op: OpInsertAttrs, ID: 2, Vec: []float32{7, 8, 9}, Attrs: []byte{}},
		{Op: OpDelete, ID: 1},
		{Op: OpInsertAttrs, ID: 3, Vec: []float32{0}, Attrs: []byte{0xFF, 0x00, 0x7F}},
	}
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var got []Record
	if _, err := l.Replay(0, func(rec Record) error {
		rec.Vec = append([]float32(nil), rec.Vec...)
		rec.Attrs = append([]byte(nil), rec.Attrs...)
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		want := recs[i]
		if rec.Op != want.Op || rec.ID != want.ID {
			t.Fatalf("record %d: got op=%d id=%d, want op=%d id=%d", i, rec.Op, rec.ID, want.Op, want.ID)
		}
		if len(rec.Vec) != len(want.Vec) {
			t.Fatalf("record %d: vec length %d, want %d", i, len(rec.Vec), len(want.Vec))
		}
		for j := range rec.Vec {
			if rec.Vec[j] != want.Vec[j] {
				t.Fatalf("record %d: vec[%d] = %v, want %v", i, j, rec.Vec[j], want.Vec[j])
			}
		}
		if want.Op == OpInsertAttrs {
			if string(rec.Attrs) != string(want.Attrs) {
				t.Fatalf("record %d: attrs %q, want %q", i, rec.Attrs, want.Attrs)
			}
		} else if rec.Attrs != nil {
			t.Fatalf("record %d: unexpected attrs %q", i, rec.Attrs)
		}
	}
}
