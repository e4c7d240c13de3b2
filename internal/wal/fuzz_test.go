package wal

import (
	"os"
	"path/filepath"
	"testing"

	"lccs/internal/faultfs"
)

// FuzzSegmentParse feeds arbitrary bytes through both segment-parsing
// paths — the tail scan that Open runs and a full strict replay — and
// asserts the contract of satellite-grade robustness: truncated or
// corrupt input must yield an error or a shortened valid prefix, never
// a panic, and the two paths must agree that the valid prefix is a
// prefix.
func FuzzSegmentParse(f *testing.F) {
	// Seed with a well-formed two-record segment and a few mutants.
	valid := appendSegHeader(nil, 1)
	valid = appendFrame(valid, Record{LSN: 1, Op: OpInsert, ID: 0, Vec: []float32{1, 2, 3}})
	valid = appendFrame(valid, Record{LSN: 2, Op: OpDelete, ID: 0})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail
	f.Add(valid[:segHeaderSize])          // header only
	f.Add(valid[:4])                      // torn header
	f.Add([]byte{})                       // empty file
	f.Add(append([]byte("LCCSWAL1"), 0))  // short base
	f.Add(append(valid, valid...))        // duplicated LSNs after valid prefix
	mut := append([]byte(nil), valid...)  // CRC-corrupt first frame
	mut[segHeaderSize+frameHeader+2] ^= 1 // flip a payload byte
	f.Add(mut)

	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		lastLSN, validBytes, err := validPrefix(faultfs.OS{}, path, 1)
		if err != nil {
			return // rejected loudly: that is the contract
		}
		if validBytes > int64(len(blob)) {
			t.Fatalf("valid prefix %d exceeds input %d", validBytes, len(blob))
		}
		if lastLSN > 0 && validBytes <= segHeaderSize {
			t.Fatalf("records reported (last LSN %d) inside %d header bytes", lastLSN, validBytes)
		}
		// The valid prefix must replay cleanly: truncate to it and run
		// the strict reader over the result.
		if err := os.Truncate(path, validBytes); err != nil {
			t.Fatal(err)
		}
		if lastLSN == 0 {
			return
		}
		seg := segInfo{base: 1, last: lastLSN, path: path}
		l := &Log{fs: faultfs.OS{}}
		var info ReplayInfo
		var count uint64
		if err := l.replaySegment(seg, 0, func(rec Record) error {
			count++
			if rec.LSN != count {
				t.Fatalf("replay LSN %d at position %d", rec.LSN, count)
			}
			return nil
		}, &info); err != nil {
			t.Fatalf("strict replay over the validated prefix failed: %v", err)
		}
		if count != lastLSN {
			t.Fatalf("replayed %d records, tail scan reported %d", count, lastLSN)
		}
	})
}

// FuzzManifest asserts manifest parsing never panics and either errors
// or yields a manifest that round-trips.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"container":"a.lccs","dataset":"a.ds","lsn":7,"generation":2}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(faultfs.OS{}, dir)
		if err != nil || m == nil {
			return
		}
		if err := WriteManifest(faultfs.OS{}, dir, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadManifest(faultfs.OS{}, dir)
		if err != nil || *back != *m {
			t.Fatalf("manifest did not round-trip: %+v vs %+v (%v)", back, m, err)
		}
	})
}
