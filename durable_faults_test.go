package lccs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lccs/internal/faultfs"
	"lccs/internal/wal"
)

// faultVecs builds n small distinct vectors for durable fault tests.
func faultVecs(n int) [][]float32 {
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = []float32{float32(i), float32(i % 3), -float32(i), 1}
	}
	return vecs
}

// openFaulted opens a durable index over a fresh injector.
func openFaulted(t *testing.T, dir string) (*DynamicIndex, *faultfs.Injected) {
	t.Helper()
	fs := faultfs.NewInjected(faultfs.OS{})
	cfg := durableCfg()
	cfg.FS = fs
	di, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return di, fs
}

// checkDurableState reopens dir on the real filesystem and asserts the
// acknowledged history: every acked insert's vector present under its
// original id, every acked delete dead, the id watermark past every
// issued id, and the directory free of checkpoint debris (no manifest
// temp file, no snapshot files the manifest does not reference). It
// then checkpoints and reopens once more, proving the recovered
// directory is not just readable but fully operable.
func checkDurableState(t *testing.T, dir string, vecs [][]float32, deleted map[int]bool) {
	t.Helper()
	di := mustOpenDurable(t, dir)
	// A full-budget search over every vector must surface exactly the
	// live ids: every acked insert present, every acked delete dead.
	// (Vector() is no probe for deletion — tombstoned rows answer until
	// compacted.)
	found := map[int]bool{}
	for _, v := range vecs {
		for id := range searchIDs(t, di, v, len(vecs)+4) {
			found[id] = true
		}
	}
	for id := range vecs {
		switch {
		case deleted[id] && found[id]:
			t.Fatalf("deleted id %d resurrected in search results", id)
		case !deleted[id] && !found[id]:
			t.Fatalf("acked id %d lost", id)
		}
	}
	for id := range vecs {
		if !deleted[id] {
			got := di.Vector(id)
			for j, w := range vecs[id] {
				if got == nil || got[j] != w {
					t.Fatalf("id %d: vector %v, want %v", id, got, vecs[id])
				}
			}
		}
	}
	checkNoDebris(t, dir)
	newID, err := di.Add([]float32{9, 9, 9, 9})
	if err != nil {
		t.Fatalf("Add after recovery: %v", err)
	}
	if newID < len(vecs) {
		t.Fatalf("id %d reused after recovery (watermark %d)", newID, len(vecs))
	}
	if _, err := di.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after recovery: %v", err)
	}
	if err := di.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	di2 := mustOpenDurable(t, dir)
	defer di2.Close()
	if got := di2.Vector(newID); got == nil {
		t.Fatalf("id %d added after recovery lost on second reopen", newID)
	}
}

// checkNoDebris asserts the directory holds no manifest temp file and
// no snapshot files outside the manifest.
func checkNoDebris(t *testing.T, dir string) {
	t.Helper()
	man, err := wal.ReadManifest(faultfs.OS{}, dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == wal.ManifestName+".tmp" {
			t.Fatalf("manifest temp file survived recovery")
		}
		if strings.HasPrefix(name, "snapshot-") {
			if man == nil || (name != man.Container && name != man.Dataset) {
				t.Fatalf("orphan snapshot file %s survived recovery", name)
			}
		}
	}
}

// A checkpoint that commits its manifest but fails a later step (here:
// the directory fsync after the rename) must not let the next
// checkpoint reuse the generation the live manifest references — the
// regression was a stale in-memory generation counter, so the retry
// overwrote the committed snapshot's files in place and a crash during
// that overwrite made the directory permanently unrecoverable.
func TestCheckpointFailureNeverReusesGeneration(t *testing.T) {
	dir := t.TempDir()
	di, fs := openFaulted(t, dir)
	vecs := faultVecs(20)
	for _, v := range vecs[:10] {
		if _, err := di.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if info, err := di.Checkpoint(); err != nil || info.Generation != 1 {
		t.Fatalf("first checkpoint = %+v, %v", info, err)
	}
	for _, v := range vecs[10:] {
		if _, err := di.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	// The first SyncDir of the checkpoint is the manifest commit's
	// directory fsync — after the rename, so generation 2's manifest is
	// live on disk when the checkpoint reports failure.
	fs.Inject(&faultfs.Fault{Op: faultfs.OpSyncDir, Once: true})
	if _, err := di.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing dir fsync reported success")
	}
	info, err := di.Checkpoint()
	if err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	if info.Generation <= 2 {
		t.Fatalf("retry reused generation %d; the live manifest references generation 2's files", info.Generation)
	}
	crash(di)
	checkDurableState(t, dir, vecs, nil)
}

// Crash the filesystem at every step of a checkpoint in turn, and
// demand that the next OpenDurable completes the interrupted cleanup
// from every position: state intact, no debris, directory fully
// operable. This sweeps the whole protocol — both snapshot files'
// create/write/fsync, manifest temp write/fsync/rename/dir-fsync, log
// truncation (including the segment rotation inside it), and the orphan
// sweep — and the sweep must crash at least once in a write of each
// snapshot file's bytes, so a snapshot write that bypasses the FS fails it.
func TestCheckpointCrashAtEveryStep(t *testing.T) {
	vecs := faultVecs(12)
	deleted := map[int]bool{1: true, 5: true, 9: true}
	errInContainer := errors.New("crash writing the snapshot container")
	errInDataset := errors.New("crash writing the snapshot dataset")
	var inContainer, inDataset int
	for n := uint64(1); ; n++ {
		n := n
		completed := false
		t.Run(fmt.Sprintf("step%02d", n), func(t *testing.T) {
			dir := t.TempDir()
			di, fs := openFaulted(t, dir)
			for _, v := range vecs[:8] {
				if _, err := di.Add(v); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			for _, id := range []int{1, 5} {
				if n, _, err := di.DeleteBatch([]int{id}); n != 1 || err != nil {
					t.Fatalf("DeleteBatch([%d]) = %d, %v", id, n, err)
				}
			}
			if _, err := di.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for _, v := range vecs[8:] {
				if _, err := di.Add(v); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			if n, _, err := di.DeleteBatch([]int{9}); n != 1 || err != nil {
				t.Fatalf("DeleteBatch([9]) = %d, %v", n, err)
			}
			// The first fault that matches fires, so a crash in a write of
			// a snapshot file's bytes returns that file's error.
			at := fs.Steps() + n
			fs.Inject(
				&faultfs.Fault{AtStep: at, Op: faultfs.OpWrite, Path: ".lccs", Crash: true, Err: errInContainer},
				&faultfs.Fault{AtStep: at, Op: faultfs.OpWrite, Path: ".ds", Crash: true, Err: errInDataset},
				&faultfs.Fault{AtStep: at, Crash: true},
			)
			_, cerr := di.Checkpoint()
			switch {
			case errors.Is(cerr, errInContainer):
				inContainer++
			case errors.Is(cerr, errInDataset):
				inDataset++
			}
			if !fs.Killed() {
				// The checkpoint finished before step n: the sweep is
				// past the end of the protocol.
				if cerr != nil {
					t.Fatalf("checkpoint failed without the crash fault firing: %v", cerr)
				}
				completed = true
			}
			crash(di)
			di.Close()
			checkDurableState(t, dir, vecs, deleted)
		})
		if completed {
			break
		}
		if n > 100 {
			t.Fatal("checkpoint did not complete within 100 injected steps")
		}
	}
	if inContainer == 0 || inDataset == 0 {
		t.Fatalf("the sweep crashed %d times writing the container and %d writing the dataset; want both > 0", inContainer, inDataset)
	}
}

// TestSnapshotWriteFaults injects a fault inside each snapshot file a
// checkpoint writes: ENOSPC on the container's write, a torn write of the
// vectors' .ds file, a crash at the container's create. Checkpoint must
// report it, leave MANIFEST byte for byte as it was, and leave a
// directory that recovers every acknowledged write with no orphan. A
// checkpoint retried on the index after a fault it survived takes a fresh
// generation and sweeps the failed one's files.
func TestSnapshotWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fault   faultfs.Fault
		want    error
		partial string // the failed generation's file the fault cut short
	}{
		{"enospc-container-write", faultfs.Fault{Op: faultfs.OpWrite, Path: ".lccs", Err: faultfs.ErrNoSpace, Once: true}, faultfs.ErrNoSpace, "snapshot-000002.lccs"},
		{"torn-dataset-write", faultfs.Fault{Op: faultfs.OpWrite, Path: ".ds", TornBytes: 10, Once: true}, faultfs.ErrInjected, "snapshot-000002.ds"},
		{"crash-container-create", faultfs.Fault{Op: faultfs.OpCreate, Path: ".lccs", Crash: true}, faultfs.ErrKilled, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			di, fs := openFaulted(t, dir)
			vecs := faultVecs(12)
			deleted := map[int]bool{1: true, 9: true}
			for _, v := range vecs[:8] {
				if _, err := di.Add(v); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			if n, _, err := di.DeleteBatch([]int{1}); n != 1 || err != nil {
				t.Fatalf("DeleteBatch([1]) = %d, %v", n, err)
			}
			if _, err := di.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for _, v := range vecs[8:] {
				if _, err := di.Add(v); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			if n, _, err := di.DeleteBatch([]int{9}); n != 1 || err != nil {
				t.Fatalf("DeleteBatch([9]) = %d, %v", n, err)
			}
			manPath := filepath.Join(dir, wal.ManifestName)
			before, err := os.ReadFile(manPath)
			if err != nil {
				t.Fatal(err)
			}
			fault := tc.fault
			fs.Inject(&fault)
			if _, err := di.Checkpoint(); !errors.Is(err, tc.want) {
				t.Fatalf("Checkpoint under the fault: %v, want %v", err, tc.want)
			}
			if fs.Fired() != 1 {
				t.Fatalf("%d faults fired, want 1", fs.Fired())
			}
			if after, err := os.ReadFile(manPath); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("MANIFEST changed by a failed checkpoint: %q, %v; was %q", after, err, before)
			}
			if tc.partial != "" {
				if _, err := os.Stat(filepath.Join(dir, tc.partial)); err != nil {
					t.Fatalf("the fault left no partial %s: %v", tc.partial, err)
				}
				info, err := di.Checkpoint()
				if err != nil {
					t.Fatalf("retried checkpoint: %v", err)
				}
				if info.Generation != 3 {
					t.Fatalf("retried checkpoint took generation %d, want 3 (the failed one claimed 2)", info.Generation)
				}
				checkNoDebris(t, dir)
			}
			crash(di)
			di.Close()
			checkDurableState(t, dir, vecs, deleted)
		})
	}
}

// A write failure on the WAL must never acknowledge the write: the Add
// reports ErrNotDurable, and whether or not the in-memory index already
// holds the vector, recovery never resurrects an id issued after the
// failure in a way that collides with later acknowledged writes.
func TestDurableWriteFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	di, fs := openFaulted(t, dir)
	vecs := faultVecs(6)
	for _, v := range vecs {
		if _, err := di.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	// A dead disk: every WAL write fails until reopen.
	fs.Inject(&faultfs.Fault{Op: faultfs.OpWrite, Path: ".wal", Err: faultfs.ErrNoSpace})
	if _, err := di.Add([]float32{7, 7, 7, 7}); err == nil {
		t.Fatal("Add on dead disk acknowledged")
	}
	crash(di)
	di.Close()
	checkDurableState(t, dir, vecs, nil)
}
