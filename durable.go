package lccs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"lccs/internal/dataset"
	"lccs/internal/faultfs"
	"lccs/internal/obs"
	"lccs/internal/vec"
	"lccs/internal/wal"
)

// ErrNotDurable is returned (wrapped) by the write paths of an index
// OpenDurable opened when the write-ahead log could not make the write
// durable. The in-memory index may already hold the write, but a crash
// could lose it, so callers must not acknowledge it; the log is broken
// until the index is reopened.
var ErrNotDurable = errors.New("lccs: write not durable: write-ahead log failure")

// SyncPolicy selects what an acknowledged write to an index OpenDurable
// opened guarantees; it mirrors the policies of the underlying write-ahead
// log.
type SyncPolicy int

// The three sync policies, from strongest guarantee to fastest ack.
const (
	// SyncAlways fsyncs before acknowledging: an acked write survives
	// OS and power failure. Concurrent writers share fsyncs (group
	// commit), so throughput scales far better than one fsync per write.
	SyncAlways SyncPolicy = iota
	// SyncInterval acks once the write reached the OS (it survives a
	// process kill) and fsyncs on a timer: at most one interval of
	// acked writes can be lost to an OS crash or power failure.
	SyncInterval
	// SyncNone acks once the write reached the OS and never fsyncs:
	// acked writes survive a process kill, but an OS crash or power
	// failure can lose everything the OS had not yet flushed on its
	// own. Use only where the ingest stream can be replayed from
	// elsewhere.
	SyncNone
)

// ParseSyncPolicy resolves a CLI-style sync-policy name
// (always|interval|none).
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	p, err := wal.ParsePolicy(name)
	if err != nil {
		return 0, fmt.Errorf("lccs: %w", err)
	}
	return SyncPolicy(p), nil
}

// String returns the CLI-facing policy name.
func (p SyncPolicy) String() string { return wal.SyncPolicy(p).String() }

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// Config is the index configuration used when the data directory is
	// fresh (no snapshot yet). An existing snapshot's container carries
	// its own resolved configuration, which wins.
	Config Config
	// Sync selects the durability guarantee of acknowledged writes. The
	// zero value is SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the fsync period under SyncInterval. 0 selects
	// 50ms.
	SyncInterval time.Duration
	// SegmentBytes rotates WAL segments at this size. 0 selects 64 MiB.
	SegmentBytes int64
	// RebuildAt is the DynamicIndex delta threshold. 0 selects the
	// default.
	RebuildAt int
	// FS is the filesystem every file of the data directory is created,
	// written, fsynced, read, renamed and removed through: the manifest,
	// the WAL segments and both snapshot files. Nil selects the real
	// filesystem; tests inject faults (ENOSPC, torn writes, failed
	// fsyncs, crashes) through it. An FS may replace the real filesystem,
	// not only wrap it.
	FS wal.FS
	// Logger receives structured recovery, checkpoint, and WAL
	// lifecycle events. Nil keeps the library silent (events are
	// discarded), so embedding processes opt in explicitly.
	Logger *slog.Logger
}

// RecoveryInfo summarizes what OpenDurable replayed.
type RecoveryInfo struct {
	// Segments is how many WAL segment files were read; Records how
	// many records were applied; Skipped how many were already captured
	// by the snapshot.
	Segments int
	Records  uint64
	Skipped  uint64
	// TornBytes is how many bytes of torn WAL tail (a write in flight
	// at the crash) were discarded.
	TornBytes int64
	// Duration is the wall-clock recovery time (snapshot load excluded,
	// replay included).
	Duration time.Duration
	// CheckpointLSN is the manifest watermark recovery started from;
	// LastLSN the highest LSN replayed (0 when the log was empty).
	CheckpointLSN, LastLSN uint64
	// SnapshotVectors is how many vectors the snapshot container
	// restored before replay.
	SnapshotVectors int
}

// CheckpointInfo summarizes one checkpoint.
type CheckpointInfo struct {
	// LSN is the watermark the snapshot captured: the log was truncated
	// through it.
	LSN uint64
	// Generation is the new snapshot generation.
	Generation uint64
	// Live and Tombstones describe the persisted snapshot.
	Live, Tombstones int
	// Container and Dataset are the written files (relative to the data
	// directory).
	Container, Dataset string
	// Skipped reports that the index was empty and nothing was written;
	// recovery replays the (intact) log instead.
	Skipped bool
	// Took is the wall-clock checkpoint duration.
	Took time.Duration
}

// WALStats is a point-in-time summary of the write-ahead log, surfaced
// through /v1/stats and /metrics by the serving layer.
type WALStats struct {
	Policy string `json:"policy"`
	// Depth is the number of records only the log holds (appended since
	// the last checkpoint) — replay work a crash would incur.
	Depth   uint64 `json:"depth"`
	LastLSN uint64 `json:"last_lsn"`
	// SyncedLSN is the highest LSN known fsynced.
	SyncedLSN     uint64 `json:"synced_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Segments and Bytes describe the live segment files.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// AppendedBytes is the cumulative log bytes accepted since open —
	// monotone across checkpoint truncation, the write-traffic meter. The
	// serving layer meters it per write as its collection's usage
	// wal_bytes, which is where its JSON reports the number.
	AppendedBytes int64 `json:"-"`
	// Fsyncs counts fsync calls; the latency fields describe them.
	Fsyncs          uint64  `json:"fsyncs"`
	LastFsyncMicros float64 `json:"last_fsync_us"`
	MeanFsyncMicros float64 `json:"mean_fsync_us"`
}

// journal is what OpenDurable attaches to a DynamicIndex: the data
// directory it owns, the write-ahead log every write is appended to, and
// the checkpoint state.
type journal struct {
	dir string
	fs  wal.FS
	log *wal.Log
	// cmu serializes checkpoints; ckptGen is the last snapshot generation
	// a checkpoint claimed (the build generation is DynamicIndex.gen).
	cmu      sync.Mutex
	ckptGen  uint64
	recovery RecoveryInfo
	logger   *slog.Logger
}

// errMemoryOnly is what Checkpoint answers on an index OpenDurable did not
// open: there is no directory to write a snapshot to.
var errMemoryOnly = errors.New("lccs: checkpoint: memory-only index (open it with OpenDurable)")

const walSubdir = "wal"

func snapshotNames(gen uint64) (container, ds string) {
	return fmt.Sprintf("snapshot-%06d.lccs", gen), fmt.Sprintf("snapshot-%06d.ds", gen)
}

// OpenDurable opens (creating if needed) a data directory and returns the
// DynamicIndex it holds with a write-ahead journal attached: every insert
// and delete is appended to the log before it is acknowledged, and
// Checkpoint persists the state as a snapshot, so a crash (SIGKILL, OOM,
// power loss within the sync policy's guarantee) loses no acknowledged
// write. The index owns the directory:
//
//	<dir>/MANIFEST            durable root: active snapshot + WAL watermark
//	<dir>/snapshot-N.lccs     index container of generation N
//	<dir>/snapshot-N.ds       the snapshot's vectors
//	<dir>/wal/*.wal           log segments holding writes since the snapshot
//
// Opening recovers: the manifest's snapshot is loaded and the log records
// above its watermark are replayed — before the journal is attached, so
// replay journals nothing — reproducing exactly the acknowledged state:
// inserted ids searchable, deleted ids dead, and the id watermark
// monotone across any number of crash cycles. Close flushes and closes the
// log (Checkpoint first for a fast next boot). The data directory must
// have a single owner: running two processes over one directory corrupts
// it.
func OpenDurable(dir string, dc DurableConfig) (*DynamicIndex, error) {
	fsys := dc.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	logger := dc.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := wal.ReadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	var dyn *DynamicIndex
	var snapVectors int
	if man != nil && man.Container != "" {
		// The whole warm-restart path is flat: the dataset loads into one
		// contiguous block, the container decodes against views of it,
		// and the dynamic index adopts the same store — no per-row
		// materialization or re-packing copies anywhere.
		ds, err := readFile(fsys, filepath.Join(dir, man.Dataset), dataset.Decode)
		if err != nil {
			return nil, fmt.Errorf("lccs: durable open: load snapshot vectors: %w", err)
		}
		flat, err := ds.FlatData()
		if err != nil {
			return nil, fmt.Errorf("lccs: durable open: load snapshot vectors: %w", err)
		}
		ix, err := readFile(fsys, filepath.Join(dir, man.Container), func(r io.Reader) (*Index, error) {
			return loadStore(r, flat)
		})
		if err != nil {
			return nil, fmt.Errorf("lccs: durable open: load snapshot container: %w", err)
		}
		dyn = NewDynamicIndexFrom(ix, dc.RebuildAt)
		snapVectors = flat.Len()
	} else {
		dyn, err = NewDynamicIndex(nil, dc.Config, dc.RebuildAt)
		if err != nil {
			return nil, err
		}
		if man != nil && man.IDWatermark > 0 {
			// The last checkpoint captured an emptied-out index: no
			// vectors to load, but the id watermark must survive so
			// deleted ids are never reissued.
			if err := dyn.restoreWatermark(int(man.IDWatermark)); err != nil {
				return nil, err
			}
		}
	}
	var from uint64
	var gen uint64
	if man != nil {
		from = man.LSN
		gen = man.Generation
	}
	log, err := wal.Open(filepath.Join(dir, walSubdir), wal.Options{
		Policy:       wal.SyncPolicy(dc.Sync),
		Interval:     dc.SyncInterval,
		SegmentBytes: dc.SegmentBytes,
		// Keep the LSN sequence above the checkpoint watermark even
		// when every segment was truncated, so post-checkpoint writes
		// are never mistaken for already-checkpointed ones.
		MinNextLSN: from,
		FS:         fsys,
		Logger:     logger,
	})
	if err != nil {
		return nil, err
	}
	j := &journal{dir: dir, fs: fsys, log: log, ckptGen: gen, logger: logger}
	start := time.Now()
	info, err := log.Replay(from, func(rec wal.Record) error {
		switch rec.Op {
		case wal.OpInsert, wal.OpInsertAttrs:
			var attrs vec.Attrs
			if rec.Op == wal.OpInsertAttrs {
				a, used, derr := vec.DecodeAttrs(rec.Attrs)
				if derr != nil || used != len(rec.Attrs) {
					return fmt.Errorf("lccs: durable open: replay insert LSN %d: corrupt attribute blob", rec.LSN)
				}
				attrs = a
			}
			id, aerr := dyn.AddWithAttrs(rec.Vec, attrs)
			if aerr != nil {
				// The vector was rejected: the log disagrees with the
				// snapshot it claims to extend.
				return fmt.Errorf("lccs: durable open: replay insert LSN %d: %w", rec.LSN, aerr)
			}
			if int64(id) != rec.ID {
				return fmt.Errorf("lccs: durable open: replay assigned id %d to record claiming %d (LSN %d)", id, rec.ID, rec.LSN)
			}
		case wal.OpDelete:
			dyn.Delete(int(rec.ID))
		default:
			return fmt.Errorf("lccs: durable open: unknown WAL op %d at LSN %d", rec.Op, rec.LSN)
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	log.SetCheckpointLSN(from)
	// A crash between manifest write and log truncation leaves fully
	// checkpointed segments behind; finish the truncation now. Likewise
	// remove snapshot files a crashed checkpoint orphaned.
	if err := log.TruncateThrough(from); err != nil {
		log.Close()
		return nil, err
	}
	if err := j.removeOrphans(man); err != nil {
		log.Close()
		return nil, err
	}
	replayTook := time.Since(start)
	obs.ObserveDur(obs.StageRecoveryReplay, replayTook)
	j.recovery = RecoveryInfo{
		Segments:        info.Segments,
		Records:         info.Records,
		Skipped:         info.Skipped,
		TornBytes:       info.TornBytes,
		Duration:        replayTook,
		CheckpointLSN:   from,
		LastLSN:         info.LastLSN,
		SnapshotVectors: snapVectors,
	}
	logger.Info("durable: recovered",
		"dir", dir,
		"snapshot_vectors", snapVectors,
		"segments", info.Segments,
		"records", info.Records,
		"skipped", info.Skipped,
		"torn_bytes", info.TornBytes,
		"checkpoint_lsn", from,
		"last_lsn", info.LastLSN,
		"took", replayTook)
	dyn.j = j
	return dyn, nil
}

// removeOrphans deletes snapshot files not referenced by the manifest —
// debris of a checkpoint that crashed between writing its files and
// committing the manifest — plus any manifest temp file.
func (j *journal) removeOrphans(man *wal.Manifest) error {
	entries, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return err
	}
	keep := map[string]bool{}
	if man != nil {
		keep[man.Container] = true
		keep[man.Dataset] = true
	}
	for _, e := range entries {
		name := e.Name()
		orphan := name == wal.ManifestName+".tmp"
		if ok, _ := filepath.Match("snapshot-*", name); ok && !keep[name] {
			orphan = true
		}
		if orphan {
			if err := j.fs.Remove(filepath.Join(j.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// clock starts a write's stage clock; only journaled writes are timed.
func (j *journal) clock() time.Time {
	if j == nil {
		return time.Time{}
	}
	return time.Now()
}

// commit ends every write body. It is called with d.mu held, after the
// in-memory apply, and returns with d.mu released. recs describe what the
// apply did (nil on a memory-only index); they are appended to the log in
// the critical section that allocated their ids, so LSN order is id order
// by construction, and the durability wait runs after the unlock, so
// concurrent writers group-commit. It returns nil or a journal failure,
// wrapping ErrNotDurable: the write is applied in memory but may not
// survive a crash, so it must not be acknowledged. The stage clock from
// t0: index_apply is the lock wait plus the apply, wal_append the
// enqueue, wal_fsync the durability wait.
func (d *DynamicIndex) commit(t0 time.Time, recs []wal.Record) error {
	if len(recs) == 0 {
		d.mu.Unlock()
		return nil
	}
	t1 := time.Now()
	obs.ObserveDur(obs.StageIndexApply, t1.Sub(t0))
	lsn, jerr := d.j.log.Append(recs...)
	d.mu.Unlock()
	t2 := time.Now()
	obs.ObserveDur(obs.StageWALAppend, t2.Sub(t1))
	if jerr == nil {
		jerr = d.j.log.WaitDurable(lsn)
		obs.ObserveSince(obs.StageWALFsync, t2)
	}
	if jerr != nil {
		return fmt.Errorf("%w: %v", ErrNotDurable, jerr)
	}
	return nil
}

// insertRecord builds the journal record for one insert: a plain
// OpInsert when the row carries no metadata, an OpInsertAttrs framing
// the canonical attribute encoding otherwise.
func insertRecord(id int, v []float32, a Attrs) wal.Record {
	if len(a) == 0 {
		return wal.Record{Op: wal.OpInsert, ID: int64(id), Vec: v}
	}
	return wal.Record{Op: wal.OpInsertAttrs, ID: int64(id), Vec: v, Attrs: vec.AppendAttrs(nil, a)}
}

// Checkpoint persists the current state as a new snapshot generation,
// commits the manifest, and truncates the write-ahead log through the
// captured watermark — bounding both recovery replay time and the data
// directory's size. Writers are blocked only while the in-memory
// snapshot is taken (the buffer shard build), not during file writes.
//
// An index with no live vectors checkpoints too: the manifest records
// the id watermark instead of naming a container, so even a fully
// emptied index truncates its log and never reissues a deleted id. The
// checkpoint is skipped only when the log holds nothing past the
// previous one (there is nothing new to capture). A memory-only index has
// no directory to checkpoint into: it returns an error and writes nothing.
func (d *DynamicIndex) Checkpoint() (CheckpointInfo, error) {
	j := d.j
	if j == nil {
		return CheckpointInfo{}, errMemoryOnly
	}
	j.cmu.Lock()
	defer j.cmu.Unlock()
	start := time.Now()
	// One critical section with every write's id allocation and log
	// append: the snapshot holds exactly the records through lsn.
	d.mu.Lock()
	lsn := j.log.LastLSN()
	depth := j.log.Stats().Depth
	empty := d.segSet.Len() == 0
	var watermark int
	var snap *Index
	var err error
	if empty {
		watermark = d.ids.Next()
	} else {
		snap, err = d.snapshotLocked()
	}
	d.mu.Unlock()
	snapTook := time.Since(start)
	obs.ObserveDur(obs.StageCkptSnapshot, snapTook)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if empty && depth == 0 {
		// Nothing new since the last checkpoint captured this (empty)
		// state — including the fresh-directory case.
		return CheckpointInfo{Skipped: true, Took: time.Since(start)}, nil
	}
	// Claim the generation before any file is written. A checkpoint
	// that fails partway (even after its manifest committed — say the
	// directory fsync or the log truncation errored) leaves ckptGen
	// advanced, so the next attempt picks a fresh generation and never
	// overwrites snapshot files a committed manifest may still
	// reference. Claiming only after a fully successful commit — as
	// this code once did — let the next checkpoint reuse the
	// generation the live manifest pointed at and clobber its files:
	// the directory then looked checkpointed but could never recover.
	j.ckptGen++
	gen := j.ckptGen
	man := &wal.Manifest{LSN: lsn, Generation: gen}
	info := CheckpointInfo{LSN: lsn, Generation: gen}
	writeStart := time.Now()
	if empty {
		man.IDWatermark = uint64(watermark)
	} else {
		// Both files are fsynced before the manifest names them. The
		// snapshot's rows persist as one dataset: each block the rows
		// live in streams out in slot order, none is concatenated first.
		container, dsName := snapshotNames(gen)
		if err := faultfs.WriteFile(j.fs, filepath.Join(j.dir, container), snap.encode); err != nil {
			return CheckpointInfo{}, err
		}
		err := faultfs.WriteFile(j.fs, filepath.Join(j.dir, dsName), func(w io.Writer) error {
			return dataset.EncodeBlocks(w, "durable", "snapshot", snap.blocks())
		})
		if err != nil {
			return CheckpointInfo{}, err
		}
		man.Container, man.Dataset = container, dsName
		info.Container, info.Dataset = container, dsName
		info.Live, info.Tombstones = snap.Len(), snap.Deleted()
	}
	writeTook := time.Since(writeStart)
	obs.ObserveDur(obs.StageCkptWrite, writeTook)
	manStart := time.Now()
	if err := wal.WriteManifest(j.fs, j.dir, man); err != nil {
		return CheckpointInfo{}, err
	}
	manTook := time.Since(manStart)
	obs.ObserveDur(obs.StageCkptManifest, manTook)
	truncStart := time.Now()
	if err := j.log.TruncateThrough(lsn); err != nil {
		return CheckpointInfo{}, err
	}
	// Sweep everything the committed manifest does not reference: the
	// previous generation's files plus any debris a failed earlier
	// checkpoint left behind. OpenDurable runs the same sweep, so a
	// crash anywhere in here is finished by the next recovery.
	if err := j.removeOrphans(man); err != nil {
		return CheckpointInfo{}, err
	}
	truncTook := time.Since(truncStart)
	obs.ObserveDur(obs.StageCkptTruncate, truncTook)
	info.Took = time.Since(start)
	j.logger.Info("durable: checkpoint",
		"generation", gen,
		"lsn", lsn,
		"live", info.Live,
		"tombstones", info.Tombstones,
		"snapshot_took", snapTook,
		"write_took", writeTook,
		"manifest_took", manTook,
		"truncate_took", truncTook,
		"took", info.Took)
	return info, nil
}

// Close waits for any background build and closes the write-ahead log
// (flushing and fsyncing it); on a memory-only index there is no log and
// Close returns nil. It does not checkpoint: the log replays on the next
// OpenDurable. Call Checkpoint first for a fast next boot.
func (d *DynamicIndex) Close() error {
	d.WaitRebuild()
	if d.j == nil {
		return nil
	}
	return d.j.log.Close()
}

// Recovery returns what OpenDurable replayed; zero on a memory-only
// index.
func (d *DynamicIndex) Recovery() RecoveryInfo {
	if d.j == nil {
		return RecoveryInfo{}
	}
	return d.j.recovery
}

// Dir returns the data directory the index owns: "" exactly when the
// index is memory-only.
func (d *DynamicIndex) Dir() string {
	if d.j == nil {
		return ""
	}
	return d.j.dir
}

// WALStats returns a point-in-time summary of the write-ahead log; zero
// on a memory-only index.
func (d *DynamicIndex) WALStats() WALStats {
	if d.j == nil {
		return WALStats{}
	}
	st := d.j.log.Stats()
	return WALStats{
		Policy:          st.Policy,
		Depth:           st.Depth,
		LastLSN:         st.LastLSN,
		SyncedLSN:       st.SyncedLSN,
		CheckpointLSN:   st.CheckpointLSN,
		Segments:        st.Segments,
		Bytes:           st.Bytes,
		AppendedBytes:   st.AppendedBytes,
		Fsyncs:          st.Fsyncs,
		LastFsyncMicros: float64(st.LastFsync.Nanoseconds()) / 1e3,
		MeanFsyncMicros: float64(st.MeanFsync.Nanoseconds()) / 1e3,
	}
}

// readFile opens path through fsys and decodes it from a buffered reader.
func readFile[T any](fsys wal.FS, path string, decode func(io.Reader) (T, error)) (T, error) {
	f, err := fsys.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return decode(bufio.NewReaderSize(f, 1<<20))
}
