package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lccs/internal/faultfs"
)

// ManifestName is the manifest's filename inside a data directory.
const ManifestName = "MANIFEST"

// Manifest is the durable root of a data directory: it names the active
// snapshot files and the WAL position they capture. It is replaced
// atomically (write-temp, fsync, rename, fsync dir), so a crash at any
// point leaves either the old or the new manifest — never a partial
// one. Recovery is: load Container+Dataset, then replay WAL records
// with LSN > LSN.
type Manifest struct {
	// Container and Dataset are the snapshot's index container and
	// vector file, relative to the data directory. Empty strings mean
	// the checkpointed state holds no vectors — recovery starts from an
	// empty index (at the IDWatermark below).
	Container string `json:"container"`
	Dataset   string `json:"dataset"`
	// LSN is the checkpoint watermark: every WAL record at or below it
	// is captured by the snapshot and must not be replayed.
	LSN uint64 `json:"lsn"`
	// Generation increments with every checkpoint; it names the
	// snapshot files so a new checkpoint never overwrites the files the
	// current manifest points at.
	Generation uint64 `json:"generation"`
	// IDWatermark is the next id to allocate when Container is empty —
	// an index whose every vector was deleted still must never reissue
	// an id. (A non-empty container carries its own watermark.)
	IDWatermark uint64 `json:"id_watermark,omitempty"`
}

// ReadManifest loads the manifest from dir through fsys. A missing
// manifest is not an error: it returns (nil, nil), meaning a fresh data
// directory.
func ReadManifest(fsys FS, dir string) (*Manifest, error) {
	blob, err := fsys.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("wal: corrupt manifest in %s: %w", dir, err)
	}
	return &m, nil
}

// WriteManifest atomically replaces the manifest in dir through fsys,
// with faultfs.WriteFileAtomic: a crash at any point leaves either the
// old or the new manifest, never a partial one.
func WriteManifest(fsys FS, dir string, m *Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(fsys, filepath.Join(dir, ManifestName), append(blob, '\n'))
}
