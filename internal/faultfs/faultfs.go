// Package faultfs is the filesystem abstraction the durability stack
// (internal/wal and the snapshot/manifest paths of a journaled
// DynamicIndex) performs its I/O through, the one file writer every
// saver shares (WriteFile), and a deterministic fault injector over the
// abstraction. Production code runs on the zero-cost OS
// implementation; the conformance and regression tests wrap it in an
// Injected filesystem that can tear writes mid-frame, fail fsyncs with
// fsyncgate semantics (dirty pages dropped, later fsyncs lying), return
// ENOSPC, slow individual operations down, or kill the whole filesystem
// at a chosen mutating-operation count — the in-process stand-in for
// crashing the process at an arbitrary point of a checkpoint or append.
//
// The interface is intentionally narrow: exactly the operations the
// write-ahead log and checkpoint protocol rely on for durability
// (create/write/fsync/rename/remove/truncate/dirsync and the read-side
// mirrors). Every mutating operation counts as one "step", giving
// crash-at-step-N sweeps a deterministic coordinate system as long as
// the workload drives the log sequentially.
package faultfs

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durability stack uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync fsyncs the file. Injectors may fail it and drop the dirty
	// region (fsyncgate semantics).
	Sync() error
	// Truncate cuts the file to size. The write-ahead log uses it to
	// restore a record boundary after a torn write.
	Truncate(size int64) error
	// Seek repositions the write offset (needed after Truncate: the OS
	// file offset does not move with the truncation).
	Seek(offset int64, whence int) (int64, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem the write-ahead log and the journaled DynamicIndex
// checkpoint/manifest paths perform their I/O through.
type FS interface {
	// OpenFile opens (possibly creating) a file for writing.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts the named file to size.
	Truncate(name string, size int64) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so entry creation/removal/rename is
	// durable.
	SyncDir(dir string) error
}

// OS is the production FS: a zero-state pass-through to package os.
type OS struct{}

// Compile-time conformance.
var _ FS = OS{}

// OpenFile opens via os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Open opens via os.Open.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// ReadDir lists via os.ReadDir.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// ReadFile reads via os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename renames via os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove deletes via os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate cuts via os.Truncate.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll creates via os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir opens the directory and fsyncs it.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile creates (or truncates) path and streams encode into it
// through one 1 MiB write buffer, then fsyncs and closes it: a nil return
// means every byte encode wrote is on disk. It is the one file writer of
// every saver. A crash or error partway leaves a partial file at path,
// so a caller that must never expose one either writes a name nothing
// refers to yet (a snapshot before its manifest commits) or goes through
// WriteFileAtomic.
func WriteFile(fsys FS, path string, encode func(io.Writer) error) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = encode(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic replaces path with data: WriteFile a temp file beside
// it, rename it over path, fsync the directory. A crash at any point
// leaves either the old file or the new one, never a partial one, and a
// nil return means the new one is on disk.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	err := WriteFile(fsys, tmp, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
