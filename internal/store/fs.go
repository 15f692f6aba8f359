package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the store writes through. The
// production implementation is OSFS; tests substitute FaultFS to inject
// torn writes, short writes, fsync failures, and crash-at-offset power
// cuts without touching a real disk's failure modes.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// File is the per-file surface: sequential reads for recovery scans,
// appends for the WAL, Sync for the fsync discipline, Truncate for
// sealing a torn tail.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                     { return os.Remove(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }

// syncDir fsyncs a directory, making a just-renamed or just-created
// entry durable. Required after every checkpoint rename and segment
// creation: without it, a crash can roll back the rename even though the
// file's own bytes were fsynced.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// syncParentDir fsyncs the directory containing path.
func syncParentDir(fsys FS, path string) error {
	return syncDir(fsys, filepath.Dir(path))
}

// readOnlyFS is OSFS with every mutating call refused (OpenReadOnly).
// MkdirAll succeeds only for a directory that already exists.
type readOnlyFS struct{ OSFS }

var errReadOnly = errors.New("store: opened read-only")

func (f readOnlyFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		return nil, fmt.Errorf("%w: open %s for writing", errReadOnly, name)
	}
	return f.OSFS.OpenFile(name, flag, perm)
}

func (readOnlyFS) Rename(oldpath, _ string) error {
	return fmt.Errorf("%w: rename %s", errReadOnly, oldpath)
}

func (readOnlyFS) Remove(name string) error {
	return fmt.Errorf("%w: remove %s", errReadOnly, name)
}

func (readOnlyFS) MkdirAll(path string, _ os.FileMode) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return nil
	}
	return fmt.Errorf("%w: create %s", errReadOnly, path)
}
