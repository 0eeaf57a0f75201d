// Package vfs abstracts the filesystem operations of Gadget's
// persistence layers (LSM, SSTables, B+Tree pager, FASTER log, trace
// files) behind a small interface with three implementations:
//
//   - OsFS: passthrough to the real filesystem (the default),
//   - MemFS: an in-memory filesystem for fast, hermetic tests,
//   - FaultFS: a wrapper that injects deterministic, seeded faults
//     (failed or torn writes, fsync failures, rename failures, disk
//     full) and can simulate a process crash, for the crash-consistency
//     test suite in internal/stores.
//
// The durability model of MemFS is "writes are durable once issued":
// there is no simulated page cache, so Sync is a no-op. Data buffered in
// user space (e.g. a bufio.Writer) still dies with the process, which is
// exactly the asymmetry the crash suite relies on.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the storage engines need.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Stat returns file metadata (engines use only Size).
	Stat() (os.FileInfo, error)
	// Truncate changes the file size (used to drop torn WAL tails).
	Truncate(size int64) error
}

// FS is the filesystem seam threaded through every persistence layer.
type FS interface {
	// OpenFile is the general constructor; flag and perm follow os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath. A rename is only
	// durable once the directory holding the new entry has been synced
	// (SyncDir); FaultFS can simulate the loss of an unsynced rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file. Removing a missing file returns an error
	// satisfying errors.Is(err, os.ErrNotExist), as os.Remove does.
	Remove(name string) error
	// ReadDir lists a directory, sorted by name.
	ReadDir(name string) ([]fs.DirEntry, error)
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Stat returns metadata for the named file.
	Stat(name string) (os.FileInfo, error)
	// SyncDir flushes a directory's entries to stable storage, making
	// renames and creations inside it crash-durable (the fsync(dirfd)
	// every POSIX commit protocol needs after rename).
	SyncDir(name string) error
}

// Open opens the named file for reading, like os.Open.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// Create truncates or creates the named file for writing, like os.Create.
func Create(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// ReadFile reads the whole named file, like os.ReadFile.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := Open(fsys, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFile writes data to the named file, creating or truncating it.
func WriteFile(fsys FS, name string, data []byte, perm os.FileMode) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileAtomic writes data to a temporary sibling, syncs it, and
// renames it over name — the commit idiom used for metadata files
// (LSM MANIFEST, FASTER meta). A crash at any point leaves either the
// old file or the new one, never a torn mix.
func WriteFileAtomic(fsys FS, name string, data []byte, perm os.FileMode) error {
	tmp := name + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, name); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// The rename itself is not durable until the directory entry is
	// flushed; without this, a crash can resurrect the old file (or lose
	// the new one entirely on filesystems that journal lazily).
	return fsys.SyncDir(ParentDir(name))
}

// ParentDir returns the directory holding name — the directory to
// SyncDir after a rename. It mirrors filepath.Dir for the path styles
// engines use.
func ParentDir(name string) string {
	i := len(name) - 1
	for i >= 0 && name[i] != '/' && name[i] != os.PathSeparator {
		i--
	}
	if i < 0 {
		return "."
	}
	if i == 0 {
		return name[:1]
	}
	return name[:i]
}

// OsFS is the passthrough implementation over the real filesystem.
type OsFS struct{}

var defaultFS FS = OsFS{}

// Default returns the process-wide OsFS.
func Default() FS { return defaultFS }

// OrDefault returns fsys, or the OsFS when fsys is nil — the idiom every
// engine's Options uses so existing callers keep working unchanged.
func OrDefault(fsys FS) FS {
	if fsys == nil {
		return defaultFS
	}
	return fsys
}

func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OsFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OsFS) Remove(name string) error                   { return os.Remove(name) }
func (OsFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OsFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OsFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (OsFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
