package vfs

import (
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory FS. It is safe for concurrent use and models a
// flat namespace of files addressed by cleaned slash paths; directories
// exist implicitly once created with MkdirAll or by writing a file below
// them. Sync is a no-op: a write is durable the moment it is issued,
// which is the crash model the fault-injection suite builds on.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode), dirs: map[string]bool{".": true, "/": true}}
}

func clean(name string) string { return path.Clean(strings.ReplaceAll(name, "\\", "/")) }

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		n = &memNode{}
		m.files[name] = n
		m.dirs[path.Dir(name)] = true
	} else if flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	}
	if flag&os.O_TRUNC != 0 {
		n.mu.Lock()
		n.data = n.data[:0]
		n.mu.Unlock()
	}
	return &memFile{name: name, node: n, append: flag&os.O_APPEND != 0}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	m.files[newpath] = n
	delete(m.files, oldpath)
	m.dirs[path.Dir(newpath)] = true
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]fs.DirEntry{}
	for p, n := range m.files {
		if path.Dir(p) == name {
			base := path.Base(p)
			n.mu.Lock()
			size := int64(len(n.data))
			n.mu.Unlock()
			seen[base] = memDirEntry{info: memFileInfo{name: base, size: size}}
		}
	}
	for d := range m.dirs {
		if d != name && path.Dir(d) == name {
			base := path.Base(d)
			seen[base] = memDirEntry{info: memFileInfo{name: base, dir: true}}
		}
	}
	if len(seen) == 0 && !m.dirs[name] {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	names := make([]string, 0, len(seen))
	for b := range seen {
		names = append(names, b)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, b := range names {
		out[i] = seen[b]
	}
	return out, nil
}

func (m *MemFS) MkdirAll(p string, perm os.FileMode) error {
	p = clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p != "." && p != "/" {
		m.dirs[p] = true
		p = path.Dir(p)
	}
	return nil
}

func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.files[name]; ok {
		n.mu.Lock()
		size := int64(len(n.data))
		n.mu.Unlock()
		return memFileInfo{name: path.Base(name), size: size}, nil
	}
	if m.dirs[name] {
		return memFileInfo{name: path.Base(name), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

// SyncDir is a no-op: MemFS directory entries are durable the moment
// they are created, mirroring the write model documented on the package.
func (m *MemFS) SyncDir(name string) error { return nil }

// Paths returns the sorted paths of all files currently in the
// filesystem (a test convenience).
func (m *MemFS) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for p := range m.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// memFile is one open handle; the offset is per handle, the bytes are
// shared through the node.
type memFile struct {
	name   string
	node   *memNode
	off    int64
	append bool
	closed bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if f.append {
		f.off = int64(len(f.node.data))
	}
	return f.writeAtLocked(p, f.off, true), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	f.writeAtLocked(p, off, false)
	return len(p), nil
}

// writeAtLocked writes p at off, growing the file as needed.
func (f *memFile) writeAtLocked(p []byte, off int64, advance bool) int {
	end := off + int64(len(p))
	if end > int64(len(f.node.data)) {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	copy(f.node.data[off:], p)
	if advance {
		f.off = end
	}
	return len(p)
}

func (f *memFile) Sync() error {
	if f.closed {
		return os.ErrClosed
	}
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.closed {
		return nil, os.ErrClosed
	}
	return memFileInfo{name: path.Base(f.name), size: int64(len(f.node.data))}, nil
}

func (f *memFile) Truncate(size int64) error {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if size <= int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, f.node.data)
	f.node.data = grown
	return nil
}

func (f *memFile) Close() error {
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (fi memFileInfo) Name() string { return fi.name }
func (fi memFileInfo) Size() int64  { return fi.size }
func (fi memFileInfo) Mode() os.FileMode {
	if fi.dir {
		return os.ModeDir | 0o755
	}
	return 0o644
}
func (fi memFileInfo) ModTime() time.Time { return time.Time{} }
func (fi memFileInfo) IsDir() bool        { return fi.dir }
func (fi memFileInfo) Sys() interface{}   { return nil }

type memDirEntry struct{ info memFileInfo }

func (e memDirEntry) Name() string               { return e.info.name }
func (e memDirEntry) IsDir() bool                { return e.info.dir }
func (e memDirEntry) Type() fs.FileMode          { return e.info.Mode().Type() }
func (e memDirEntry) Info() (fs.FileInfo, error) { return e.info, nil }
