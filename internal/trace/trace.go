// Package trace persists state access streams for Gadget's offline mode:
// generate once, replay on demand. The binary format is varint-delta
// encoded (timestamps and keys in streaming traces are strongly locally
// correlated, so traces compress to a few bytes per access).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gadget/internal/kv"
	"gadget/internal/vfs"
)

const (
	magic   = uint32(0x47445452) // "GDTR"
	version = 1
)

// ErrCorrupt reports a malformed trace file.
var ErrCorrupt = errors.New("trace: corrupt trace")

// Writer streams accesses to a binary trace.
type Writer struct {
	w         *bufio.Writer
	count     uint64
	prevTime  int64
	prevGroup uint64
	headerOK  bool
	err       error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

func (tw *Writer) writeHeader() {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	_, tw.err = tw.w.Write(hdr[:])
	tw.headerOK = true
}

// Append writes one access.
func (tw *Writer) Append(a kv.Access) error {
	if tw.err != nil {
		return tw.err
	}
	if !tw.headerOK {
		tw.writeHeader()
		if tw.err != nil {
			return tw.err
		}
	}
	var buf [1 + 5*binary.MaxVarintLen64]byte
	buf[0] = byte(a.Op)
	n := 1
	n += binary.PutUvarint(buf[n:], zigzag(int64(a.Key.Group)-int64(tw.prevGroup)))
	n += binary.PutUvarint(buf[n:], a.Key.Sub)
	n += binary.PutUvarint(buf[n:], uint64(a.Size))
	n += binary.PutUvarint(buf[n:], zigzag(a.Time-tw.prevTime))
	if _, err := tw.w.Write(buf[:n]); err != nil {
		tw.err = err
		return err
	}
	tw.prevGroup = a.Key.Group
	tw.prevTime = a.Time
	tw.count++
	return nil
}

// Count returns the number of accesses appended.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush flushes buffered records to the underlying writer.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	if !tw.headerOK {
		tw.writeHeader()
	}
	return tw.w.Flush()
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Reader streams accesses from a binary trace.
type Reader struct {
	r         *bufio.Reader
	prevTime  int64
	prevGroup uint64
	headerOK  bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next access; io.EOF signals a clean end of trace.
func (tr *Reader) Next() (kv.Access, error) {
	if !tr.headerOK {
		var hdr [8]byte
		if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return kv.Access{}, io.EOF
			}
			return kv.Access{}, ErrCorrupt
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != magic {
			return kv.Access{}, ErrCorrupt
		}
		if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
			return kv.Access{}, fmt.Errorf("trace: unsupported version %d", v)
		}
		tr.headerOK = true
	}
	opByte, err := tr.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return kv.Access{}, io.EOF
		}
		return kv.Access{}, ErrCorrupt
	}
	if int(opByte) >= kv.NumOps {
		return kv.Access{}, ErrCorrupt
	}
	groupDelta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return kv.Access{}, ErrCorrupt
	}
	sub, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return kv.Access{}, ErrCorrupt
	}
	size, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return kv.Access{}, ErrCorrupt
	}
	timeDelta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return kv.Access{}, ErrCorrupt
	}
	tr.prevGroup = uint64(int64(tr.prevGroup) + unzigzag(groupDelta))
	tr.prevTime += unzigzag(timeDelta)
	return kv.Access{
		Op:   kv.Op(opByte),
		Key:  kv.StateKey{Group: tr.prevGroup, Sub: sub},
		Size: uint32(size),
		Time: tr.prevTime,
	}, nil
}

// WriteFile writes a full trace to path on the real filesystem.
func WriteFile(path string, accesses []kv.Access) error {
	return WriteFileFS(vfs.Default(), path, accesses)
}

// WriteFileFS writes a full trace to path on fsys.
func WriteFileFS(fsys vfs.FS, path string, accesses []kv.Access) error {
	f, err := vfs.Create(fsys, path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	for _, a := range accesses {
		if err := w.Append(a); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a full trace from path on the real filesystem.
func ReadFile(path string) ([]kv.Access, error) {
	return ReadFileFS(vfs.Default(), path)
}

// ReadFileFS loads a full trace from path on fsys.
func ReadFileFS(fsys vfs.FS, path string) ([]kv.Access, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := NewReader(f)
	var out []kv.Access
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
}
