package lsm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"gadget/internal/vfs"
)

// The write-ahead log is a sequence of framed records:
//
//	crc32(payload) u32 | payloadLen u32 | payload
//	payload = ikeyLen u32 | ikey | value
//
// Replay stops at the first torn or corrupt record, which is the correct
// recovery semantics for a crash during append, and truncates the file
// there so that new records appended after recovery are never shadowed
// by stale torn bytes.

const walName = "wal.log"

type walWriter struct {
	f    vfs.File
	buf  *bufio.Writer
	sync bool
	// hdr is append's frame header. It lives here because a local one
	// escapes through the io.Writer behind buf: one allocation per write.
	hdr [12]byte
}

func newWALWriter(fs vfs.FS, path string, syncWrites bool) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, buf: bufio.NewWriterSize(f, 64<<10), sync: syncWrites}, nil
}

func (w *walWriter) append(ikey, value []byte) error {
	payloadLen := 4 + len(ikey) + len(value)
	hdr := &w.hdr
	binary.LittleEndian.PutUint32(hdr[4:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(ikey)))
	// The payload starts at hdr[8:]. crc32.Update, unlike a hash.Hash32,
	// allocates nothing.
	crc := crc32.Update(0, crc32.IEEETable, hdr[8:])
	crc = crc32.Update(crc, crc32.IEEETable, ikey)
	crc = crc32.Update(crc, crc32.IEEETable, value)
	binary.LittleEndian.PutUint32(hdr[0:], crc)
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.buf.Write(ikey); err != nil {
		return err
	}
	if _, err := w.buf.Write(value); err != nil {
		return err
	}
	if w.sync {
		if err := w.buf.Flush(); err != nil {
			return err
		}
		return w.f.Sync()
	}
	return nil
}

func (w *walWriter) close() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL loads surviving log records into the memtable. Torn tails
// are truncated; everything before them is recovered. Records with
// sequence numbers at or below minSeq are already persisted in sorted
// tables (the manifest outlives the log) and are skipped — without the
// skip, a crash between a flush and log truncation would replay merge
// operands twice and double-count them.
func (db *DB) replayWAL(minSeq uint64) error {
	path := filepath.Join(db.opts.Dir, walName)
	f, err := db.opts.FS.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	validEnd := int64(0)
	// truncTail drops everything after the last whole record so appends
	// after recovery land on a clean tail.
	truncTail := func() error {
		if validEnd < st.Size() {
			return f.Truncate(validEnd)
		}
		return nil
	}
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return truncTail() // EOF or torn header: recovery complete
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:])
		payloadLen := binary.LittleEndian.Uint32(hdr[4:])
		if payloadLen < 4 || payloadLen > 1<<30 {
			return truncTail()
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return truncTail() // torn record
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return truncTail() // corrupt tail
		}
		ikeyLen := binary.LittleEndian.Uint32(payload[:4])
		if 4+ikeyLen > payloadLen {
			return truncTail()
		}
		ikey := payload[4 : 4+ikeyLen]
		value := payload[4+ikeyLen:]
		_, seq, kind, err := parseIKey(ikey)
		if err != nil {
			return truncTail()
		}
		validEnd += 8 + int64(payloadLen)
		if seq > db.seq {
			db.seq = seq
		}
		if seq <= minSeq {
			continue // already durable in a sorted table
		}
		db.mem.add(ikey, value, kind)
	}
}
