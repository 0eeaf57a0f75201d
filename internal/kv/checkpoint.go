// Checkpoint codec and Checkpointer: engine-agnostic, portable state
// snapshots for mid-run crash recovery.
//
// A checkpoint is a length-prefixed key/value stream with a checksummed
// footer:
//
//	header:  "GCKP" | version byte | engine (uvarint len + bytes) | watermark uvarint
//	entry:   tag 1  | key (KeyLen bytes) | value (uvarint len + bytes)
//	footer:  tag 0  | entries u64 | watermark u64 | crc32c of all preceding bytes
//
// The watermark is the number of trace operations applied to the store
// when the snapshot was taken; recovery rewinds the trace cursor to it
// and replays the delta. The format is written from a kv.Snapshot and
// restored with plain Puts, so any engine can save it and any engine can
// load it — checkpoints taken on rocksdb restore into faster, etc. It is
// the one checkpoint path: the recovery runner and every engine use it.
package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"

	"gadget/internal/vfs"
)

const (
	checkpointMagic   = "GCKP"
	checkpointVersion = 1

	tagEntry  = 1
	tagFooter = 0

	// CheckpointSuffix names checkpoint files; the %016x watermark prefix
	// makes lexicographic order equal watermark order.
	CheckpointSuffix = ".gckp"
	checkpointPrefix = "checkpoint-"
)

// ErrCheckpointCorrupt reports a checkpoint that failed validation —
// bad magic, truncated stream, or checksum mismatch. Recovery treats it
// as "this checkpoint does not exist" and falls back to an older one.
var ErrCheckpointCorrupt = errors.New("kv: corrupt checkpoint")

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// CheckpointMeta describes one checkpoint.
type CheckpointMeta struct {
	Engine    string // engine that produced it (provenance only)
	Watermark uint64 // trace ops applied when the snapshot was taken
	Entries   uint64 // live keys in the checkpoint
}

// crcWriter tracks a running crc32c and byte count over everything
// written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, checkpointCRC, p[:n])
	cw.n += int64(n)
	cw.err = err
}

// WriteCheckpoint streams the entries of it to w in checkpoint format.
// The iterator must yield keys in ascending order (any Snapshot.Iter
// does); order is not validated, but restores replay entries as Puts so
// order only matters for reproducible byte-identical files.
func WriteCheckpoint(w io.Writer, engine string, watermark uint64, it Iterator) (CheckpointMeta, int64, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := &crcWriter{w: bw}
	var buf [2 * binary.MaxVarintLen64]byte

	cw.write([]byte(checkpointMagic))
	cw.write([]byte{checkpointVersion})
	n := binary.PutUvarint(buf[:], uint64(len(engine)))
	cw.write(buf[:n])
	cw.write([]byte(engine))
	n = binary.PutUvarint(buf[:], watermark)
	cw.write(buf[:n])

	var entries uint64
	for it.Next() {
		cw.write([]byte{tagEntry})
		cw.write(it.Key().Bytes())
		v := it.Value()
		n = binary.PutUvarint(buf[:], uint64(len(v)))
		cw.write(buf[:n])
		cw.write(v)
		entries++
	}
	if err := it.Err(); err != nil {
		return CheckpointMeta{}, cw.n, err
	}

	var footer [1 + 8 + 8]byte
	footer[0] = tagFooter
	binary.LittleEndian.PutUint64(footer[1:], entries)
	binary.LittleEndian.PutUint64(footer[9:], watermark)
	cw.write(footer[:])
	// The crc covers everything before it, including the footer body.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc)
	cw.write(crc[:])
	if cw.err != nil {
		return CheckpointMeta{}, cw.n, cw.err
	}
	if err := bw.Flush(); err != nil {
		return CheckpointMeta{}, cw.n, err
	}
	return CheckpointMeta{Engine: engine, Watermark: watermark, Entries: entries}, cw.n, nil
}

// ReadCheckpoint parses and validates a full checkpoint. Entries are
// materialized and returned only after the checksum and footer check
// out, so a caller never applies half of a corrupt checkpoint. Any
// malformation — short read, bad tag, count or watermark mismatch, crc
// mismatch, trailing garbage — yields ErrCheckpointCorrupt.
func ReadCheckpoint(r io.Reader) (CheckpointMeta, []Entry, error) {
	data, err := io.ReadAll(bufio.NewReaderSize(r, 64<<10))
	if err != nil {
		return CheckpointMeta{}, nil, err
	}
	corrupt := func(why string) (CheckpointMeta, []Entry, error) {
		return CheckpointMeta{}, nil, fmt.Errorf("%w: %s", ErrCheckpointCorrupt, why)
	}
	if len(data) < len(checkpointMagic)+1+4 {
		return corrupt("truncated header")
	}
	if string(data[:4]) != checkpointMagic {
		return corrupt("bad magic")
	}
	if data[4] != checkpointVersion {
		return corrupt(fmt.Sprintf("unsupported version %d", data[4]))
	}
	// Validate the trailing crc before parsing anything else: it covers
	// the whole file up to itself.
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, checkpointCRC) != binary.LittleEndian.Uint32(tail) {
		return corrupt("checksum mismatch")
	}

	pos := 5
	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	engLen, ok := readUvarint()
	if !ok || uint64(len(body)-pos) < engLen {
		return corrupt("truncated engine name")
	}
	meta := CheckpointMeta{Engine: string(body[pos : pos+int(engLen)])}
	pos += int(engLen)
	if meta.Watermark, ok = readUvarint(); !ok {
		return corrupt("truncated watermark")
	}

	var entries []Entry
	for {
		if pos >= len(body) {
			return corrupt("missing footer")
		}
		tag := body[pos]
		pos++
		if tag == tagFooter {
			break
		}
		if tag != tagEntry {
			return corrupt(fmt.Sprintf("unknown record tag %d", tag))
		}
		if len(body)-pos < KeyLen {
			return corrupt("truncated key")
		}
		key, err := DecodeStateKey(body[pos : pos+KeyLen])
		if err != nil {
			return corrupt(err.Error())
		}
		pos += KeyLen
		vlen, ok := readUvarint()
		if !ok || uint64(len(body)-pos) < vlen {
			return corrupt("truncated value")
		}
		val := make([]byte, vlen)
		copy(val, body[pos:pos+int(vlen)])
		pos += int(vlen)
		entries = append(entries, Entry{Key: key, Value: val})
	}
	if len(body)-pos != 16 {
		return corrupt("truncated footer")
	}
	if got := binary.LittleEndian.Uint64(body[pos:]); got != uint64(len(entries)) {
		return corrupt(fmt.Sprintf("footer entry count %d, stream has %d", got, len(entries)))
	}
	if got := binary.LittleEndian.Uint64(body[pos+8:]); got != meta.Watermark {
		return corrupt("footer watermark disagrees with header")
	}
	meta.Entries = uint64(len(entries))
	return meta, entries, nil
}

// Checkpointer saves and restores portable checkpoints in a directory.
// The zero Dir is invalid; a nil FS means the real filesystem.
type Checkpointer struct {
	FS     vfs.FS
	Dir    string
	Engine string // stamped into saved checkpoints
	// Keep bounds how many checkpoints are retained; older ones are
	// deleted after each successful Save. Zero means KeepDefault. At
	// least 2 are kept so corruption of the newest can fall back.
	Keep int
}

// KeepDefault is the checkpoint retention used when Keep is zero.
const KeepDefault = 2

func (c *Checkpointer) fs() vfs.FS { return vfs.OrDefault(c.FS) }

func checkpointName(watermark uint64) string {
	return fmt.Sprintf("%s%016x%s", checkpointPrefix, watermark, CheckpointSuffix)
}

// Save snapshots s (via SnapshotOf, so every engine works) and writes a
// checkpoint at the given watermark. It commits with the full
// sync-rename-syncdir protocol and then prunes old checkpoints.
func (c *Checkpointer) Save(s Store, watermark uint64) (CheckpointMeta, int64, error) {
	snap, err := SnapshotOf(s)
	if err != nil {
		return CheckpointMeta{}, 0, err
	}
	defer snap.Close()
	it := snap.Iter(StateKey{}, MaxStateKey)
	defer it.Close()

	fsys := c.fs()
	if err := fsys.MkdirAll(c.Dir, 0o755); err != nil {
		return CheckpointMeta{}, 0, err
	}
	final := joinPath(c.Dir, checkpointName(watermark))
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return CheckpointMeta{}, 0, err
	}
	meta, bytes, err := WriteCheckpoint(f, c.Engine, watermark, it)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return CheckpointMeta{}, bytes, err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return CheckpointMeta{}, bytes, err
	}
	if err := fsys.SyncDir(c.Dir); err != nil {
		return CheckpointMeta{}, bytes, err
	}
	c.prune()
	return meta, bytes, nil
}

// prune deletes all but the newest Keep checkpoints. Best effort:
// pruning failures never fail a Save.
func (c *Checkpointer) prune() {
	keep := c.Keep
	if keep <= 0 {
		keep = KeepDefault
	}
	if keep < 2 {
		keep = 2
	}
	names := c.list()
	for i := 0; i < len(names)-keep; i++ {
		c.fs().Remove(joinPath(c.Dir, names[i]))
	}
}

// list returns checkpoint file names sorted oldest first.
func (c *Checkpointer) list() []string {
	ents, err := c.fs().ReadDir(c.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, checkpointPrefix) && strings.HasSuffix(name, CheckpointSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// RestoreInfo reports what a Restore did.
type RestoreInfo struct {
	Meta           CheckpointMeta
	Path           string // file restored from; empty if none was usable
	CorruptSkipped int    // newer checkpoints rejected as corrupt
}

// Restore loads the newest valid checkpoint into s (which should be
// freshly opened and empty) with plain Puts. Corrupt or truncated
// checkpoints are skipped in favor of older ones. Finding no usable
// checkpoint is not an error: the zero watermark tells the caller to
// replay the trace from the beginning.
func (c *Checkpointer) Restore(s Store) (RestoreInfo, error) {
	var info RestoreInfo
	names := c.list()
	for i := len(names) - 1; i >= 0; i-- {
		path := joinPath(c.Dir, names[i])
		meta, entries, err := c.readOne(path)
		if err != nil {
			if errors.Is(err, ErrCheckpointCorrupt) {
				info.CorruptSkipped++
				continue
			}
			return info, err
		}
		keyBuf := make([]byte, 0, KeyLen)
		for _, e := range entries {
			if err := s.Put(e.Key.Encode(keyBuf[:0]), e.Value); err != nil {
				return info, fmt.Errorf("kv: restoring %s: %w", path, err)
			}
		}
		info.Meta = meta
		info.Path = path
		return info, nil
	}
	return info, nil
}

func (c *Checkpointer) readOne(path string) (CheckpointMeta, []Entry, error) {
	f, err := vfs.Open(c.fs(), path)
	if err != nil {
		// A listed-but-unopenable file is as good as corrupt.
		return CheckpointMeta{}, nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// joinPath joins dir and name with a forward slash, the separator every
// vfs implementation accepts.
func joinPath(dir, name string) string {
	if dir == "" || strings.HasSuffix(dir, "/") {
		return dir + name
	}
	return dir + "/" + name
}
