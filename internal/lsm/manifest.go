package lsm

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"strings"

	"gadget/internal/vfs"
)

// The MANIFEST is the commit point for table visibility: a table file
// exists logically only once a manifest listing it has been renamed into
// place. Flushes and compactions therefore follow the protocol
//
//  1. write new tables to *.sst.tmp, sync, rename to *.sst
//  2. write MANIFEST.tmp with the new layout, sync, rename to MANIFEST
//  3. delete replaced input tables
//
// so that a crash at any step leaves either the old layout or the new
// one. Tables on disk but absent from the manifest are orphans of a
// crashed step 1–2 window and are deleted on open; tables listed but
// missing mean real corruption and fail the open.
//
// The format is one header line followed by "num level" pairs:
//
//	gadget-lsm-manifest v1
//	000007 0
//	000003 1

const (
	manifestName   = "MANIFEST"
	manifestHeader = "gadget-lsm-manifest v1"
)

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// writeManifest atomically persists a file layout: the one a flush or
// compaction is about to install. Called with work held.
func (db *DB) writeManifest(levels *[numLevels][]*fileMeta) error {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, manifestHeader)
	for lvl, files := range levels {
		for _, fm := range files {
			fmt.Fprintf(&buf, "%06d %d\n", fm.num, lvl)
		}
	}
	return vfs.WriteFileAtomic(db.opts.FS, manifestPath(db.opts.Dir), buf.Bytes(), 0o644)
}

// parseManifest returns the table layout the manifest commits: file
// number -> level.
func parseManifest(data []byte) (map[uint64]int, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != manifestHeader {
		return nil, fmt.Errorf("lsm: bad manifest header")
	}
	out := make(map[uint64]int)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var num uint64
		var lvl int
		if _, err := fmt.Sscanf(line, "%d %d", &num, &lvl); err != nil {
			return nil, fmt.Errorf("lsm: bad manifest line %q: %v", line, err)
		}
		if lvl < 0 || lvl >= numLevels {
			return nil, fmt.Errorf("lsm: manifest level %d out of range", lvl)
		}
		out[num] = lvl
	}
	return out, sc.Err()
}
