// Package kv defines the common vocabulary shared by every component of
// the Gadget harness: the state access record that operator state machines
// emit, the composite state key, and the Store interface implemented by
// the four KV engines (lsm, lethe, faster, btree) plus the memstore oracle.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is a state store operation type. The four values mirror the
// operations supported by RocksDB, which the paper adopts as the canonical
// set; the performance evaluator translates them for stores with a
// different native vocabulary (e.g. merge becomes read-modify-write).
type Op uint8

const (
	OpGet Op = iota
	OpPut
	OpMerge
	OpDelete
	// OpFGet is the final get that retrieves window contents on trigger
	// (FGet in the paper's Figure 8). It executes exactly like OpGet but
	// is tracked separately so analyses can distinguish per-event reads
	// from trigger-time reads.
	OpFGet
	// OpScan is a consistent range scan over the tail of a key group: it
	// reads every live entry in [Key, {Key.Group, MaxUint64}] from a
	// point-in-time view of the store. Scan-aware operators use it for
	// trigger-time window drains (Key.Sub = 0 scans the whole group) and
	// range-join probes (Key.Sub = the lower time bound). Engines without
	// native snapshots serve it through the stop-the-world
	// FallbackSnapshot path.
	OpScan

	numOps
)

// NumOps is the number of distinct operation types.
const NumOps = int(numOps)

// String returns the lower-case operation name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpMerge:
		return "merge"
	case OpDelete:
		return "delete"
	case OpFGet:
		return "fget"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsRead reports whether the operation only reads state.
func (o Op) IsRead() bool { return o == OpGet || o == OpFGet || o == OpScan }

// StateKey is the 128-bit composite key under which operator state is
// stored. Group holds the event key (or a stream/operator discriminator)
// and Sub a namespace within the group: the window start timestamp for
// window operators, the event timestamp for join buffers, or zero for
// per-key rolling aggregates.
type StateKey struct {
	Group uint64
	Sub   uint64
}

// KeyLen is the encoded length of a StateKey in bytes.
const KeyLen = 16

// Encode appends the big-endian encoding of k to dst and returns the
// extended slice. Big-endian ensures lexicographic byte order equals
// numeric order, so range locality observed by the B+Tree and LSM engines
// matches the timestamp locality of streaming state.
func (k StateKey) Encode(dst []byte) []byte {
	var b [KeyLen]byte
	binary.BigEndian.PutUint64(b[0:8], k.Group)
	binary.BigEndian.PutUint64(b[8:16], k.Sub)
	return append(dst, b[:]...)
}

// Bytes returns a fresh 16-byte encoding of k.
func (k StateKey) Bytes() []byte { return k.Encode(make([]byte, 0, KeyLen)) }

// DecodeStateKey parses a key encoded by Encode.
func DecodeStateKey(b []byte) (StateKey, error) {
	if len(b) != KeyLen {
		return StateKey{}, fmt.Errorf("kv: state key must be %d bytes, got %d", KeyLen, len(b))
	}
	return StateKey{
		Group: binary.BigEndian.Uint64(b[0:8]),
		Sub:   binary.BigEndian.Uint64(b[8:16]),
	}, nil
}

// Less reports whether k orders before other (Group first, then Sub),
// which matches the byte order of the encoded form.
func (k StateKey) Less(other StateKey) bool {
	if k.Group != other.Group {
		return k.Group < other.Group
	}
	return k.Sub < other.Sub
}

func (k StateKey) String() string { return fmt.Sprintf("%d/%d", k.Group, k.Sub) }

// Access is one element of a state access stream: operation p on key k
// with a value of Size bytes at event time Time (§2.3 of the paper).
// Values themselves are synthesized at replay time from Size, keeping
// traces compact and generation fast.
type Access struct {
	Op   Op
	Key  StateKey
	Size uint32 // value or merge-operand size in bytes; 0 for reads/deletes
	Time int64  // event time in milliseconds
}

// Store is the uniform interface over every KV engine in this repository.
// Implementations must be safe for concurrent use; the dataflow model
// guarantees a single writer per key, but the concurrent-operator
// experiments (paper §6.4) share one store instance between operators.
type Store interface {
	// Get returns the value stored under key, or ErrNotFound.
	// The returned slice must not be modified by the caller.
	Get(key []byte) ([]byte, error)
	// Put stores value under key, replacing any previous value.
	Put(key, value []byte) error
	// Merge lazily appends operand to the value under key (RocksDB
	// StringAppend semantics). Engines without a native merge return
	// ErrMergeUnsupported and rely on the evaluator's RMW translation.
	Merge(key, operand []byte) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key []byte) error
	// Close releases all resources. The store must not be used after.
	Close() error
}

// Sizer is implemented by stores that can report an approximate total
// size of live data, used by experiments to sanity-check state growth.
type Sizer interface {
	ApproximateSize() int64
}

// Common errors shared by all engines.
var (
	// ErrNotFound is returned by Get when the key does not exist.
	ErrNotFound = errors.New("kv: key not found")
	// ErrMergeUnsupported is returned by engines without a native merge
	// operator (FASTER, BerkeleyDB-style B+Tree).
	ErrMergeUnsupported = errors.New("kv: merge not supported by this engine")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("kv: store is closed")
)

// Capabilities describes optional engine features, letting the evaluator
// pick the correct op translation without type switches.
type Capabilities struct {
	// NativeMerge is true when Merge is supported directly.
	NativeMerge bool
	// InPlaceUpdate is true for engines that can update a record without
	// rewriting it elsewhere (hash stores, B+Trees).
	InPlaceUpdate bool
	// Snapshots is true when Snapshot() produces a cheap native
	// point-in-time view (a pinned LSM version, copy-on-write pages, an
	// in-memory copy of the oracle). Engines that only satisfy
	// Snapshotter through the shared stop-the-world FallbackSnapshot
	// report false, so evaluators can budget for the full-copy cost.
	Snapshots bool
	// RangeScans is true when the engine serves ordered range iteration
	// natively (sorted structure or a server-side scan), rather than by
	// materializing and sorting a full copy.
	RangeScans bool
}

// Capabler is implemented by stores to advertise their Capabilities.
//
// Contract: every engine and every store wrapper MUST implement Capabler.
// Wrappers embed Base, whose Caps delegates with CapsOf(inner), so
// capabilities survive middleware composition; the network clients,
// which wrap a connection, define their own. A store without a Caps method advertises the
// zero Capabilities value — no native merge, no in-place updates, no
// snapshots, no range scans — so a missing implementation degrades to
// the most conservative translation instead of silently claiming
// features (a plain store used to be assumed to support native merge).
type Capabler interface {
	Caps() Capabilities
}

// CapsOf returns the capabilities of s. Stores that do not implement
// Capabler report the explicit zero value: no optional features.
func CapsOf(s Store) Capabilities {
	if c, ok := s.(Capabler); ok {
		return c.Caps()
	}
	return Capabilities{}
}
