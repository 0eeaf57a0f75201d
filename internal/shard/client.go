package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gadget/internal/kv"
	"gadget/internal/remote"
	"gadget/internal/tracing"
)

// Client is a kv.Store view of a sharded Server: one pipelined
// protocol-v3 connection per shard. Point operations route by key hash;
// scans and snapshots fan out to every shard concurrently and merge the
// sorted per-shard results. Safe for concurrent use — concurrency is in
// fact the point: many callers sharing the client keep every shard's
// pipeline full.
type Client struct {
	conns  []*remote.PipelinedClient
	routed atomic.Uint64 // point ops routed by key hash
	scans  atomic.Uint64 // fan-out range scans
	snaps  atomic.Uint64 // fan-out snapshots
}

var _ kv.Store = (*Client)(nil)
var _ kv.Traceable = (*Client)(nil)

// Dial connects one pipelined client per shard address. The shard count
// and order must match the server's: routing depends on both.
func Dial(addrs []string, opts remote.PipelineOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: no addresses")
	}
	c := &Client{conns: make([]*remote.PipelinedClient, 0, len(addrs))}
	for i, addr := range addrs {
		conn, err := remote.DialPipeline(addr, opts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d (%s): %w", i, addr, err)
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Client) Shards() int { return len(c.conns) }

// Caps mirrors the per-shard pipelined clients: server-translated merge
// and server-side scans; Snapshots stays false (a snapshot materializes
// every shard's keyspace over the wire).
func (c *Client) Caps() kv.Capabilities {
	return kv.Capabilities{NativeMerge: true, RangeScans: true}
}

// DoTraced implements kv.Traceable and is the body of every operation.
// A point operation charges the route decision to StageRoute and then
// rides the owning shard's pipeline, Ctx included.
func (c *Client) DoTraced(tc *tracing.Ctx, op kv.TracedOp) (kv.TracedResult, error) {
	if op.Op == kv.OpScan {
		return c.scan(tc, op.Lo, op.Hi)
	}
	t0 := tc.Now()
	c.routed.Add(1)
	conn := c.conns[Route(op.Key, len(c.conns))]
	tc.AddSince(tracing.StageRoute, t0)
	return conn.DoTraced(tc, op)
}

// scan is the fan-out range scan: every shard scans [lo, hi]
// concurrently against its own consistent view, and the sorted per-shard
// results merge into one ascending run. Key ownership is disjoint across
// shards, so the merge never sees duplicates. The per-shard calls are
// untraced (a pooled Ctx must not be shared across goroutines): the
// whole concurrent fan-out wait is charged to StageFanout and the k-way
// merge to StageMerge.
func (c *Client) scan(tc *tracing.Ctx, lo, hi kv.StateKey) (kv.TracedResult, error) {
	c.scans.Add(1)
	t0 := tc.Now()
	parts := make([][]kv.Entry, len(c.conns))
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for i, conn := range c.conns {
		wg.Add(1)
		go func(i int, conn *remote.PipelinedClient) {
			defer wg.Done()
			parts[i], errs[i] = conn.ScanRange(lo, hi)
		}(i, conn)
	}
	wg.Wait()
	tc.AddSince(tracing.StageFanout, t0)
	for _, err := range errs {
		if err != nil {
			return kv.TracedResult{}, err
		}
	}
	tm := tc.Now()
	merged := mergeSorted(parts)
	tc.AddSince(tracing.StageMerge, tm)
	return kv.TracedResult{Entries: merged}, nil
}

// Get implements kv.Store.
func (c *Client) Get(key []byte) ([]byte, error) {
	res, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpGet, Key: key})
	return res.Val, err
}

// Put implements kv.Store.
func (c *Client) Put(key, value []byte) error {
	_, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpPut, Key: key, Val: value})
	return err
}

// Merge implements kv.Store.
func (c *Client) Merge(key, operand []byte) error {
	_, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpMerge, Key: key, Val: operand})
	return err
}

// Delete implements kv.Store.
func (c *Client) Delete(key []byte) error {
	_, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpDelete, Key: key})
	return err
}

// ScanRange implements kv.RangeScanner.
func (c *Client) ScanRange(lo, hi kv.StateKey) ([]kv.Entry, error) {
	res, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpScan, Lo: lo, Hi: hi})
	return res.Entries, err
}

// mergeSorted merges ascending runs into one ascending run by repeated
// min-pick; runs hold disjoint keys (shard-partitioned), so ties cannot
// occur.
func mergeSorted(parts [][]kv.Entry) []kv.Entry {
	total := 0
	live := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			live++
		}
	}
	if total == 0 {
		return nil
	}
	if live == 1 {
		for _, p := range parts {
			if len(p) > 0 {
				return p
			}
		}
	}
	out := make([]kv.Entry, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].Key.Less(parts[best][idx[best]].Key) {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// Snapshot implements kv.Snapshotter: every shard materializes its
// fallback snapshot concurrently, and the results compose into one view
// whose Get routes by key hash and whose Iter is a k-way merge over the
// per-shard iterators. The composite is per-shard consistent (each
// shard's half is a true point-in-time view of that shard), not a global
// cut — see the package comment.
func (c *Client) Snapshot() (kv.Snapshot, error) {
	c.snaps.Add(1)
	snaps := make([]kv.Snapshot, len(c.conns))
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for i, conn := range c.conns {
		wg.Add(1)
		go func(i int, conn *remote.PipelinedClient) {
			defer wg.Done()
			snaps[i], errs[i] = conn.Snapshot()
		}(i, conn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, snap := range snaps {
				if snap != nil {
					snap.Close()
				}
			}
			return nil, err
		}
	}
	return &shardSnapshot{snaps: snaps}, nil
}

// Metrics implements kv.Introspector: the per-shard connection counters
// summed under their usual "remote.*" keys, plus shard-level routing
// counters.
func (c *Client) Metrics() map[string]int64 {
	m := map[string]int64{
		"shard.count":     int64(len(c.conns)),
		"shard.routed":    int64(c.routed.Load()),
		"shard.scans":     int64(c.scans.Load()),
		"shard.snapshots": int64(c.snaps.Load()),
	}
	for _, conn := range c.conns {
		for k, v := range conn.Metrics() {
			m[k] += v
		}
	}
	return m
}

// Close closes every shard connection.
func (c *Client) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); first == nil {
			first = err
		}
	}
	return first
}

// shardSnapshot composes per-shard snapshots into one kv.Snapshot.
type shardSnapshot struct {
	snaps []kv.Snapshot
}

func (s *shardSnapshot) Get(key []byte) ([]byte, error) {
	return s.snaps[Route(key, len(s.snaps))].Get(key)
}

func (s *shardSnapshot) Iter(lo, hi kv.StateKey) kv.Iterator {
	its := make([]kv.Iterator, len(s.snaps))
	for i, snap := range s.snaps {
		its[i] = snap.Iter(lo, hi)
	}
	return &mergeIter{its: its, has: make([]bool, len(its)), cur: -1}
}

func (s *shardSnapshot) Close() error {
	var first error
	for _, snap := range s.snaps {
		if err := snap.Close(); first == nil {
			first = err
		}
	}
	return first
}

// mergeIter is a k-way merge over per-shard iterators, each already in
// ascending key order. The current entry stays parked on its source
// iterator (Key/Value delegate to it) and is only advanced on the next
// Next call, respecting the Iterator contract that values live until the
// owning iterator advances.
type mergeIter struct {
	its  []kv.Iterator
	has  []bool
	cur  int // iterator holding the current entry; -1 before the first Next
	err  error
	done bool
}

func (m *mergeIter) Next() bool {
	if m.done || m.err != nil {
		return false
	}
	if m.cur < 0 {
		for i, it := range m.its {
			m.has[i] = it.Next()
			if err := it.Err(); err != nil {
				m.err = err
				return false
			}
		}
	} else {
		m.has[m.cur] = m.its[m.cur].Next()
		if err := m.its[m.cur].Err(); err != nil {
			m.err = err
			return false
		}
	}
	best := -1
	for i := range m.its {
		if m.has[i] && (best < 0 || m.its[i].Key().Less(m.its[best].Key())) {
			best = i
		}
	}
	if best < 0 {
		m.done = true
		return false
	}
	m.cur = best
	return true
}

func (m *mergeIter) Key() kv.StateKey { return m.its[m.cur].Key() }
func (m *mergeIter) Value() []byte    { return m.its[m.cur].Value() }
func (m *mergeIter) Err() error       { return m.err }

func (m *mergeIter) Close() error {
	m.done = true
	var first error
	for _, it := range m.its {
		if err := it.Close(); first == nil {
			first = err
		}
	}
	return first
}
