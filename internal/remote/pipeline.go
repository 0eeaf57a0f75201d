package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/kv"
	"gadget/internal/tracing"
)

// PipelineOptions tunes a protocol-v3 client.
type PipelineOptions struct {
	// Timeout bounds transport progress: each batch write, and the wait
	// for the next response while requests are in flight (0 = none).
	Timeout time.Duration
	// Redials is how many consecutive failed reconnect attempts (or
	// connections that die without delivering a single response) the
	// client tolerates before failing the pending operations with a
	// transient, outcome-unknown error (0 = default 2, -1 = none).
	Redials int
	// Dialer overrides the transport dialer; nil uses net.Dial("tcp", addr).
	Dialer func(addr string) (net.Conn, error)
	// Depth bounds the number of in-flight requests (0 = default 64,
	// capped at 1024 so a full retransmission always fits the server's
	// replay window).
	Depth int
	// BatchBytes is the coalescing threshold: queued requests are packed
	// into batch frames of at most this payload size (0 = default 256 KiB,
	// capped at the 64 MiB frame limit).
	BatchBytes int
	// Traced negotiates per-op trace trailers at hello: the server
	// stamps its handling window on every response, and traced
	// operations attribute queue/wire/server stages to their
	// tracing.Ctx. Untraced peers are unaffected (the flag rides the
	// hello version byte's top bit).
	Traced bool
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Redials == 0 {
		o.Redials = 2
	}
	if o.Redials < 0 {
		o.Redials = 0
	}
	if o.Depth <= 0 {
		o.Depth = 64
	}
	if o.Depth > maxPipelineDepth {
		o.Depth = maxPipelineDepth
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 256 << 10
	}
	if o.BatchBytes > maxFrame {
		o.BatchBytes = maxFrame
	}
	return o
}

// presult is the outcome of one pipelined request.
type presult struct {
	status byte
	out    []byte
	err    error
}

// pcall is one in-flight pipelined request. done is buffered so the
// delivering goroutine never blocks on a caller.
//
// tc/enq/flushed carry trace state across the pipeline's goroutines;
// every hand-off happens under c.mu (takeBatch, takeCall,
// requeueInflight), which provides the happens-before edges the
// unsynchronized Ctx requires.
type pcall struct {
	seq      uint64
	op       byte
	key, val []byte
	done     chan presult

	tc      *tracing.Ctx // nil for untraced operations
	enq     int64        // tracer clock at enqueue (queue-stage start)
	flushed int64        // tracer clock at batch cut (wire-stage start)
}

// PipelinedClient is a protocol-v3 kv.Store backed by a remote Server.
// Unlike Client, it multiplexes many concurrent callers over one
// connection: operations are coalesced into batch frames by a writer
// loop, up to Depth requests ride the wire simultaneously, and responses
// complete in whatever order the server produces them, matched by
// sequence number. A single caller still observes synchronous kv.Store
// semantics — the pipeline fills only when multiple goroutines share the
// client, which is exactly the shard.Client deployment shape.
//
// Transport failures do not poison the client: the connection is
// re-dialed under the same session ID and every unanswered request is
// retransmitted in sequence order; the server answers duplicates from
// its per-session response window, keeping the stream exactly-once.
type PipelinedClient struct {
	addr      string
	opts      PipelineOptions
	sessionID uint64

	mu       sync.Mutex
	seq      uint64
	queue    []*pcall          // accepted, not yet written; ascending seq
	inflight map[uint64]*pcall // written on the live conn, awaiting response
	closed   bool

	slots    chan struct{} // pipeline window semaphore (capacity Depth)
	kick     chan struct{} // wake the writer: queue became non-empty
	closeCh  chan struct{}
	loopDone chan struct{}

	// Transport counters.
	requests  atomic.Uint64 // operations accepted
	dials     atomic.Uint64 // successful connects, initial included
	redials   atomic.Uint64 // reconnect attempts after a transport failure
	failures  atomic.Uint64 // operations failed with outcome unknown
	batches   atomic.Uint64 // batch frames written
	inflightG atomic.Int64  // operations currently inside the client
	scans     atomic.Uint64 // range scans issued
	snapshots atomic.Uint64 // fallback snapshots materialized
	iterOps   atomic.Int64  // entries stepped through snapshot iterators
}

var _ kv.Store = (*PipelinedClient)(nil)
var _ kv.Traceable = (*PipelinedClient)(nil)

// DialPipeline connects a protocol-v3 pipelined client. The initial
// connection is established eagerly (sharing the redial budget) so
// configuration errors surface immediately.
func DialPipeline(addr string, opts PipelineOptions) (*PipelinedClient, error) {
	opts = opts.withDefaults()
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	c := &PipelinedClient{
		addr:      addr,
		opts:      opts,
		sessionID: id,
		inflight:  make(map[uint64]*pcall),
		slots:     make(chan struct{}, opts.Depth),
		kick:      make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	var conn net.Conn
	for attempt := 0; attempt <= opts.Redials; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		if conn, err = c.connect(); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	go c.loop(conn)
	return c, nil
}

// Caps matches Client: server-translated merge and server-side scans;
// Snapshots stays false (Snapshot materializes the keyspace over the
// wire).
func (c *PipelinedClient) Caps() kv.Capabilities {
	return kv.Capabilities{NativeMerge: true, RangeScans: true}
}

func (c *PipelinedClient) dial() (net.Conn, error) {
	if c.opts.Dialer != nil {
		return c.opts.Dialer(c.addr)
	}
	return net.Dial("tcp", c.addr)
}

// connect dials and sends the v3 session hello.
func (c *PipelinedClient) connect() (net.Conn, error) {
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	if c.opts.Timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	}
	ver := protoV3
	if c.opts.Traced {
		ver |= helloTraceFlag
	}
	if _, err := conn.Write(appendHello(make([]byte, 0, helloLen), ver, c.sessionID)); err != nil {
		conn.Close()
		return nil, err
	}
	if c.opts.Timeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	c.dials.Add(1)
	return conn, nil
}

// loop owns the connection lifecycle: connect, serve until the transport
// breaks, requeue what was unanswered, reconnect. After Redials+1
// consecutive attempts without a single response, pending operations
// fail with a transient, outcome-unknown error (the v2 per-op contract,
// lifted to the pipeline).
func (c *PipelinedClient) loop(conn net.Conn) {
	defer close(c.loopDone)
	strikes := 0
	for {
		if conn == nil {
			if !c.waitWork() {
				break // closed
			}
			c.redials.Add(1)
			var err error
			if conn, err = c.connect(); err != nil {
				strikes++
				if strikes > c.opts.Redials {
					c.failPending(err)
					strikes = 0
					continue
				}
				if !c.sleep(time.Duration(strikes) * time.Millisecond) {
					break
				}
				continue
			}
		}
		got := c.serveConn(conn)
		conn = nil
		if c.isClosed() {
			break
		}
		if got {
			strikes = 0
			continue
		}
		strikes++
		if strikes > c.opts.Redials {
			c.failPending(fmt.Errorf("remote: connection to %s failed", c.addr))
			strikes = 0
		}
	}
	c.failAll(kv.ErrClosed)
}

// waitWork blocks until the queue is non-empty or the client closes.
func (c *PipelinedClient) waitWork() bool {
	for {
		c.mu.Lock()
		has := len(c.queue) > 0
		c.mu.Unlock()
		if has {
			return true
		}
		select {
		case <-c.closeCh:
			return false
		case <-c.kick:
		}
	}
}

// sleep pauses between reconnect attempts, abandoning the wait when the
// client closes.
func (c *PipelinedClient) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closeCh:
		return false
	case <-t.C:
		return true
	}
}

func (c *PipelinedClient) isClosed() bool {
	select {
	case <-c.closeCh:
		return true
	default:
		return false
	}
}

// serveConn runs one connection: a reader goroutine completes responses
// by sequence number while this goroutine packs the queue into batch
// frames. Returns once the transport breaks or the client closes,
// reporting whether at least one response was delivered; unanswered
// requests are back in the queue when it returns.
func (c *PipelinedClient) serveConn(conn net.Conn) bool {
	defer conn.Close()
	w := bufio.NewWriterSize(conn, 256<<10)
	connErr := make(chan error, 1)
	var got atomic.Bool
	go c.readLoop(conn, &got, connErr)

	// Retransmit whatever a previous connection left unanswered, plus
	// anything that queued while reconnecting.
	if err := c.writeBatches(w, conn); err != nil {
		c.requeueInflight()
		return got.Load()
	}
	for {
		select {
		case <-c.closeCh:
			c.requeueInflight()
			return got.Load()
		case <-connErr:
			c.requeueInflight()
			return got.Load()
		case <-c.kick:
		}
		if err := c.writeBatches(w, conn); err != nil {
			c.requeueInflight()
			return got.Load()
		}
	}
}

// readLoop completes in-flight requests from sequence-tagged responses,
// in whatever order the server sends them.
func (c *PipelinedClient) readLoop(conn net.Conn, got *atomic.Bool, connErr chan<- error) {
	r := bufio.NewReaderSize(conn, 256<<10)
	var hdr [rsp3HdrLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			connErr <- err
			return
		}
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		status := hdr[8]
		n := binary.LittleEndian.Uint32(hdr[9:13])
		if n > maxFrame {
			// Protocol violation; fail the addressed request outright (no
			// replay: the response would be oversized again) and drop the
			// connection.
			if call := c.takeCall(seq); call != nil {
				call.done <- presult{err: fmt.Errorf("%w: %d-byte response", ErrFrameTooLarge, n)}
			}
			connErr <- ErrFrameTooLarge
			return
		}
		out := make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			connErr <- err
			return
		}
		// On a traced connection every response carries the fixed trace
		// trailer, whether or not the matching call is traced.
		var tStart, tEnd int64
		if c.opts.Traced {
			var tr [traceTrailerLen]byte
			if _, err := io.ReadFull(r, tr[:]); err != nil {
				connErr <- err
				return
			}
			var derr error
			if tStart, tEnd, derr = decodeTraceTrailer(tr[:]); derr != nil {
				connErr <- derr
				return
			}
		}
		call := c.takeCall(seq)
		if call != nil {
			if call.tc != nil {
				// The server's handle window is subtracted from the
				// flush→delivery window so wire and server stay disjoint.
				serverDur := tEnd - tStart
				call.tc.Add(tracing.StageServer, serverDur)
				call.tc.Add(tracing.StageWire, call.tc.Now()-call.flushed-serverDur)
			}
			got.Store(true)
			call.done <- presult{status: status, out: out}
		}
		if c.opts.Timeout > 0 {
			c.mu.Lock()
			pending := len(c.inflight)
			c.mu.Unlock()
			if pending > 0 {
				conn.SetReadDeadline(time.Now().Add(c.opts.Timeout))
			} else {
				conn.SetReadDeadline(time.Time{})
			}
		}
	}
}

// takeCall removes and returns the in-flight request for seq, or nil
// when seq is unknown (already requeued for retransmission, or a
// duplicate completion).
func (c *PipelinedClient) takeCall(seq uint64) *pcall {
	c.mu.Lock()
	defer c.mu.Unlock()
	call, ok := c.inflight[seq]
	if !ok {
		return nil
	}
	delete(c.inflight, seq)
	return call
}

// writeBatches drains the queue into batch frames and flushes. Requests
// move to the in-flight table before their bytes hit the wire so the
// reader can match early responses.
func (c *PipelinedClient) writeBatches(w *bufio.Writer, conn net.Conn) error {
	wrote := false
	for {
		batch := c.takeBatch()
		if len(batch) == 0 {
			break
		}
		wrote = true
		c.batches.Add(1)
		if c.opts.Timeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
		}
		payload := 0
		for _, call := range batch {
			payload += reqHdrLen + len(call.key) + len(call.val)
		}
		var bhdr [batchHdrLen]byte
		binary.LittleEndian.PutUint32(bhdr[0:4], uint32(len(batch)))
		binary.LittleEndian.PutUint32(bhdr[4:8], uint32(payload))
		if _, err := w.Write(bhdr[:]); err != nil {
			return err
		}
		for _, call := range batch {
			var hdr [reqHdrLen]byte
			binary.LittleEndian.PutUint64(hdr[0:8], call.seq)
			hdr[8] = call.op
			binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(call.key)))
			binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(call.val)))
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := w.Write(call.key); err != nil {
				return err
			}
			if _, err := w.Write(call.val); err != nil {
				return err
			}
		}
	}
	if !wrote {
		return nil
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if c.opts.Timeout > 0 {
		conn.SetWriteDeadline(time.Time{})
		c.mu.Lock()
		pending := len(c.inflight)
		c.mu.Unlock()
		if pending > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opts.Timeout))
		}
	}
	return nil
}

// takeBatch moves a prefix of the queue into the in-flight table,
// bounded by BatchBytes and maxBatchOps. A single request larger than
// BatchBytes forms its own batch (individual requests are already
// bounded by maxFrame).
func (c *PipelinedClient) takeBatch() []*pcall {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return nil
	}
	n, size := 0, 0
	for _, call := range c.queue {
		sz := reqHdrLen + len(call.key) + len(call.val)
		if n > 0 && (size+sz > c.opts.BatchBytes || n == maxBatchOps) {
			break
		}
		n++
		size += sz
		if size >= c.opts.BatchBytes {
			break
		}
	}
	batch := make([]*pcall, n)
	copy(batch, c.queue[:n])
	for _, call := range batch {
		c.inflight[call.seq] = call
		if call.tc != nil {
			// Queue stage ends at the batch cut; everything from here to
			// response delivery (including the write syscall) is wire.
			now := call.tc.Now()
			call.tc.Add(tracing.StageQueue, now-call.enq)
			call.flushed = now
		}
	}
	if n == len(c.queue) {
		c.queue = nil
	} else {
		c.queue = c.queue[n:]
	}
	return batch
}

// requeueInflight moves unanswered in-flight requests back to the front
// of the queue, in sequence order, for retransmission on the next
// connection. The server must observe ascending sequence numbers, and
// every queued request carries a later sequence number than any
// in-flight one (batches are taken from the queue front).
func (c *PipelinedClient) requeueInflight() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.inflight) == 0 {
		return
	}
	calls := make([]*pcall, 0, len(c.inflight))
	for seq, call := range c.inflight {
		if call.tc != nil {
			// The dead connection's unanswered window counts as wire
			// time; queue accounting restarts at the requeue.
			now := call.tc.Now()
			call.tc.Add(tracing.StageWire, now-call.flushed)
			call.enq = now
		}
		calls = append(calls, call)
		delete(c.inflight, seq)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].seq < calls[j].seq })
	c.queue = append(calls, c.queue...)
}

// failPending fails every accepted-but-unanswered operation with a
// transient, outcome-unknown error: requests may or may not have been
// applied by the server.
func (c *PipelinedClient) failPending(cause error) {
	err := kv.UnknownOutcomeError(kv.TransientError(
		fmt.Errorf("remote: pipeline failed after %d attempts: %w", c.opts.Redials+1, cause)))
	c.drainPending(presult{status: statusError, err: err}, true)
}

// failAll fails pending operations at shutdown.
func (c *PipelinedClient) failAll(cause error) {
	c.drainPending(presult{status: statusError, err: cause}, false)
}

func (c *PipelinedClient) drainPending(res presult, countFailures bool) {
	c.mu.Lock()
	calls := make([]*pcall, 0, len(c.queue)+len(c.inflight))
	calls = append(calls, c.queue...)
	c.queue = nil
	for seq, call := range c.inflight {
		calls = append(calls, call)
		delete(c.inflight, seq)
	}
	c.mu.Unlock()
	for _, call := range calls {
		if countFailures {
			c.failures.Add(1)
		}
		call.done <- res
	}
}

// roundTrip submits one operation to the pipeline and waits for its
// response. A non-nil trace context attributes the op's queue, wire,
// and server stages; the queue stage starts here, so pipeline
// backpressure (waiting for an in-flight slot) counts as queue time.
func (c *PipelinedClient) roundTrip(tc *tracing.Ctx, op byte, key, val []byte) ([]byte, byte, error) {
	if reqHdrLen+len(key)+len(val) > maxFrame {
		return nil, statusError, ErrFrameTooLarge
	}
	enq := tc.Now()
	select {
	case c.slots <- struct{}{}:
	case <-c.closeCh:
		return nil, statusError, kv.ErrClosed
	}
	defer func() { <-c.slots }()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, statusError, kv.ErrClosed
	}
	c.seq++
	call := &pcall{seq: c.seq, op: op, key: key, val: val, done: make(chan presult, 1), tc: tc, enq: enq}
	c.queue = append(c.queue, call)
	c.mu.Unlock()
	c.requests.Add(1)
	c.inflightG.Add(1)
	select {
	case c.kick <- struct{}{}:
	default:
	}
	res := <-call.done
	c.inflightG.Add(-1)
	return res.out, res.status, res.err
}

// Metrics implements kv.Introspector: client-side transport counters
// under "remote.*", including the v3 pipeline's batch and in-flight
// accounting.
func (c *PipelinedClient) Metrics() map[string]int64 {
	return map[string]int64{
		"remote.requests":  int64(c.requests.Load()),
		"remote.dials":     int64(c.dials.Load()),
		"remote.redials":   int64(c.redials.Load()),
		"remote.failures":  int64(c.failures.Load()),
		"remote.batches":   int64(c.batches.Load()),
		"remote.inflight":  c.inflightG.Load(),
		"remote.scans":     int64(c.scans.Load()),
		"remote.snapshots": int64(c.snapshots.Load()),
		"remote.iter_ops":  c.iterOps.Load(),
	}
}

// DoTraced implements kv.Traceable and is the body of every operation:
// the op rides the pipeline in its wire form and the response's status
// maps back to the Store contract. A non-nil tc collects the queue, wire
// and server stages (server stamps require the connection to have
// negotiated Traced).
func (c *PipelinedClient) DoTraced(tc *tracing.Ctx, op kv.TracedOp) (kv.TracedResult, error) {
	code, key, val, err := encodeOp(op)
	if err != nil {
		return kv.TracedResult{}, err
	}
	out, status, err := c.roundTrip(tc, code, key, val)
	if err != nil {
		return kv.TracedResult{}, err
	}
	switch {
	case status == statusNotFound && code == opGet:
		return kv.TracedResult{}, kv.ErrNotFound
	case status != statusOK:
		return kv.TracedResult{}, remoteError(status, out)
	case code == opGet:
		return kv.TracedResult{Val: out}, nil
	case code == opScan:
		c.scans.Add(1)
		ents, err := decodeEntries(out)
		return kv.TracedResult{Entries: ents}, err
	}
	return kv.TracedResult{}, nil
}

// Get implements kv.Store.
func (c *PipelinedClient) Get(key []byte) ([]byte, error) {
	res, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpGet, Key: key})
	return res.Val, err
}

// Put implements kv.Store.
func (c *PipelinedClient) Put(key, value []byte) error {
	_, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpPut, Key: key, Val: value})
	return err
}

// Merge implements kv.Store.
func (c *PipelinedClient) Merge(key, operand []byte) error {
	_, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpMerge, Key: key, Val: operand})
	return err
}

// Delete implements kv.Store.
func (c *PipelinedClient) Delete(key []byte) error {
	_, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpDelete, Key: key})
	return err
}

// ScanRange implements kv.RangeScanner with a single server-side scan
// frame, like Client.ScanRange.
func (c *PipelinedClient) ScanRange(lo, hi kv.StateKey) ([]kv.Entry, error) {
	res, err := c.DoTraced(nil, kv.TracedOp{Op: kv.OpScan, Lo: lo, Hi: hi})
	return res.Entries, err
}

// Snapshot implements kv.Snapshotter via the stop-the-world fallback,
// like Client.Snapshot.
func (c *PipelinedClient) Snapshot() (kv.Snapshot, error) {
	entries, err := c.ScanRange(kv.StateKey{}, kv.MaxStateKey)
	if err != nil {
		return nil, err
	}
	snap := kv.NewFallbackSnapshot(entries)
	snap.CountIterOps(&c.iterOps)
	c.snapshots.Add(1)
	return snap, nil
}

// Close shuts the pipeline down: pending operations fail with
// kv.ErrClosed and the connection is torn down.
func (c *PipelinedClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closeCh)
	<-c.loopDone
	return nil
}
