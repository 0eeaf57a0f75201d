package remote

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/kv"
	"gadget/internal/tracing"
)

// PipelineOptions tunes a client.
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

// newSessionID draws a random 64-bit session identifier.
func newSessionID() (uint64, error) {
	var idBuf [8]byte
	if _, err := rand.Read(idBuf[:]); err != nil {
		return 0, fmt.Errorf("remote: session id: %w", err)
	}
	return binary.LittleEndian.Uint64(idBuf[:]), nil
}

// presult is the outcome of one pipelined request.
type presult struct {
	status byte
	out    []byte
	err    error
}

// pcall is one pipelined request. Whichever goroutine completes it —
// the caller itself, another caller holding the reader role, or a
// failure path — sets res and signals done (buffered) exactly once,
// under c.mu.
//
// tc/enq/flushed carry trace state between callers; every hand-off
// happens under c.mu, which provides the happens-before edges the
// unsynchronized Ctx requires.
type pcall struct {
	request
	res  presult
	done chan struct{}

	tc      *tracing.Ctx // nil for untraced operations
	enq     int64        // tracer clock at enqueue (queue-stage start)
	flushed int64        // tracer clock at batch cut (wire-stage start)
}

// PipelinedClient is a kv.Store backed by a remote Server. It
// multiplexes concurrent callers over one connection and runs no
// goroutine of its own: the callers do the I/O, taking two roles in
// turn. A caller that finds the writer role free drains the queue —
// its own request and whatever others queued meanwhile — into batch
// frames and flushes them, looping while more arrive (group commit). A
// caller waiting for its response that finds the reader role free reads
// responses, completing other callers' requests by sequence number,
// until its own arrives; then it passes the role to a caller still
// waiting. A lone caller so writes its request and reads its own answer
// with no hand-off, while concurrent callers share batch frames and keep
// up to Depth requests on the wire, answered in any order.
//
// Transport failures do not poison the client: the role holder that
// sees the connection break requeues every unanswered request in
// sequence order, re-dials under the same session ID, and retransmits
// them before any newer request; the server answers duplicates from its
// per-session response window, keeping the stream exactly-once.
type PipelinedClient struct {
	kv.Base // the plain Store calls; Caps and Close are the client's own

	addr      string
	opts      PipelineOptions
	sessionID uint64

	mu       sync.Mutex
	seq      uint64
	queue    []*pcall          // accepted, not yet written; ascending seq
	inflight map[uint64]*pcall // written on conn, awaiting response
	closed   bool

	// conn is the live connection, nil from a transport failure until
	// the redial; only the writer role uses w, only the reader role r.
	conn    net.Conn
	w       *bufio.Writer
	r       *bufio.Reader
	got     bool     // conn has delivered a response
	strikes int      // failed dials and connections lost without a response, in a row
	writing bool     // a caller holds the writer role
	parked  bool     // the reader token waits for the next live connection
	batch   []*pcall // the writer role's scratch batch

	slots chan struct{} // pipeline window semaphore (capacity Depth)
	// readTurn holds the reader role's one token while no caller reads;
	// waiting callers select on it beside their done channel.
	readTurn chan struct{}

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

// DialPipeline connects a client. The initial connection is established
// eagerly (sharing the redial budget) so configuration errors surface
// immediately.
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
		parked:    true,
		slots:     make(chan struct{}, opts.Depth),
		readTurn:  make(chan struct{}, 1),
	}
	c.Base = kv.NewBase(c, nil)
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
	c.mu.Lock()
	c.installLocked(conn)
	c.mu.Unlock()
	return c, nil
}

// Caps reports server-translated merge and server-side scans; Snapshots
// stays false (Snapshot materializes the keyspace over the wire).
func (c *PipelinedClient) Caps() kv.Capabilities {
	return kv.Capabilities{NativeMerge: true, RangeScans: true}
}

func (c *PipelinedClient) dial() (net.Conn, error) {
	if c.opts.Dialer != nil {
		return c.opts.Dialer(c.addr)
	}
	return net.Dial("tcp", c.addr)
}

// connect dials and sends the session hello.
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

// installLocked makes conn the live connection and hands a parked
// reader token back to the waiting callers. Caller holds c.mu.
func (c *PipelinedClient) installLocked(conn net.Conn) {
	c.conn, c.got = conn, false
	c.w = bufio.NewWriterSize(conn, 256<<10)
	c.r = bufio.NewReaderSize(conn, 256<<10)
	if c.parked {
		c.parked = false
		c.readTurn <- struct{}{}
	}
}

// breakLocked retires a failed connection, unless that already happened,
// and requeues its unanswered requests for retransmission. A connection
// lost before delivering a single response is a strike. Caller holds
// c.mu.
func (c *PipelinedClient) breakLocked(conn net.Conn) {
	if c.conn != conn {
		return
	}
	conn.Close()
	c.conn, c.w, c.r = nil, nil, nil
	c.requeueLocked()
	if c.got {
		c.strikes = 0
	} else {
		c.strikeLocked(fmt.Errorf("remote: connection to %s failed", c.addr))
	}
}

// strikeLocked counts a failed dial or a connection lost without a
// response. After Redials+1 in a row, every pending operation fails with
// a transient, outcome-unknown error: its request may or may not have
// been applied by the server. Caller holds c.mu.
func (c *PipelinedClient) strikeLocked(cause error) {
	c.strikes++
	if c.strikes <= c.opts.Redials {
		return
	}
	c.strikes = 0
	err := kv.UnknownOutcomeError(kv.TransientError(
		fmt.Errorf("remote: pipeline failed after %d attempts: %w", c.opts.Redials+1, cause)))
	c.failures.Add(uint64(len(c.queue) + len(c.inflight)))
	c.drainLocked(presult{status: statusError, err: err})
}

// drainLocked completes every queued and in-flight operation with res.
// Caller holds c.mu.
func (c *PipelinedClient) drainLocked(res presult) {
	for _, call := range c.queue {
		call.finish(res)
	}
	clear(c.queue)
	c.queue = c.queue[:0]
	for _, call := range c.inflight {
		call.finish(res)
	}
	clear(c.inflight)
}

// finish completes the call with res. Caller holds c.mu.
func (call *pcall) finish(res presult) {
	call.res = res
	call.done <- struct{}{}
}

// requeueLocked moves unanswered in-flight requests back to the front of
// the queue, in sequence order, for retransmission on the next
// connection. The server must observe ascending sequence numbers, and
// every queued request carries a later sequence number than any
// in-flight one (batches are taken from the queue front). Caller holds
// c.mu.
func (c *PipelinedClient) requeueLocked() {
	if len(c.inflight) == 0 {
		return
	}
	calls := make([]*pcall, 0, len(c.inflight)+len(c.queue))
	for _, call := range c.inflight {
		if call.tc != nil {
			// The dead connection's unanswered window counts as wire
			// time; queue accounting restarts at the requeue.
			now := call.tc.Now()
			call.tc.Add(tracing.StageWire, now-call.flushed)
			call.enq = now
		}
		calls = append(calls, call)
	}
	clear(c.inflight)
	sort.Slice(calls, func(i, j int) bool { return calls[i].seq < calls[j].seq })
	c.queue = append(calls, c.queue...)
}

// write takes the writer role if it is free and drains the queue onto
// the connection — re-dialing first when there is none — until the
// queue stays empty: calls that arrive while a batch is on its way out
// leave in the next one. A caller that finds the role taken returns at
// once; the holder writes its request on a later pass.
func (c *PipelinedClient) write() {
	c.mu.Lock()
	if c.writing {
		c.mu.Unlock()
		return
	}
	c.writing = true
	for len(c.queue) > 0 && !c.closed {
		conn, w := c.conn, c.w
		if conn == nil {
			c.mu.Unlock()
			c.redials.Add(1)
			fresh, err := c.connect()
			c.mu.Lock()
			switch {
			case err != nil:
				c.strikeLocked(err)
				backoff := time.Duration(c.strikes) * time.Millisecond
				c.mu.Unlock()
				time.Sleep(backoff)
				c.mu.Lock()
			case c.closed:
				fresh.Close()
			default:
				c.installLocked(fresh)
			}
			continue
		}
		batch := c.takeBatchLocked()
		last := len(c.queue) == 0
		c.mu.Unlock()
		err := c.writeBatch(conn, w, batch, last)
		c.mu.Lock()
		if err != nil {
			c.breakLocked(conn)
		}
	}
	c.writing = false
	c.mu.Unlock()
}

// takeBatchLocked moves a prefix of the queue into the in-flight table,
// bounded by BatchBytes and maxBatchOps. A single request larger than
// BatchBytes forms its own batch (individual requests are already
// bounded by maxFrame). Requests move to the in-flight table before
// their bytes hit the wire so a reader can match early responses. The
// returned slice is the writer role's scratch. Caller holds c.mu.
func (c *PipelinedClient) takeBatchLocked() []*pcall {
	n, size := 0, 0
	for _, call := range c.queue {
		sz := call.size()
		if n > 0 && (size+sz > c.opts.BatchBytes || n == maxBatchOps) {
			break
		}
		n++
		size += sz
		if size >= c.opts.BatchBytes {
			break
		}
	}
	c.batch = append(c.batch[:0], c.queue[:n]...)
	rest := copy(c.queue, c.queue[n:])
	clear(c.queue[rest:])
	c.queue = c.queue[:rest]
	for _, call := range c.batch {
		c.inflight[call.seq] = call
		if call.tc != nil {
			// Queue stage ends at the batch cut; everything from here to
			// response delivery (including the write syscall) is wire.
			now := call.tc.Now()
			call.tc.Add(tracing.StageQueue, now-call.enq)
			call.flushed = now
		}
	}
	return c.batch
}

// writeBatch encodes batch as one frame into w, and flushes w when
// flush is set.
func (c *PipelinedClient) writeBatch(conn net.Conn, w *bufio.Writer, batch []*pcall, flush bool) error {
	c.batches.Add(1)
	if c.opts.Timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	}
	payload := 0
	for _, call := range batch {
		payload += call.size()
	}
	if _, err := w.Write(appendBatchHeader(w.AvailableBuffer(), len(batch), payload)); err != nil {
		return err
	}
	for _, call := range batch {
		// Key and value go straight from the caller's slices: a large
		// value is written through, never copied into a frame buffer.
		if _, err := w.Write(appendRequestHeader(w.AvailableBuffer(), call.request)); err != nil {
			return err
		}
		if _, err := w.Write(call.key); err != nil {
			return err
		}
		if _, err := w.Write(call.val); err != nil {
			return err
		}
	}
	if !flush {
		return nil
	}
	return w.Flush()
}

// read holds the reader role for own's caller: it reads responses off
// the live connection and completes their calls, in whatever order the
// server sends them, until own is complete; then it passes the role on
// and reports true. With no live connection it parks the role until the
// next one, takes the writer role to re-dial, and reports false.
func (c *PipelinedClient) read(own *pcall) bool {
	c.mu.Lock()
	for len(own.done) == 0 {
		conn, r := c.conn, c.r
		if conn == nil {
			c.parked = true
			c.mu.Unlock()
			c.write()
			return false
		}
		c.mu.Unlock()
		if c.opts.Timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opts.Timeout))
		}
		seq, rsp, err := readResponse(r, c.opts.Traced)
		c.mu.Lock()
		if errors.Is(err, ErrFrameTooLarge) {
			// Protocol violation: fail the addressed request outright (a
			// replay would be oversized again) and drop the connection.
			c.completeLocked(conn, seq, presult{err: err}, 0)
		}
		if err != nil {
			c.breakLocked(conn)
			continue
		}
		c.completeLocked(conn, seq, presult{status: rsp.status, out: rsp.payload}, rsp.end-rsp.start)
	}
	c.mu.Unlock()
	c.readTurn <- struct{}{}
	return true
}

// completeLocked delivers the response to seq read off conn. A response
// nobody awaits on conn — its request was requeued, or conn has been
// retired — is dropped: the retransmission is answered again. serverDur
// is the server's handle window, subtracted from the flush→delivery
// window so wire and server stay disjoint. Caller holds c.mu.
func (c *PipelinedClient) completeLocked(conn net.Conn, seq uint64, res presult, serverDur int64) {
	call, ok := c.inflight[seq]
	if !ok || c.conn != conn {
		return
	}
	delete(c.inflight, seq)
	if res.err == nil {
		c.got = true
		if call.tc != nil {
			call.tc.Add(tracing.StageServer, serverDur)
			call.tc.Add(tracing.StageWire, call.tc.Now()-call.flushed-serverDur)
		}
	}
	call.finish(res)
}

// roundTrip submits one operation and waits for its response, writing
// and reading on the connection itself whenever no other caller is. A
// non-nil trace context attributes the op's queue, wire, and server
// stages; the queue stage starts here, so pipeline backpressure
// (waiting for an in-flight slot) counts as queue time.
func (c *PipelinedClient) roundTrip(tc *tracing.Ctx, op byte, key, val []byte) ([]byte, byte, error) {
	if reqHdrLen+len(key)+len(val) > maxFrame {
		return nil, statusError, ErrFrameTooLarge
	}
	enq := tc.Now()
	c.slots <- struct{}{}
	defer func() { <-c.slots }()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, statusError, kv.ErrClosed
	}
	c.seq++
	call := &pcall{
		request: request{seq: c.seq, op: op, key: key, val: val},
		done:    make(chan struct{}, 1),
		tc:      tc,
		enq:     enq,
	}
	c.queue = append(c.queue, call)
	c.mu.Unlock()
	c.requests.Add(1)
	c.inflightG.Add(1)
	defer c.inflightG.Add(-1)
	c.write()
	for {
		// A lone caller finds the reader role free and skips the
		// two-way select.
		select {
		case <-c.readTurn:
		default:
			select {
			case <-call.done:
				return call.res.out, call.res.status, call.res.err
			case <-c.readTurn:
			}
		}
		if c.read(call) {
			return call.res.out, call.res.status, call.res.err
		}
	}
}

// Metrics implements kv.Introspector: client-side transport counters
// under "remote.*", including batch and in-flight accounting.
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

// DoTraced implements kv.Traceable and is the body of every operation,
// the plain ones kv.Base serves included: the op rides the pipeline in
// its wire form and the response's status maps back to the Store
// contract. A scan is a single server-side request: the server walks
// [lo, hi] against its engine's snapshot and returns the serialized
// entry list, so consistency is the server engine's. A non-nil tc
// collects the queue, wire and server stages (server stamps require the
// connection to have negotiated Traced).
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

// Snapshot implements kv.Snapshotter via the stop-the-world fallback: a
// full-range scan materialized into a kv.FallbackSnapshot, which costs
// one full keyspace transfer; Caps().Snapshots is false accordingly.
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

// Close shuts the client down: pending operations fail with
// kv.ErrClosed, and closing the connection returns a caller blocked
// reading it.
func (c *PipelinedClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.w, c.r = nil, nil, nil
	}
	c.drainLocked(presult{status: statusError, err: kv.ErrClosed})
	return nil
}
