package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/kv"
)

// session is the server-side replay state of one client session: the
// highest applied sequence number and a bounded window of cached
// responses, so a reconnecting client can retransmit every request it
// has not seen answered (up to a whole pipeline window) and receive the
// original responses without re-application. A cached response keeps
// its handle stamps, so a replayed answer echoes the ORIGINAL handling
// window — the op was applied exactly once, and the trace must
// attribute the once it was applied.
type session struct {
	mu       sync.Mutex
	maxSeq   uint64
	window   map[uint64]response
	order    []uint64 // seqs in arrival order, for FIFO eviction
	lastUsed time.Time
}

// dedupe classifies seq against the session and, for fresh sequence
// numbers, runs apply exactly once and caches its response (including
// the handle stamps apply reports) in a window of replayWindow
// responses. Replays are answered from the cache; a sequence number at
// or below maxSeq whose response has been evicted is stale (zero stamps:
// nothing was handled on its behalf).
func (sess *session) dedupe(seq uint64, apply func() (byte, []byte, int64, int64)) (rsp response, replayed, stale bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if seq != 0 && seq <= sess.maxSeq {
		if rsp, ok := sess.window[seq]; ok {
			return rsp, true, false
		}
		return response{status: statusError, payload: []byte("remote: stale sequence number")}, false, true
	}
	status, out, start, end := apply()
	sess.maxSeq = seq
	if sess.window == nil {
		sess.window = make(map[uint64]response, replayWindow)
	}
	rsp = response{status: status, start: start, end: end, payload: out}
	sess.window[seq] = rsp
	sess.order = append(sess.order, seq)
	for len(sess.order) > replayWindow {
		delete(sess.window, sess.order[0])
		sess.order = sess.order[1:]
	}
	return rsp, false, false
}

// Server serves a kv.Store over TCP: batched, pipelined requests in,
// sequence-tagged responses out, one goroutine per connection.
type Server struct {
	store kv.Store
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool

	// start anchors the server-monotonic clock for trace handle stamps.
	start time.Time

	smu      sync.Mutex
	sessions map[uint64]*session

	// Wire-level counters (atomics: handlers run one goroutine per conn).
	accepted  atomic.Uint64 // connections accepted
	requests  atomic.Uint64 // requests decoded and answered
	batches   atomic.Uint64 // batch frames decoded
	replays   atomic.Uint64 // reconnect replays answered from cache
	staleSeqs atomic.Uint64 // requests refused for stale sequence numbers
	oversized atomic.Uint64 // requests refused for exceeding maxFrame
	scans     atomic.Uint64 // range scans served
}

// Serve starts serving store on addr (e.g. "127.0.0.1:0") and returns
// once the listener is ready. Close shuts it down.
func Serve(store kv.Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		store:    store,
		ln:       ln,
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[uint64]*session),
		start:    time.Now(),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// getSession returns (creating if needed) the session for id, evicting
// the least-recently-used session when the table is full.
func (s *Server) getSession(id uint64) *session {
	s.smu.Lock()
	defer s.smu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		sess.lastUsed = time.Now()
		return sess
	}
	if len(s.sessions) >= maxSessions {
		var oldestID uint64
		var oldest time.Time
		first := true
		for id, sess := range s.sessions {
			if first || sess.lastUsed.Before(oldest) {
				first = false
				oldestID, oldest = id, sess.lastUsed
			}
		}
		delete(s.sessions, oldestID)
	}
	sess := &session{lastUsed: time.Now()}
	s.sessions[id] = sess
	return sess
}

// apply executes one decoded request against the backing store through
// kv.DoTraced, the one dispatch path, and maps the outcome to a wire
// status, with per-request panic recovery: a panicking engine fails the
// request, not the connection.
func (s *Server) apply(q request) (status byte, out []byte) {
	defer func() {
		if p := recover(); p != nil {
			status, out = statusError, []byte(fmt.Sprintf("store panic: %v", p))
		}
	}()
	op, err := decodeOp(q)
	if err != nil {
		return statusError, []byte(err.Error())
	}
	res, err := kv.DoTraced(s.store, nil, op)
	payload := res.Val
	if err == nil && q.op == opScan {
		if payload, err = encodeEntries(res.Entries); err == nil {
			s.scans.Add(1)
		}
	}
	switch {
	case err == nil:
		return statusOK, payload
	case q.op == opGet && errors.Is(err, kv.ErrNotFound):
		return statusNotFound, nil
	default:
		return errStatus(err), []byte(err.Error())
	}
}

// nowNanos is the server-monotonic clock for trace handle stamps.
func (s *Server) nowNanos() int64 { return int64(time.Since(s.start)) }

// serve dispatches one decoded request through the session's exactly-once
// window and bumps the wire counters. On traced connections the apply
// window is stamped (and cached, so replays echo the original stamps);
// untraced connections skip the clock reads entirely.
func (s *Server) serve(sess *session, q request, traced bool) response {
	s.requests.Add(1)
	rsp, replayed, stale := sess.dedupe(q.seq, func() (byte, []byte, int64, int64) {
		var t0, t1 int64
		if traced {
			t0 = s.nowNanos()
		}
		status, out := s.apply(q)
		if traced {
			t1 = s.nowNanos()
		}
		return status, out, t0, t1
	})
	if replayed {
		s.replays.Add(1)
	}
	if stale {
		s.staleSeqs.Add(1)
	}
	return rsp
}

// handle serves one connection: after the hello, read a batch frame,
// answer each request tagged with its sequence number, flush at batch
// end. The response order is whatever the server produces — clients
// match by sequence number and must not assume it equals the request
// order. On traced connections every response carries the fixed trace
// trailer.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)

	var hello [helloLen]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return
	}
	// The version byte carries the trace-negotiation flag in its top
	// bit; any version but protoV3 — a wrong magic, a retired protocol —
	// is not a client this server can answer.
	if binary.LittleEndian.Uint32(hello[0:4]) != protoMagic || hello[4]&helloVersionMask != protoV3 {
		return
	}
	traced := hello[4]&helloTraceFlag != 0
	sess := s.getSession(binary.LittleEndian.Uint64(hello[5:13]))
	for {
		reqs, err := readBatch(r)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.oversized.Add(1)
			}
			// A malformed batch cannot be resynchronized: drop the
			// connection and let the client reconnect and retransmit.
			return
		}
		s.batches.Add(1)
		for _, q := range reqs {
			if !writeResponse(w, q.seq, s.serve(sess, q, traced), traced) {
				return
			}
		}
		if w.Flush() != nil {
			return
		}
	}
}

// Metrics implements kv.Introspector: wire-level counters under
// "remote_server.*", merged with the backing store's metrics when it is
// introspectable.
func (s *Server) Metrics() map[string]int64 {
	s.mu.Lock()
	conns := int64(len(s.conns))
	s.mu.Unlock()
	s.smu.Lock()
	sessions := int64(len(s.sessions))
	s.smu.Unlock()
	m := map[string]int64{
		"remote_server.conns_accepted": int64(s.accepted.Load()),
		"remote_server.conns_live":     conns,
		"remote_server.sessions":       sessions,
		"remote_server.requests":       int64(s.requests.Load()),
		"remote_server.batches":        int64(s.batches.Load()),
		"remote_server.replays":        int64(s.replays.Load()),
		"remote_server.stale_seqs":     int64(s.staleSeqs.Load()),
		"remote_server.oversized":      int64(s.oversized.Load()),
		"remote_server.scans":          int64(s.scans.Load()),
	}
	for k, v := range kv.MetricsOf(s.store) {
		m[k] = v
	}
	return m
}

// Requests returns the number of requests this server has decoded and
// answered; the shard layer uses it to cross-check per-shard routing
// against client-side totals.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Close stops the listener, closes live connections, and waits for
// handlers to drain. The wrapped store is not closed.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
