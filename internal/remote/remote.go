// Package remote implements the paper's §8 extension: external state
// management. A Server exposes any kv.Store over TCP, and a
// PipelinedClient implements kv.Store over that wire — so the same
// harness that drives embedded stores can evaluate a decoupled
// compute/state deployment (multiple workload generator instances
// against one shared remote store, or a sharded fleet of them; see
// package shard).
//
// The package is split into three files:
//
//   - protocol.go — the wire codec: frame layouts, size limits, and the
//     encode/decode helpers of both ends.
//   - server.go — Server, one goroutine per connection, and the
//     per-session replay state that makes reconnects exactly-once.
//   - pipeline.go — PipelinedClient: many in-flight requests per
//     connection, coalesced into batch frames, with responses matched
//     by sequence number in any order.
//
// The protocol (all integers little-endian):
//
//	hello:    magic u32 | version u8 (=3) | sessionID u64
//	batch:    count u32 | payloadLen u32 | count × request
//	request:  seq u64 | op u8 | keyLen u32 | valLen u32 | key | val
//	response: seq u64 | status u8 | valLen u32 | val
//
// status: 0 = ok, 1 = not found, 2 = error (val holds the message),
// 3 = transient error (retry-safe: the store did not apply the op). The
// server drops a connection whose hello names any other version.
//
// The client runs no goroutine: its callers do the connection I/O. A
// caller that finds the writer role free writes the queued batch,
// looping while more requests arrive; a caller waiting for its answer
// that finds the reader role free reads responses, completing other
// callers' requests, until its own arrives, then hands the role to a
// caller still waiting. A lone caller thus writes its request and reads
// its own response, the cost of a plain request/response exchange.
//
// The session/sequence layer makes reconnect replay exactly-once: a
// client re-dials a broken connection, re-sends its hello with the same
// session ID, and retransmits every request it has not seen answered,
// in sequence order; the server deduplicates by sequence against a
// bounded window of cached responses and answers replays from the cache
// instead of re-applying them. A request the client ultimately cannot
// confirm surfaces as a transient, outcome-unknown error, which the kv
// resilience layer retries only for idempotent ops.
package remote
