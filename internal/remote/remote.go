// Package remote implements the paper's §8 extension: external state
// management. A Server exposes any kv.Store over TCP, and two client
// flavours implement kv.Store over that wire — so the same harness that
// drives embedded stores can evaluate a decoupled compute/state
// deployment (multiple workload generator instances against one shared
// remote store, or a sharded fleet of them; see package shard).
//
// The package is split into four files:
//
//   - protocol.go — the wire codec: frame layouts, size limits, and the
//     encode/decode helpers shared by both ends and both versions.
//   - server.go — Server, which speaks both protocol versions and keeps
//     the per-session replay state that makes reconnects exactly-once.
//   - client.go — Client, the protocol-v2 synchronous client (one
//     request in flight per connection).
//   - pipeline.go — PipelinedClient, the protocol-v3 client: many
//     in-flight requests per connection, coalesced into batch frames,
//     with responses matched by sequence number in any order.
//
// Protocol v2 (all integers little-endian):
//
//	hello:    magic u32 | version u8 (=2) | sessionID u64
//	request:  seq u64 | op u8 | keyLen u32 | valLen u32 | key | val
//	response: status u8 | valLen u32 | val
//
// Protocol v3 reuses the hello and request record layouts but wraps
// requests in batch frames and tags every response with the sequence
// number it answers, so responses may complete out of order:
//
//	hello:    magic u32 | version u8 (=3) | sessionID u64
//	batch:    count u32 | payloadLen u32 | count × request
//	response: seq u64 | status u8 | valLen u32 | val
//
// status: 0 = ok, 1 = not found, 2 = error (val holds the message),
// 3 = transient error (retry-safe: the store did not apply the op).
//
// The session/sequence layer makes reconnect replay exactly-once under
// both versions: a client re-dials a broken connection, re-sends its
// hello with the same session ID, and retransmits every request it has
// not seen answered, in sequence order; the server deduplicates by
// sequence against a bounded window of cached responses and answers
// replays from the cache instead of re-applying them. A request the
// client ultimately cannot confirm surfaces as a transient,
// outcome-unknown error, which the kv resilience layer retries only for
// idempotent ops.
package remote
