// malnet::serve — concurrent TCP query server over the study store
// (DESIGN.md §13).
//
// Wraps a store::QueryEngine (built once at start(): every segment's
// header+index is read, payloads never) and answers wire-protocol requests
// from many clients at once. Index-only answering is preserved under
// concurrency by construction: the merged index is immutable after start(),
// so store.payload_bytes_read stays 0 for the server's whole lifetime, and
// N concurrent clients receive byte-identical answers to a single-client
// `malnetctl query`.
//
// Concurrency model: one acceptor plus a small fixed set of I/O threads,
// each running a poll(2) loop over its share of connections (non-blocking
// sockets, level-triggered). Queries are answered inline on the I/O thread —
// they are sub-millisecond in-memory lookups, so an event loop beats a
// thread per connection at the 1024-client scale bench_serve drives.
//
// Per-connection backpressure: at most `max_pipeline` requests are parsed
// per connection ahead of its writes, and once the pending output buffer
// exceeds `max_output_buffer` the server stops reading that connection
// (POLLIN is dropped) until the client drains responses. A slow reader
// therefore bounds its own memory, never the server's.
//
// Timeouts reuse the dns::Resolver discipline: a connection idle longer
// than `idle_timeout` is closed (serve.idle_timeouts), and every socket op
// is poll()-bounded so a hung peer cannot wedge an I/O thread.
//
// Graceful shutdown: stop() closes the listener, answers every request
// already received, flushes each connection within `drain_timeout`, then
// joins all threads. request_stop() is async-signal-safe (one write() to a
// pipe), so a SIGTERM handler can trigger the same drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "util/bytes.hpp"

namespace malnet::serve {

/// Per-request context handed to aux handlers alongside the frame body.
struct AuxContext {
  std::string_view peer;  // remote "ip:port" (may be "?")
};

struct ServeConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; Server::port() reports the pick
  /// I/O threads (0 = min(4, hardware_concurrency)); each owns a poll loop.
  int io_threads = 0;
  /// Connections idle longer than this are closed.
  int idle_timeout_ms = 30'000;
  /// Budget for flushing pending responses during stop().
  int drain_timeout_ms = 5'000;
  /// Requests parsed ahead of a connection's unwritten responses.
  int max_pipeline = 128;
  /// Pending response bytes per connection before reads pause.
  std::size_t max_output_buffer = 4 << 20;
  std::size_t max_frame_body = 1 << 20;
  /// Escape hatch for a second frame family on the same port (the sync
  /// protocol, DESIGN.md §14): a body the query codec rejects is offered
  /// here and the handler returns a complete response frame — or nullopt
  /// to have the body treated as a protocol error. Handlers run inline on
  /// the I/O threads and must be thread-safe.
  std::function<std::optional<util::Bytes>(util::BytesView, const AuxContext&)>
      aux_handler;
  /// Frame-body bound while aux_handler is set (aux frames — whole
  /// segments — dwarf query frames; the effective per-connection limit is
  /// the larger of the two bounds).
  std::size_t max_aux_frame_body = 1 << 20;
  /// Query requests at or above this latency land in the slow-request log.
  std::int64_t slow_threshold_us = 10'000;
  /// Slowest entries the log retains.
  std::size_t slow_log_capacity = 32;
  /// When set (and enabled), traced requests (MQR2) record a wall-clock
  /// server span here — the /tracez side of cross-node tracing.
  obs::Tracer* spans = nullptr;
};

/// One row of the live connection table (/statusz).
struct ConnectionInfo {
  std::string peer;
  std::size_t out_pending = 0;   // unwritten response bytes
  int pending_responses = 0;     // responses queued since last full drain
  bool paused = false;           // backpressured: reads off
  bool closing = false;
  std::int64_t idle_ms = 0;      // since last byte read
};

/// Metrics (on the registry passed in, all `serve.`-prefixed):
/// connections_accepted/closed, connections_active (gauge), requests,
/// protocol_errors, idle_timeouts, backpressure_pauses, bytes_rx/bytes_tx,
/// and the serve.request_latency_us histogram (wall-clock, operational
/// only — never part of a byte-compared artifact, same contract as
/// store.query_latency_us).
class Server {
 public:
  Server(store::Store& store, ServeConfig cfg, obs::Registry& registry);
  /// stop()s if still running.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener, builds the QueryEngine (index-only reads), spawns
  /// the acceptor and I/O threads. Throws std::runtime_error on bind
  /// failure. Idempotent until stop().
  void start();

  /// Bound port (valid after start(); resolves port-0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, answer + flush everything already
  /// received (bounded by drain_timeout_ms), close, join. Safe to call
  /// from any thread; second and later calls are no-ops.
  void stop();

  /// Async-signal-safe stop trigger (single write() to an internal pipe).
  /// The drain itself runs on the thread that called start()/wait().
  void request_stop();

  /// Blocks until request_stop() (or stop() from another thread), then
  /// performs the drain. The malnetctl serve --listen main loop.
  void wait();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// True once a stop/drain has been requested (the /healthz drain state).
  [[nodiscard]] bool draining() const;

  /// Live connection table, refreshed by each I/O thread once per poll
  /// tick — a point-in-time view, cheap enough for an admin page.
  [[nodiscard]] std::vector<ConnectionInfo> connections() const;

  /// Slow-request log (query requests above ServeConfig::slow_threshold_us).
  [[nodiscard]] const obs::SlowLog& slow_log() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> running_{false};
  std::uint16_t port_ = 0;
};

}  // namespace malnet::serve
