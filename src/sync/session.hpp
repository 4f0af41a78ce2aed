// malnet::sync server side — answers MSY1 requests against a local store.
//
// Plugged into serve::Server through ServeConfig::aux_handler: the query
// server keeps owning the transport (threads, backpressure, timeouts) and
// hands over only the frame bodies its own codec rejects. handle() is
// called concurrently from the server's I/O threads; it is thread-safe
// because every store operation locks internally and counters are atomic.
//
// Safety contract (the fuzz target): no input ever crashes or wedges the
// handler, and nothing reaches the store's manifest unless it validates as
// a complete segment — Store::import_segment re-derives the content hash
// from the exact bytes received, so a corrupted PUT is rejected, never
// journaled. An undecodable body returns nullopt and the server drops the
// connection; a decodable-but-wrong request gets a status-1 response and
// the connection lives on.
#pragma once

#include <optional>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/slowlog.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"
#include "sync/wire.hpp"

namespace malnet::sync {

/// Metrics (all `sync.`-prefixed, on the registry passed in):
/// requests, segments_served, segments_imported, puts_rejected.
class SessionHandler {
 public:
  SessionHandler(store::Store& store, obs::Registry& registry);

  /// Sync ops at or above `threshold_us` land in the handler's slow log
  /// (default: 10ms, capacity 32 — mirrors the serve layer).
  void configure_slow_log(std::size_t capacity, std::int64_t threshold_us);
  [[nodiscard]] const obs::SlowLog& slow_log() const { return slow_; }

  /// Traced requests (MSY2) record wall-clock server spans here when set.
  void set_tracer(obs::Tracer* spans) { spans_ = spans; }

  /// Answers one MSY1/MSY2 frame body with a complete MSP1 response frame
  /// (length prefix included). Nullopt = not a decodable sync request;
  /// the caller should treat the connection as broken. `peer` (when known)
  /// is recorded in slow-log entries.
  [[nodiscard]] std::optional<util::Bytes> handle(util::BytesView body,
                                                 std::string_view peer = {});

 private:
  /// Op-specific handling; handle() wraps this with timing/slow-log/spans.
  [[nodiscard]] std::optional<util::Bytes> dispatch(const SyncRequest& in);

  store::Store& store_;
  obs::Counter* requests_;
  obs::Counter* segments_served_;
  obs::Counter* segments_imported_;
  obs::Counter* puts_rejected_;
  obs::SlowLog slow_;
  obs::Tracer* spans_ = nullptr;
};

}  // namespace malnet::sync
