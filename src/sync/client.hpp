// malnet::sync client — push/pull replication against a sync-enabled server.
//
// Both directions run the same hash-tree refinement (DESIGN.md §14): start
// from the root summaries (HELLO), descend only into subtrees whose set
// hashes differ (TREE), switch to explicit member lists once a subtree is
// small (LIST), then transfer exactly the difference (GET/PUT). Identical
// stores cost one round trip; the wire cost of a sync is proportional to
// the difference, never to the store size — SyncStats::bytes_saved is the
// segment volume refinement avoided shipping.
//
// Convergence safety: every operation is idempotent (PUT/import is a
// grow-only set union; GET is a read), so a failed attempt can simply be
// retried from scratch — there is no session state on the server to
// resume, and a half-finished sync leaves both manifests valid, just not
// yet equal. Every GET response is re-hashed and checked against the hash
// that was requested before it is imported; a mismatch fails the sync
// without touching the manifest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "store/merkle.hpp"
#include "store/store.hpp"
#include "sync/wire.hpp"

namespace malnet::sync {

/// Outcome of one push() or pull(). Mirrored into `sync.`-prefixed counters
/// (rounds, segments_sent, segments_received, bytes_on_wire, bytes_saved,
/// verify_failures) when the client was built with a registry.
struct SyncStats {
  std::uint64_t rounds = 0;            // request/response round trips
  std::uint64_t segments_sent = 0;     // PUTs accepted by the remote
  std::uint64_t segments_received = 0; // GETs imported locally
  std::uint64_t bytes_on_wire = 0;     // frame bytes written + read
  std::uint64_t bytes_saved = 0;       // segment bytes refinement skipped
  std::uint64_t verify_failures = 0;   // GET bodies that failed re-hashing
};

class SyncClient {
 public:
  explicit SyncClient(store::Store& store, obs::Registry* registry = nullptr)
      : store_(store), registry_(registry) {}

  /// Connects through serve::Client (retry/backoff per `opts`). False when
  /// every attempt failed.
  [[nodiscard]] bool connect(const std::string& host, std::uint16_t port,
                             serve::ClientOptions opts = {}) {
    return conn_.connect(host, port, opts);
  }
  [[nodiscard]] bool connected() const { return conn_.connected(); }

  /// Transfers every local segment the remote lacks. Nullopt on any I/O,
  /// protocol, or verification failure — the remote manifest is left valid
  /// either way (imports are atomic and validated server-side).
  [[nodiscard]] std::optional<SyncStats> push();

  /// Transfers every remote segment the local store lacks. Nullopt on any
  /// failure — the local manifest is then untouched beyond segments that
  /// already fully imported (each one valid and verified).
  [[nodiscard]] std::optional<SyncStats> pull();

  /// Turns on cross-node tracing: every subsequent request carries
  /// `trace_id` (MSY2 framing) and records a client-side wall-clock span
  /// per round trip into trace_events(). 0 disables.
  void enable_tracing(std::uint64_t trace_id) {
    trace_id_ = trace_id;
    tracer_.set_enabled(trace_id != 0);
  }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }
  /// Snapshot of the client spans recorded while tracing (one per rpc),
  /// ready for obs::write_chrome_trace / obs::merge_chrome_traces.
  [[nodiscard]] std::vector<obs::TraceEvent> trace_events() const {
    return tracer_.snapshot();
  }

 private:
  using SizeMap = std::unordered_map<std::string, std::uint64_t>;

  /// One round trip. Nullopt (and a closed connection) on I/O failure, a
  /// malformed frame, an id/op mismatch, or a status-1 reply: refinement
  /// requests are never invalid, so an error reply means the peers
  /// disagree about the protocol and the attempt must be abandoned, not
  /// patched around.
  [[nodiscard]] std::optional<util::Bytes> rpc(SyncOp op,
                                               util::BytesView payload,
                                               SyncStats& stats);
  [[nodiscard]] std::optional<store::TreeNodeSummary> fetch_node(
      const std::string& prefix, SyncStats& stats);
  [[nodiscard]] std::optional<std::vector<std::string>> fetch_list(
      const std::string& prefix, SyncStats& stats);

  [[nodiscard]] bool do_push(SyncStats& stats);
  [[nodiscard]] bool do_pull(SyncStats& stats);
  /// Refinement walk at `prefix`, collecting local members the remote
  /// lacks (push) or remote members the local store lacks (pull). `remote`
  /// is the remote's summary at the same prefix. False aborts the attempt.
  [[nodiscard]] bool push_walk(const store::SegmentSet& local,
                               const std::string& prefix,
                               const store::TreeNodeSummary& remote,
                               std::vector<std::string>& to_send,
                               SyncStats& stats);
  [[nodiscard]] bool pull_walk(const store::SegmentSet& local,
                               const SizeMap& sizes, const std::string& prefix,
                               const store::TreeNodeSummary& remote,
                               std::vector<std::string>& to_fetch,
                               SyncStats& stats);
  /// LIST-based diff once a subtree is small enough to enumerate.
  [[nodiscard]] bool list_diff(const store::SegmentSet& local,
                               const std::string& prefix, bool pulling,
                               const SizeMap& sizes,
                               std::vector<std::string>& out,
                               SyncStats& stats);
  void record(const SyncStats& stats);

  store::Store& store_;
  obs::Registry* registry_ = nullptr;
  serve::Client conn_{kMaxSyncFrameBody};
  std::uint64_t next_id_ = 1;
  std::uint64_t trace_id_ = 0;
  obs::Tracer tracer_;
};

}  // namespace malnet::sync
