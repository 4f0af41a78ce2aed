// Query/serving layer over a malnet::store directory (DESIGN.md §12).
//
// Answers come from per-segment indexes merged in memory — the MDS
// payloads are never read (store.payload_bytes_read stays zero across a
// query session), so a year-long multi-segment store answers aggregate
// questions in milliseconds from a few KB per segment.
//
// Query language (one query per line, shared by `malnetctl query`, the
// `serve` stdin loop, and the concurrent TCP server in src/serve,
// DESIGN.md §13):
//   totals                 sample/C2/exploit/DDoS/degraded counts + day span
//   families               per-family sample counts
//   c2-liveness            live-C2 time series: "<day> <live count>" lines
//   c2 <address>           live days for one C2 address
//   exploits               per-vulnerability attribution rollup
//   exploit <cve-or-name>  one vulnerability's count + observation days
//   segments               manifest listing
//   help                   this list
// Unknown queries answer "err ..." and never throw.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "store/store.hpp"

namespace malnet::store {

/// Loads and merges every segment index once, then answers queries against
/// the merged rollup. Each answer updates store.queries and the
/// store.query_latency_us histogram on the store's registry; both are
/// registered at construction, so a snapshot lists them from then on.
class QueryEngine {
 public:
  /// Reads header + index of every manifest segment (partial reads).
  explicit QueryEngine(Store& store);

  /// Answers one query line (no trailing newline). Deterministic for a
  /// given store content; never throws on malformed queries.
  [[nodiscard]] std::string answer(std::string_view line);

  [[nodiscard]] const SegmentIndex& merged() const { return merged_; }

 private:
  std::vector<SegmentMeta> metas_;
  SegmentIndex merged_;
  // Looked up once: a registry lookup takes the registry's mutex.
  obs::Counter& queries_;
  obs::Histogram& latency_;
};

/// Reads query lines from `in` until EOF or "quit"/"exit", writing each
/// answer followed by a blank line to `out` (flushed per query, so the
/// loop can sit behind a pipe).
void serve_loop(Store& store, std::istream& in, std::ostream& out);

}  // namespace malnet::store
