// Output checks. Every operation the benchmark drives is counted as
// attempted; every failed operation or failed check is counted as failed,
// and a single failure makes the whole run incorrect.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class CheckLog {
 public:
  void attempt(std::uint64_t n = 1);
  /// Records one check; a false `ok` counts a failure described by `what`.
  bool expect(bool ok, const std::string& what);
  /// Counts `n` failed operations at once (no-op for n = 0).
  void fail(std::uint64_t n, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the report
};

/// Every repetition of a seed must reproduce the first repetition's MDS
/// digest and metrics-snapshot JSON byte for byte.
class RepeatCheck {
 public:
  /// False when this repetition differs from the first one seen for `seed`.
  [[nodiscard]] bool same_as_first(std::uint64_t seed, const std::string& digest,
                                   const std::string& metrics_json);

 private:
  std::map<std::uint64_t, std::pair<std::string, std::string>> first_;
};

/// Accepts a served answer when it is byte-identical to an in-process
/// answer over the store's segment set before the run, or after any prefix
/// of the segments pushed into it since. The base answers are computed up
/// front; prefix states are computed only when an answer differs from the
/// base, and then cached.
class AnswerOracle {
 public:
  /// Answers every query over the base set plus the first `k` pushed
  /// segments (k = 0 is the base set).
  using Loader = std::function<std::vector<std::string>(
      std::size_t k, const std::vector<std::string>& queries)>;

  AnswerOracle(std::vector<std::string> queries, Loader loader);

  [[nodiscard]] const std::vector<std::string>& queries() const { return queries_; }
  [[nodiscard]] const std::string& base_answer(std::size_t query) const {
    return states_.at(0)[query];
  }
  /// True when `answer` matches the base state or the state after some
  /// prefix of at most `pushed` segments.
  [[nodiscard]] bool accepts(std::size_t query, std::string_view answer,
                             std::size_t pushed);

 private:
  std::vector<std::string> queries_;
  Loader loader_;
  std::map<std::size_t, std::vector<std::string>> states_;
};

/// True when every hash in `want` is in `have` (both need not be sorted).
[[nodiscard]] bool contains_all(std::vector<std::string> have,
                                const std::vector<std::string>& want);

}  // namespace perfbench
