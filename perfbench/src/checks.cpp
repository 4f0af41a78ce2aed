#include "checks.hpp"

#include <algorithm>

namespace perfbench {

void CheckLog::attempt(std::uint64_t n) {
  std::lock_guard lock(mu_);
  attempted_ += n;
}

bool CheckLog::expect(bool ok, const std::string& what) {
  if (ok) return true;
  std::lock_guard lock(mu_);
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
  return false;
}

void CheckLog::fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  std::lock_guard lock(mu_);
  failed_ += n;
  if (failures_.size() < 16) failures_.push_back(what);
}

std::uint64_t CheckLog::attempted() const {
  std::lock_guard lock(mu_);
  return attempted_;
}

std::uint64_t CheckLog::failed() const {
  std::lock_guard lock(mu_);
  return failed_;
}

std::vector<std::string> CheckLog::failures() const {
  std::lock_guard lock(mu_);
  return failures_;
}

bool RepeatCheck::same_as_first(std::uint64_t seed, const std::string& digest,
                                const std::string& metrics_json) {
  const auto [it, inserted] = first_.try_emplace(seed, digest, metrics_json);
  return inserted || (it->second.first == digest && it->second.second == metrics_json);
}

AnswerOracle::AnswerOracle(std::vector<std::string> queries, Loader loader)
    : queries_(std::move(queries)), loader_(std::move(loader)) {
  states_[0] = loader_(0, queries_);
}

bool AnswerOracle::accepts(std::size_t query, std::string_view answer,
                           std::size_t pushed) {
  for (std::size_t k = 0; k <= pushed; ++k) {
    auto it = states_.find(k);
    if (it == states_.end()) it = states_.emplace(k, loader_(k, queries_)).first;
    if (it->second.at(query) == answer) return true;
  }
  return false;
}

bool contains_all(std::vector<std::string> have, const std::vector<std::string>& want) {
  std::sort(have.begin(), have.end());
  return std::all_of(want.begin(), want.end(), [&have](const std::string& h) {
    return std::binary_search(have.begin(), have.end(), h);
  });
}

}  // namespace perfbench
