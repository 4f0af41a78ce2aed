#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>

namespace perfbench {

namespace mu = malnet::util;
namespace ms = malnet::serve;

namespace {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LoadGenerator::LoadGenerator(AnswerOracle& oracle, std::vector<std::size_t> schedule,
                             const std::atomic<std::size_t>* pushed)
    : oracle_(oracle), schedule_(std::move(schedule)), pushed_(pushed) {}

bool LoadGenerator::connect(const std::string& host, std::uint16_t port,
                            int connections) {
  conns_.clear();
  conns_.resize(static_cast<std::size_t>(connections));
  for (auto& c : conns_) {
    c.fd = mu::tcp_connect(host, port, 2'000);
    if (!c.fd.valid()) return false;
    mu::set_nonblocking(c.fd.get(), true);
  }
  return true;
}

bool LoadGenerator::flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const auto n = ::send(c.fd.get(), c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                          MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

void LoadGenerator::receive(Conn& c, std::int64_t now_ns, StepStats& st) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const auto n = ::recv(c.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      c.reader.feed({buf, static_cast<std::size_t>(n)});
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.dead = true;  // orderly close or error: every in-flight request is lost
    break;
  }
  while (auto body = c.reader.next()) {
    const auto resp = ms::decode_response(*body);
    if (c.head == c.inflight.size()) {  // an answer nobody asked for
      ++st.failed;
      c.dead = true;
      return;
    }
    const InFlight req = c.inflight[c.head++];
    ++st.answered;
    const double latency = static_cast<double>(now_ns - req.due_ns) / 1e3;
    st.latency_us.push_back(latency);
    window_of(st.latency_windows, req.due_ns).push_back(latency);
    st.rtt_us.push_back(static_cast<double>(now_ns - req.sent_ns) / 1e3);
    if (!resp || resp->id != req.id || resp->status != ms::Status::kOk) {
      ++st.failed;
      continue;
    }
    if (resp->text != oracle_.base_answer(req.query)) {
      // Checked after the step against the prefix states, so the slow
      // path never delays the send schedule.
      const std::size_t pushed = pushed_ ? pushed_->load() : 0;
      auto [it, inserted] = pending_.try_emplace({req.query, resp->text}, pushed);
      if (!inserted) it->second = std::max(it->second, pushed);
    }
  }
  if (c.reader.error()) c.dead = true;
  if (c.head == c.inflight.size()) {
    c.inflight.clear();
    c.head = 0;
  }
}

std::vector<double>& LoadGenerator::window_of(std::vector<std::vector<double>>& windows,
                                             std::int64_t due_ns) const {
  const auto i = static_cast<std::size_t>((due_ns - step_start_ns_) / window_ns_);
  if (windows.size() <= i) windows.resize(i + 1);
  return windows[i];
}

StepStats LoadGenerator::run_step(double rate, double seconds, double window_seconds,
                                  double drain_seconds) {
  StepStats st;
  st.offered_rps = rate;
  auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = mono_ns();
  step_start_ns_ = start;
  window_ns_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(window_seconds * 1e9));
  const std::int64_t end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t give_up = end_ns + static_cast<std::int64_t>(drain_seconds * 1e9);
  std::int64_t next_sample = start;
  std::int64_t last_answer = start;
  std::uint64_t next = 0;
  st.latency_us.reserve(total);
  st.rtt_us.reserve(total);
  st.lag_us.reserve(total);
  std::vector<pollfd> pfds(conns_.size());

  for (;;) {
    std::int64_t now = mono_ns();
    while (next < total &&
           start + static_cast<std::int64_t>(static_cast<double>(next) * interval_ns) <= now) {
      const auto due = start + static_cast<std::int64_t>(static_cast<double>(next) * interval_ns);
      auto& c = conns_[next % conns_.size()];
      const std::size_t q = schedule_[cursor_++ % schedule_.size()];
      const auto frame = ms::encode_request({c.next_id, oracle_.queries()[q], 0, 0});
      c.out.insert(c.out.end(), frame.begin(), frame.end());
      c.inflight.push_back({c.next_id++, due, now, q});
      st.lag_us.push_back(static_cast<double>(now - due) / 1e3);
      window_of(st.lag_windows, due).push_back(st.lag_us.back());
      ++next;
      ++st.sent;
    }
    std::size_t in_flight = 0;
    std::int64_t oldest_due = now;
    for (auto& c : conns_) {
      if (!c.dead && !c.out.empty() && !flush(c)) c.dead = true;
      in_flight += c.inflight.size() - c.head;
      if (c.head < c.inflight.size()) oldest_due = std::min(oldest_due, c.inflight[c.head].due_ns);
    }
    if (now >= next_sample) {
      st.backlog.push_back(static_cast<double>(in_flight));
      st.backlog_max = std::max(st.backlog_max, static_cast<double>(in_flight));
      next_sample += 5'000'000;
      if (next < total && now - oldest_due > static_cast<std::int64_t>(kOverloadAgeMs * 1e6)) {
        st.overloaded = true;
        total = next;
      }
    }
    bool all_dead = true;
    for (const auto& c : conns_) all_dead = all_dead && c.dead;
    if ((next >= total && in_flight == 0) || all_dead) break;
    if (next >= total && now >= give_up) break;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].dead ? -1 : conns_[i].fd.get();
      pfds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    // Never sleeps: a virtual CPU that idles between requests takes
    // hundreds of microseconds to wake, which would show up as generator
    // lag at the low rates. The generator owns one core while it runs.
    const timespec ts{0, 0};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    now = mono_ns();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const auto before = st.answered;
        receive(conns_[i], now, st);
        if (st.answered != before) last_answer = now;
      }
    }
  }
  // Whatever is still in flight was never answered.
  for (auto& c : conns_) {
    st.failed += c.inflight.size() - c.head;
    c.inflight.clear();
    c.head = 0;
  }
  // Answers per second between the step's start and the last answer.
  const double span_s = static_cast<double>(last_answer - start) / 1e9;
  st.achieved_rps = span_s > 0 ? static_cast<double>(st.answered) / span_s : 0;

  for (const auto& [key, pushed] : pending_) {
    ++slow_checked_;
    if (!oracle_.accepts(key.first, key.second, pushed)) {
      ++slow_rejected_;
      ++st.failed;
    }
  }
  pending_.clear();
  return st;
}

}  // namespace perfbench
