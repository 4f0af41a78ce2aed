#include "proto/p2p.hpp"

#include <stdexcept>

namespace malnet::proto::p2p {

namespace {
constexpr std::string_view kPingPrefix = "d1:ad2:id20:";
}

util::Bytes encode_ping(const DhtPing& ping) {
  if (ping.node_id.size() != 20) throw std::invalid_argument("p2p: node id != 20 bytes");
  if (ping.txn.size() != 2) throw std::invalid_argument("p2p: txn != 2 bytes");
  std::string s;
  s += kPingPrefix;
  s += ping.node_id;
  s += "e1:q4:ping1:t2:";
  s += ping.txn;
  s += "1:y1:qe";
  return util::to_bytes(s);
}

std::optional<DhtPing> decode_ping(util::BytesView wire) {
  const std::string s = util::to_string(wire);
  if (s.rfind(kPingPrefix, 0) != 0) return std::nullopt;
  if (s.find("1:q4:ping") == std::string::npos) return std::nullopt;
  if (s.size() < kPingPrefix.size() + 20) return std::nullopt;
  DhtPing ping;
  ping.node_id = s.substr(kPingPrefix.size(), 20);
  const auto t = s.find("1:t2:");
  if (t == std::string::npos || t + 7 > s.size()) return std::nullopt;
  ping.txn = s.substr(t + 5, 2);
  return ping;
}

util::Bytes encode_pong(const DhtPing& pong) {
  if (pong.node_id.size() != 20) throw std::invalid_argument("p2p: node id != 20 bytes");
  if (pong.txn.size() != 2) throw std::invalid_argument("p2p: txn != 2 bytes");
  std::string s;
  s += "d1:rd2:id20:";
  s += pong.node_id;
  s += "e1:t2:";
  s += pong.txn;
  s += "1:y1:re";
  return util::to_bytes(s);
}

bool looks_like_dht(util::BytesView wire) {
  const std::string s = util::to_string(wire.subspan(0, std::min<std::size_t>(16, wire.size())));
  return s.rfind("d1:ad2:id20:", 0) == 0 || s.rfind("d1:rd2:id20:", 0) == 0;
}

}  // namespace malnet::proto::p2p
