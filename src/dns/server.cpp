#include "dns/server.hpp"

#include "dns/message.hpp"
#include "util/str.hpp"

namespace malnet::dns {

DnsServer::DnsServer(sim::Network& net, net::Ipv4 addr, std::string name)
    : sim::Host(net, addr, std::move(name)) {
  udp_bind(53, [this](const net::Packet& p) { handle_query(p); });
}

void DnsServer::add_record(const std::string& name, net::Ipv4 address) {
  zone_[util::to_lower(name)] = address;
}

void DnsServer::handle_query(const net::Packet& p) {
  const auto query = decode(p.payload);
  if (!query || query->is_response || query->questions.empty()) return;
  ++queries_;
  const QueryFault fault = fault_hook_ ? fault_hook_() : QueryFault::kNone;
  if (fault == QueryFault::kDrop) return;  // the client sees a timeout
  // Both replies below echo the questions. A corrupted query can decode to
  // a name encode() cannot write back; it gets no reply. The check comes
  // after the fault hook, which draws from a stateful stream per query.
  for (const auto& q : query->questions) {
    if (name_error(q.name)) return;
  }
  if (fault == QueryFault::kServfail) {
    Message fail = make_response(*query, std::nullopt);
    fail.rcode = Rcode::kServFail;
    udp_send({p.src, p.src_port}, encode(fail), /*src_port=*/53);
    return;
  }
  std::optional<net::Ipv4> answer;
  const auto it = zone_.find(util::to_lower(query->questions.front().name));
  if (it != zone_.end()) {
    answer = it->second;
  } else if (wildcard_) {
    answer = *wildcard_;
  }
  const util::Bytes reply = encode(make_response(*query, answer));
  udp_send({p.src, p.src_port}, reply, /*src_port=*/53);
}

}  // namespace malnet::dns
