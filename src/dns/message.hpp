// DNS wire format (RFC 1035 subset): header, QD question, A/NXDOMAIN
// answers. Enough for malware C2 resolution, InetSim's wildcard DNS, and
// the DNS-flood DDoS traffic the paper observes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"
#include "util/bytes.hpp"

namespace malnet::dns {

enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
};

struct Question {
  std::string name;          // "cnc.example.com" (no trailing dot)
  std::uint16_t qtype = 1;   // A
  std::uint16_t qclass = 1;  // IN
};

struct Answer {
  std::string name;
  net::Ipv4 address;
  std::uint32_t ttl = 60;
};

struct Message {
  std::uint16_t id = 0;
  bool is_response = false;
  bool recursion_desired = true;
  Rcode rcode = Rcode::kNoError;
  std::vector<Question> questions;
  std::vector<Answer> answers;
};

/// The name rule encode() enforces: nullopt if `name` can be written (1-253
/// characters of '.'-separated labels, each 1-63 characters), else the
/// reason encode() throws. decode() accepts names that fail it — a label
/// byte may be '.' — so a server must check a decoded name before echoing it.
[[nodiscard]] std::optional<std::string> name_error(std::string_view name);

/// Validates and encodes to wire bytes. Throws std::invalid_argument on a
/// name that name_error() rejects.
[[nodiscard]] util::Bytes encode(const Message& m);

/// Parses wire bytes. Returns nullopt on malformed input. Name compression
/// pointers are not emitted by encode() and are rejected on parse.
[[nodiscard]] std::optional<Message> decode(util::BytesView wire);

/// Builds a standard A query.
[[nodiscard]] Message make_query(std::uint16_t id, const std::string& name);

/// Builds a response to `query` answering with `address` (or NXDOMAIN).
[[nodiscard]] Message make_response(const Message& query,
                                    std::optional<net::Ipv4> address);

}  // namespace malnet::dns
