// Packet model. The simulated internet moves `Packet` values between hosts;
// serialization to real IPv4/TCP/UDP/ICMP wire bytes is provided so captures
// can be written as genuine pcap files and so the IDS and the C2-traffic
// classifier can operate on wire bytes like their real counterparts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/ipv4.hpp"
#include "util/bytes.hpp"
#include "util/simtime.hpp"

namespace malnet::net {

enum class Protocol : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
  kIcmp = 1,
};

[[nodiscard]] std::string to_string(Protocol p);

/// TCP flag bits (subset we model).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;

  [[nodiscard]] std::uint8_t to_byte() const;
  static TcpFlags from_byte(std::uint8_t b);
  [[nodiscard]] std::string to_string() const;
};

/// ICMP type/code pair; the BLACKNURSE attack of §5.1 uses type 3 code 3.
struct IcmpHeader {
  std::uint8_t type = 8;  // echo request by default
  std::uint8_t code = 0;
};

/// One simulated packet. `payload` carries the application bytes. For TCP
/// the sequence numbers are maintained by the connection state machine in
/// sim/; for UDP and ICMP they are unused.
struct Packet {
  util::SimTime time;  // send timestamp, stamped by the simulator
  Ipv4 src;
  Ipv4 dst;
  Protocol proto = Protocol::kUdp;
  Port src_port = 0;
  Port dst_port = 0;
  TcpFlags flags;             // TCP only
  std::uint32_t seq = 0;      // TCP only
  std::uint32_t ack_num = 0;  // TCP only
  IcmpHeader icmp;            // ICMP only
  std::uint8_t ttl = 64;
  util::Bytes payload;

  [[nodiscard]] Endpoint source() const { return {src, src_port}; }
  [[nodiscard]] Endpoint destination() const { return {dst, dst_port}; }
  [[nodiscard]] std::string summary() const;
};

/// Serializes a packet as IPv4 wire bytes (IPv4 header + TCP/UDP/ICMP header
/// + payload), with correct header checksums.
[[nodiscard]] util::Bytes to_wire(const Packet& p);

/// Parses wire bytes produced by to_wire (or any well-formed IPv4 packet of
/// a supported protocol). Returns nullopt on malformed/unsupported input.
[[nodiscard]] std::optional<Packet> from_wire(util::BytesView wire);

}  // namespace malnet::net
