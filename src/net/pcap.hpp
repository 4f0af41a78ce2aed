// pcap capture files. The sandbox records all malware traffic in the
// standard libpcap format (LINKTYPE_RAW, i.e. bare IPv4 packets) so that
// captures written by this library open in Wireshark/tcpdump, exactly like
// the paper's experimental artifacts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/bytes.hpp"

namespace malnet::net {

/// Serializes packets into an in-memory pcap byte stream.
class PcapWriter {
 public:
  PcapWriter();

  void add(const Packet& p);
  [[nodiscard]] std::size_t packet_count() const { return count_; }
  [[nodiscard]] const util::Bytes& bytes() const { return buf_.bytes(); }

  /// Writes the capture to a file; throws std::runtime_error on I/O error.
  void save(const std::string& path) const;

 private:
  util::ByteWriter buf_;
  std::size_t count_ = 0;
};

/// Parses a pcap byte stream written by PcapWriter (or any LINKTYPE_RAW
/// big-endian pcap of IPv4 packets). Throws util::TruncatedInput on
/// malformed input. No command reads captures back; this is the reference
/// reader the tests check the writer against.
[[nodiscard]] std::vector<Packet> read_pcap(util::BytesView data);
[[nodiscard]] std::vector<Packet> load_pcap(const std::string& path);

}  // namespace malnet::net
