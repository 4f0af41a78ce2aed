#include "net/packet.hpp"

#include <sstream>

#include "net/checksum.hpp"

namespace malnet::net {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kTcp: return "tcp";
    case Protocol::kUdp: return "udp";
    case Protocol::kIcmp: return "icmp";
  }
  return "proto" + std::to_string(static_cast<int>(p));
}

std::uint8_t TcpFlags::to_byte() const {
  std::uint8_t b = 0;
  if (fin) b |= 0x01;
  if (syn) b |= 0x02;
  if (rst) b |= 0x04;
  if (psh) b |= 0x08;
  if (ack) b |= 0x10;
  return b;
}

TcpFlags TcpFlags::from_byte(std::uint8_t b) {
  TcpFlags f;
  f.fin = b & 0x01;
  f.syn = b & 0x02;
  f.rst = b & 0x04;
  f.psh = b & 0x08;
  f.ack = b & 0x10;
  return f;
}

std::string TcpFlags::to_string() const {
  std::string s;
  if (syn) s += 'S';
  if (ack) s += 'A';
  if (psh) s += 'P';
  if (fin) s += 'F';
  if (rst) s += 'R';
  return s.empty() ? "-" : s;
}

std::string Packet::summary() const {
  std::ostringstream os;
  os << util::to_string(time) << ' ' << net::to_string(src) << ':' << src_port << " > "
     << net::to_string(dst) << ':' << dst_port << ' ' << net::to_string(proto);
  if (proto == Protocol::kTcp) os << " [" << flags.to_string() << "]";
  if (proto == Protocol::kIcmp)
    os << " type=" << int{icmp.type} << " code=" << int{icmp.code};
  os << " len=" << payload.size();
  return os.str();
}

util::Bytes to_wire(const Packet& p) {
  // Transport segment first (checksum needs total length).
  util::ByteWriter seg;
  switch (p.proto) {
    case Protocol::kTcp: {
      seg.u16(p.src_port);
      seg.u16(p.dst_port);
      seg.u32(p.seq);
      seg.u32(p.ack_num);
      seg.u8(0x50);  // data offset 5 words, no options
      seg.u8(p.flags.to_byte());
      seg.u16(0xFFFF);  // window
      seg.u16(0);       // checksum placeholder
      seg.u16(0);       // urgent pointer
      seg.raw(p.payload);
      break;
    }
    case Protocol::kUdp: {
      seg.u16(p.src_port);
      seg.u16(p.dst_port);
      seg.u16(static_cast<std::uint16_t>(8 + p.payload.size()));
      seg.u16(0);  // checksum placeholder
      seg.raw(p.payload);
      break;
    }
    case Protocol::kIcmp: {
      seg.u8(p.icmp.type);
      seg.u8(p.icmp.code);
      seg.u16(0);  // checksum placeholder
      seg.u32(0);  // rest of header
      seg.raw(p.payload);
      break;
    }
  }
  util::Bytes segment = seg.take();
  const std::size_t csum_off = (p.proto == Protocol::kTcp)   ? 16
                               : (p.proto == Protocol::kUdp) ? 6
                                                             : 2;
  const std::uint16_t csum =
      (p.proto == Protocol::kIcmp)
          ? inet_checksum(segment)
          : transport_checksum(p.src, p.dst, static_cast<std::uint8_t>(p.proto),
                               segment);
  segment[csum_off] = static_cast<std::uint8_t>(csum >> 8);
  segment[csum_off + 1] = static_cast<std::uint8_t>(csum);

  // IPv4 header.
  util::ByteWriter ip;
  ip.u8(0x45);  // version 4, IHL 5
  ip.u8(0);     // DSCP/ECN
  ip.u16(static_cast<std::uint16_t>(20 + segment.size()));
  ip.u16(0);       // identification
  ip.u16(0x4000);  // don't fragment
  ip.u8(p.ttl);
  ip.u8(static_cast<std::uint8_t>(p.proto));
  ip.u16(0);  // header checksum placeholder
  ip.u32(p.src.value);
  ip.u32(p.dst.value);
  util::Bytes header = ip.take();
  const std::uint16_t hc = inet_checksum(header);
  header[10] = static_cast<std::uint8_t>(hc >> 8);
  header[11] = static_cast<std::uint8_t>(hc);

  header.insert(header.end(), segment.begin(), segment.end());
  return header;
}

std::optional<Packet> from_wire(util::BytesView wire) {
  try {
    util::ByteReader r(wire);
    const std::uint8_t vihl = r.u8();
    if ((vihl >> 4) != 4) return std::nullopt;
    const std::size_t ihl = static_cast<std::size_t>(vihl & 0xF) * 4;
    if (ihl < 20) return std::nullopt;
    r.skip(1);  // DSCP
    const std::uint16_t total_len = r.u16();
    if (total_len > wire.size() || total_len < ihl) return std::nullopt;
    r.skip(4);  // id + frag
    Packet p;
    p.ttl = r.u8();
    const std::uint8_t proto = r.u8();
    r.skip(2);  // header checksum (not validated on parse)
    p.src = Ipv4{r.u32()};
    p.dst = Ipv4{r.u32()};
    r.skip(ihl - 20);  // options
    const std::size_t seg_len = total_len - ihl;
    switch (proto) {
      case 6: {
        p.proto = Protocol::kTcp;
        if (seg_len < 20) return std::nullopt;
        p.src_port = r.u16();
        p.dst_port = r.u16();
        p.seq = r.u32();
        p.ack_num = r.u32();
        const std::size_t doff = static_cast<std::size_t>(r.u8() >> 4) * 4;
        if (doff < 20 || doff > seg_len) return std::nullopt;
        p.flags = TcpFlags::from_byte(r.u8());
        r.skip(4);            // window + checksum
        r.skip(2);            // urgent
        r.skip(doff - 20);    // options
        p.payload = r.raw(seg_len - doff);
        break;
      }
      case 17: {
        p.proto = Protocol::kUdp;
        if (seg_len < 8) return std::nullopt;
        p.src_port = r.u16();
        p.dst_port = r.u16();
        const std::uint16_t ulen = r.u16();
        if (ulen < 8 || ulen > seg_len) return std::nullopt;
        r.skip(2);  // checksum
        p.payload = r.raw(ulen - 8);
        break;
      }
      case 1: {
        p.proto = Protocol::kIcmp;
        if (seg_len < 8) return std::nullopt;
        p.icmp.type = r.u8();
        p.icmp.code = r.u8();
        r.skip(6);  // checksum + rest
        p.payload = r.raw(seg_len - 8);
        break;
      }
      default:
        return std::nullopt;
    }
    return p;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

}  // namespace malnet::net
