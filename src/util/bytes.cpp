#include "util/bytes.hpp"

#include <algorithm>
#include <cctype>

namespace malnet::util {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

void ByteWriter::raw(std::string_view data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::lp16(BytesView data) {
  if (data.size() > 0xFFFF) throw std::length_error("lp16 payload too large");
  u16(static_cast<std::uint16_t>(data.size()));
  raw(data);
}

void ByteWriter::lp16(std::string_view data) {
  lp16(BytesView{reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

void ByteReader::need(std::size_t n) const {
  // Subtraction form: `pos_ + n` could wrap for adversarial n (pos_ never
  // exceeds size, so the right-hand side cannot underflow).
  if (n > data_.size() - pos_) {
    throw TruncatedInput("need " + std::to_string(n) + " bytes at offset " +
                         std::to_string(pos_) + ", have " +
                         std::to_string(data_.size() - pos_));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  auto hi = static_cast<std::uint32_t>(u16());
  auto lo = static_cast<std::uint32_t>(u16());
  return (hi << 16) | lo;
}

std::uint64_t ByteReader::u64() {
  auto hi = static_cast<std::uint64_t>(u32());
  auto lo = static_cast<std::uint64_t>(u32());
  return (hi << 32) | lo;
}

Bytes ByteReader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string ByteReader::str(std::size_t n) {
  need(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

Bytes ByteReader::lp16() { return raw(u16()); }

void ByteReader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

namespace {
int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes from_hex(std::string_view hex) {
  Bytes out;
  int hi = -1;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    const int v = nibble(c);
    if (v < 0) throw std::invalid_argument("from_hex: bad character");
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) throw std::invalid_argument("from_hex: odd nibble count");
  return out;
}

std::string to_hex(BytesView data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (auto b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(BytesView b) {
  // An empty span may carry data() == nullptr; std::string(nullptr, 0) is
  // undefined, so the empty case must short-circuit.
  if (b.empty()) return {};
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

bool contains(BytesView haystack, BytesView needle) {
  if (needle.empty()) return true;
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
         haystack.end();
}

bool contains(BytesView haystack, std::string_view needle) {
  return contains(haystack,
                  BytesView{reinterpret_cast<const std::uint8_t*>(needle.data()),
                            needle.size()});
}

}  // namespace malnet::util
