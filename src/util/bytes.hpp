// Byte-buffer utilities: growable buffers with big-endian readers/writers.
//
// All wire formats in this project (IPv4/TCP/UDP headers, DNS, the Mirai C2
// binary protocol, the MBF malware container) are serialized through these
// helpers so endianness handling lives in exactly one place.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace malnet::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown when a reader runs past the end of its buffer or an encoded
/// length field is inconsistent with the data actually present.
class TruncatedInput : public std::runtime_error {
 public:
  explicit TruncatedInput(const std::string& what) : std::runtime_error(what) {}
};

/// Appends integers and blobs to a growable byte vector in network byte
/// order (big-endian). Non-owning view of nothing; owns its buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(BytesView data);
  void raw(std::string_view data);
  /// Writes a u16 length prefix followed by the bytes.
  void lp16(BytesView data);
  void lp16(std::string_view data);

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequential big-endian reader over a non-owned byte span. Throws
/// TruncatedInput instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] Bytes raw(std::size_t n);
  [[nodiscard]] std::string str(std::size_t n);
  /// Reads a u16 length prefix then that many bytes.
  [[nodiscard]] Bytes lp16();

  void skip(std::size_t n);
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Hex string ("dead beef" tolerant of spaces) -> bytes. Throws on odd
/// nibble counts or non-hex characters.
[[nodiscard]] Bytes from_hex(std::string_view hex);
[[nodiscard]] std::string to_hex(BytesView data);

[[nodiscard]] Bytes to_bytes(std::string_view s);
[[nodiscard]] std::string to_string(BytesView b);

/// True if `haystack` contains `needle` as a contiguous byte subsequence.
[[nodiscard]] bool contains(BytesView haystack, BytesView needle);
[[nodiscard]] bool contains(BytesView haystack, std::string_view needle);

}  // namespace malnet::util
