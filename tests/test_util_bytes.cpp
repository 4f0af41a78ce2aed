#include <gtest/gtest.h>

#include <limits>

#include "util/bytes.hpp"

using namespace malnet::util;

TEST(ByteWriter, WritesBigEndianIntegers) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  const Bytes expected = from_hex("AB 1234 DEADBEEF 0102030405060708");
  EXPECT_EQ(w.bytes(), expected);
}

TEST(ByteWriter, LengthPrefixedBlob) {
  ByteWriter w;
  w.lp16(std::string_view("abc"));
  EXPECT_EQ(w.bytes(), from_hex("0003 616263"));
}

TEST(ByteReader, ReadsBackWhatWriterWrote) {
  ByteWriter w;
  w.u8(7);
  w.u16(300);
  w.u32(1u << 31);
  w.u64(0xFFFFFFFFFFFFFFFFULL);
  w.lp16(std::string_view("hello"));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 300);
  EXPECT_EQ(r.u32(), 1u << 31);
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(to_string(r.lp16()), "hello");
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, ThrowsOnTruncation) {
  const Bytes b{0x01};
  ByteReader r(b);
  EXPECT_THROW((void)r.u16(), TruncatedInput);
}

TEST(ByteReader, ThrowsOnOverlongLengthPrefix) {
  const Bytes b = from_hex("00FF 61");
  ByteReader r(b);
  EXPECT_THROW((void)r.lp16(), TruncatedInput);
}

TEST(ByteReader, SkipAndPosition) {
  const Bytes b = from_hex("0102030405");
  ByteReader r(b);
  r.skip(3);
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.u8(), 4);
}

TEST(Hex, RoundTrip) {
  const Bytes b = from_hex("00 ff 7f 80");
  EXPECT_EQ(to_hex(b), "00ff7f80");
}

TEST(Hex, RejectsOddNibbles) { EXPECT_THROW(from_hex("abc"), std::invalid_argument); }

TEST(Hex, RejectsNonHex) { EXPECT_THROW(from_hex("zz"), std::invalid_argument); }

TEST(Contains, FindsSubsequences) {
  const Bytes hay = to_bytes("the quick brown fox");
  EXPECT_TRUE(contains(hay, std::string_view("quick")));
  EXPECT_TRUE(contains(hay, std::string_view("")));
  EXPECT_FALSE(contains(hay, std::string_view("slow")));
}

TEST(Contains, BinaryNeedles) {
  const Bytes hay = from_hex("00 01 02 03");
  EXPECT_TRUE(contains(hay, BytesView{from_hex("0102")}));
  EXPECT_FALSE(contains(hay, BytesView{from_hex("0201")}));
}

// Hardening regressions surfaced while building the fuzz harness.

TEST(ToString, EmptySpanWithNullData) {
  // A default BytesView has data() == nullptr; constructing a std::string
  // from (nullptr, 0) is undefined, so the empty case must be guarded.
  EXPECT_EQ(to_string(BytesView{}), "");
  EXPECT_EQ(to_string(Bytes{}), "");
  EXPECT_EQ(to_string(to_bytes("x")), "x");
}

TEST(ByteReader, NeedRejectsWraparoundSizes) {
  // `pos_ + n` in the bounds check would wrap for n near SIZE_MAX and let
  // the read through; the subtraction form must reject it.
  const Bytes b = from_hex("0102");
  ByteReader r(b);
  r.skip(1);
  EXPECT_THROW((void)r.raw(std::numeric_limits<std::size_t>::max()), TruncatedInput);
  EXPECT_THROW((void)r.raw(std::numeric_limits<std::size_t>::max() - 1), TruncatedInput);
  EXPECT_EQ(r.u8(), 2);  // reader still usable after the rejected reads
}
