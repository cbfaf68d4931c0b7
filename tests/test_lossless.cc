#include "lossless/bdi.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "common/prng.hh"

namespace avr::lossless {
namespace {

using Line = std::array<std::byte, kCachelineBytes>;

Line from_u32(const std::array<uint32_t, 16>& words) {
  Line l;
  std::memcpy(l.data(), words.data(), kCachelineBytes);
  return l;
}

TEST(Bdi, ZeroLine) {
  Line l{};
  const BdiResult r = encode_line(l);
  EXPECT_EQ(r.encoding, BdiEncoding::kZeros);
  EXPECT_EQ(r.bytes, 1u);
}

TEST(Bdi, RepeatedValue) {
  std::array<uint32_t, 16> w;
  w.fill(0xABCD1234);
  const BdiResult r = encode_line(from_u32(w));
  EXPECT_EQ(r.encoding, BdiEncoding::kRepeated);
  EXPECT_EQ(r.bytes, 8u);
}

TEST(Bdi, SmallIntegerArrayUsesNarrowDeltas) {
  std::array<uint32_t, 16> w;
  for (uint32_t i = 0; i < 16; ++i) w[i] = 1000 + i;  // deltas fit in 1 byte
  const BdiResult r = encode_line(from_u32(w));
  EXPECT_EQ(r.encoding, BdiEncoding::kBase4Delta1);
  EXPECT_EQ(r.bytes, 4u + 16u);
}

TEST(Bdi, MediumDeltasPick2ByteEncoding) {
  std::array<uint32_t, 16> w;
  for (uint32_t i = 0; i < 16; ++i) w[i] = 100000 + 300 * i;
  const BdiResult r = encode_line(from_u32(w));
  EXPECT_EQ(r.encoding, BdiEncoding::kBase4Delta2);
  EXPECT_EQ(r.bytes, 4u + 32u);
}

TEST(Bdi, PointerArrayUses8ByteBase) {
  std::array<uint64_t, 8> ptrs;
  for (uint32_t i = 0; i < 8; ++i) ptrs[i] = 0x7FFF00001000ull + 64 * i;
  Line l;
  std::memcpy(l.data(), ptrs.data(), kCachelineBytes);
  const BdiResult r = encode_line(l);
  EXPECT_EQ(r.encoding, BdiEncoding::kBase8Delta2);
  EXPECT_EQ(r.bytes, 8u + 16u);
}

TEST(Bdi, RandomDataStaysUncompressed) {
  Xoshiro256 rng(9);
  Line l;
  for (auto& b : l) b = static_cast<std::byte>(rng.below(256));
  const BdiResult r = encode_line(l);
  EXPECT_EQ(r.encoding, BdiEncoding::kUncompressed);
  EXPECT_EQ(r.bytes, kCachelineBytes);
}

TEST(Bdi, EncodedSizeNeverExceedsLine) {
  Xoshiro256 rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    Line l;
    const int kind = trial % 4;
    for (uint32_t i = 0; i < kCachelineBytes; ++i)
      l[i] = kind == 0   ? std::byte{0}
             : kind == 1 ? static_cast<std::byte>(i / 8)
                         : static_cast<std::byte>(rng.below(kind == 2 ? 4 : 256));
    const BdiResult r = encode_line(l);
    EXPECT_GE(r.bytes, 1u);
    EXPECT_LE(r.bytes, kCachelineBytes);
  }
}

TEST(Bdi, BufferSumsPerLine) {
  std::vector<std::byte> buf(4 * kCachelineBytes, std::byte{0});
  EXPECT_EQ(encoded_bytes(buf), 4u);  // four zero lines
  // Make one line random.
  Xoshiro256 rng(11);
  for (uint32_t i = 0; i < kCachelineBytes; ++i)
    buf[2 * kCachelineBytes + i] = static_cast<std::byte>(rng.below(256));
  EXPECT_EQ(encoded_bytes(buf), 3u + kCachelineBytes);
}

TEST(Bdi, FloatFieldsCompressModestly) {
  // Smooth float data: high exponent-byte similarity gives BDI some
  // traction but far less than AVR's 16:1 — the reason the paper treats
  // lossless as complementary rather than competing.
  std::array<uint32_t, 16> w;
  for (uint32_t i = 0; i < 16; ++i) {
    const float f = 100.0f + 0.001f * i;
    std::memcpy(&w[i], &f, 4);
  }
  const BdiResult r = encode_line(from_u32(w));
  EXPECT_LE(r.bytes, kCachelineBytes);
}

// ---- delta-class boundaries -------------------------------------------------
// Each signed delta width has a hard edge (int8: [-128,127], int16:
// [-32768,32767], int32). A delta one past the edge must demote the line to
// the next-wider class, never silently truncate.

Line from_u64(const std::array<uint64_t, 8>& words) {
  Line l;
  std::memcpy(l.data(), words.data(), kCachelineBytes);
  return l;
}

TEST(Bdi, Delta1BoundaryAt127) {
  std::array<uint64_t, 8> w;
  w.fill(0x1000000000000000ull);
  w[3] += 127;  // max int8 delta: still b8d1
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta1);
  EXPECT_EQ(encode_line(from_u64(w)).bytes, 8u + 8u);
  w[3] += 1;  // 128 breaks int8 -> b8d2
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta2);
  EXPECT_EQ(encode_line(from_u64(w)).bytes, 8u + 16u);
}

TEST(Bdi, Delta1NegativeBoundaryAtMinus128) {
  std::array<uint64_t, 8> w;
  w.fill(0x1000000000000000ull);
  w[5] -= 128;  // min int8 delta: still b8d1
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta1);
  w[5] -= 1;  // -129 breaks int8 -> b8d2
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta2);
}

TEST(Bdi, Delta2BoundaryAt32767) {
  std::array<uint64_t, 8> w;
  w.fill(0x1000000000000000ull);
  // 32767 = max int16. The paired 32-bit view sees tiny deltas too, but
  // b4d2 (36 B) costs more than b8d2 (24 B), so b8d2 must win.
  w[2] += 32767;
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta2);
  w[2] += 1;  // 32768 breaks int16 -> b8d4
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta4);
  EXPECT_EQ(encode_line(from_u64(w)).bytes, 8u + 32u);
}

TEST(Bdi, Delta4BoundaryLeavesLineUncompressed) {
  std::array<uint64_t, 8> w;
  w.fill(0x1000000000000000ull);
  w[6] += 1ull << 31;  // breaks int32; no wider delta class exists
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kUncompressed);
  EXPECT_EQ(encode_line(from_u64(w)).bytes, kCachelineBytes);
}

// 8-byte deltas are the modular difference the hardware subtractor gives:
// INT64_MAX against base INT64_MIN is delta -1, a b8d1 line. Computing it as
// a signed subtraction would overflow (UB).
TEST(Bdi, EightByteDeltaWrapsModulo2To64) {
  std::array<uint64_t, 8> w;
  w.fill(0x7FFFFFFFFFFFFFFFull);
  w[0] = 0x8000000000000000ull;  // the base
  EXPECT_EQ(encode_line(from_u64(w)).encoding, BdiEncoding::kBase8Delta1);
  EXPECT_EQ(encode_line(from_u64(w)).bytes, 8u + 8u);
}

TEST(Bdi, FourByteBaseDelta1Boundary) {
  std::array<uint32_t, 16> w;
  for (uint32_t i = 0; i < 16; ++i) w[i] = 1000 + i;
  w[9] = 1000 + 128;  // breaks int8 against base 1000 -> b4d2
  // (the 64-bit classes fail: adjacent-word pairing makes huge deltas)
  EXPECT_EQ(encode_line(from_u32(w)).encoding, BdiEncoding::kBase4Delta2);
  w[9] = 1000 + 127;  // back inside int8 -> b4d1 again
  EXPECT_EQ(encode_line(from_u32(w)).encoding, BdiEncoding::kBase4Delta1);
}

TEST(Bdi, EncodingNames) {
  EXPECT_STREQ(to_string(BdiEncoding::kZeros), "zeros");
  EXPECT_STREQ(to_string(BdiEncoding::kUncompressed), "uncompressed");
}

}  // namespace
}  // namespace avr::lossless
