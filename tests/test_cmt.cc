#include "avr/cmt.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

namespace avr {
namespace {

TEST(BlockMeta, DefaultIsUncompressed) {
  BlockMeta m;
  EXPECT_FALSE(m.compressed());
  EXPECT_EQ(m.lazy_space(), 0u);
}

TEST(BlockMeta, LazySpace) {
  BlockMeta m;
  m.method = Method::kDownsample2D;
  m.size_lines = 3;
  EXPECT_EQ(m.lazy_space(), 13u);
  m.lazy_count = 5;
  EXPECT_EQ(m.lazy_space(), 8u);
  m.lazy_count = 13;
  EXPECT_EQ(m.lazy_space(), 0u);
}

TEST(BlockMeta, PackFitsIn23Bits) {
  BlockMeta m;
  m.method = Method::kDownsample1D;
  m.size_lines = 8;
  m.lazy_count = 15;
  m.bias = -128;
  m.failed = 15;
  m.skipped = 3;
  EXPECT_EQ(m.pack() >> 23, 0u);
}

using MetaTuple = std::tuple<Method, uint8_t, uint8_t, int, uint8_t, uint8_t>;

class MetaRoundTrip : public ::testing::TestWithParam<MetaTuple> {};

TEST_P(MetaRoundTrip, PackUnpackIdentity) {
  const auto [method, size, lazy, bias, failed, skipped] = GetParam();
  BlockMeta m;
  m.method = method;
  m.size_lines = method == Method::kUncompressed ? 0 : size;
  m.lazy_count = lazy;
  m.bias = static_cast<int8_t>(bias);
  m.failed = failed;
  m.skipped = skipped;
  EXPECT_EQ(BlockMeta::unpack(m.pack()), m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetaRoundTrip,
    ::testing::Combine(
        ::testing::Values(Method::kUncompressed, Method::kDownsample1D,
                          Method::kDownsample2D),
        ::testing::Values<uint8_t>(1, 4, 8),
        ::testing::Values<uint8_t>(0, 7, 15),
        ::testing::Values(-128, -1, 0, 42, 127),
        ::testing::Values<uint8_t>(0, 9, 15),
        ::testing::Values<uint8_t>(0, 3)));

TEST(Cmt, LookupCreatesDefaultEntry) {
  Cmt cmt(16);
  BlockMeta& m = cmt.lookup(0x10000000);
  EXPECT_FALSE(m.compressed());
  m.method = Method::kDownsample2D;
  m.size_lines = 2;
  EXPECT_TRUE(cmt.lookup(0x10000000).compressed());
}

TEST(Cmt, EntriesArePerBlock) {
  Cmt cmt(16);
  cmt.lookup(0x10000000).size_lines = 1;
  cmt.lookup(0x10000400).size_lines = 2;  // next 1 KB block, same page
  EXPECT_EQ(cmt.lookup(0x10000000).size_lines, 1);
  EXPECT_EQ(cmt.lookup(0x10000400).size_lines, 2);
  // Same block, different line offset -> same entry.
  EXPECT_EQ(cmt.lookup(0x100003C0).size_lines, 1);
}

TEST(Cmt, MissesCostMetadataTraffic) {
  Cmt cmt(16);
  EXPECT_EQ(cmt.metadata_traffic_bytes(), 0u);
  cmt.lookup(0x10000000);
  const uint64_t after_first = cmt.metadata_traffic_bytes();
  EXPECT_GT(after_first, 0u);
  // Same page again: cached, no extra traffic.
  cmt.lookup(0x10000040);
  EXPECT_EQ(cmt.metadata_traffic_bytes(), after_first);
  // Far-away page: miss again.
  cmt.lookup(0x90000000);
  EXPECT_GT(cmt.metadata_traffic_bytes(), after_first);
}

TEST(Cmt, CapacityEvictionsCauseRepeatMisses) {
  Cmt cmt(4);  // 4 cached pages, 4-way => a single set in practice
  for (uint64_t p = 0; p < 8; ++p) cmt.lookup(0x10000000 + p * kPageBytes);
  const uint64_t t1 = cmt.metadata_traffic_bytes();
  cmt.lookup(0x10000000);  // long evicted
  EXPECT_GT(cmt.metadata_traffic_bytes(), t1);
}

TEST(BlockMeta, NoteFailureSaturatesAtTheFieldWidth) {
  BlockMeta m;
  for (uint32_t i = 1; i <= kMaxFailedCount + 3; ++i) {
    m.note_failure();
    EXPECT_EQ(m.failed, std::min(i, kMaxFailedCount));
    EXPECT_EQ(BlockMeta::unpack(m.pack()), m);
  }
}

}  // namespace
}  // namespace avr
