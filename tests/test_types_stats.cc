#include <gtest/gtest.h>

#include "common/stats.hh"
#include "common/types.hh"

namespace avr {
namespace {

TEST(Types, AddressHelpers) {
  EXPECT_EQ(line_addr(0x12345), 0x12340u);
  EXPECT_EQ(block_addr(0x12345), 0x12000u);
  EXPECT_EQ(page_addr(0x12345), 0x12000u);
  EXPECT_EQ(page_addr(0x13FFF), 0x13000u);
  EXPECT_EQ(line_in_block(0x12000), 0u);
  EXPECT_EQ(line_in_block(0x12040), 1u);
  EXPECT_EQ(line_in_block(0x123C0), 15u);
}

TEST(Types, Constants) {
  EXPECT_EQ(kBlockBytes, 1024u);
  EXPECT_EQ(kValuesPerBlock, 256u);
  EXPECT_EQ(kBlocksPerPage, 4u);
  EXPECT_EQ(kMaxCompressedLines, 8u);
}

TEST(Types, Names) {
  EXPECT_STREQ(to_string(Design::kAvr), "AVR");
  EXPECT_STREQ(to_string(Design::kZeroAvr), "ZeroAVR");
  EXPECT_STREQ(to_string(Design::kDoppelganger), "dganger");
  EXPECT_STREQ(to_string(Method::kDownsample2D), "ds2d");
}

TEST(StatGroup, CountersAccumulate) {
  StatGroup g;
  g.add("x");
  g.add("x", 4);
  EXPECT_EQ(g.get("x"), 5u);
  EXPECT_EQ(g.get("missing"), 0u);
}

}  // namespace
}  // namespace avr
