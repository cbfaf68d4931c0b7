#include "avr/dbuf.hh"

#include <gtest/gtest.h>

namespace avr {
namespace {

TEST(Dbuf, StartsInvalid) {
  Dbuf d;
  EXPECT_FALSE(d.valid());
  EXPECT_FALSE(d.holds(0x1000));
}

TEST(Dbuf, HoldsLinesOfItsBlockOnly) {
  Dbuf d;
  d.refill(0x10000400);
  EXPECT_TRUE(d.valid());
  EXPECT_EQ(d.block(), 0x10000400u);
  EXPECT_TRUE(d.holds(0x10000400));
  EXPECT_TRUE(d.holds(0x100007C0));  // last line of the block
  EXPECT_FALSE(d.holds(0x10000800)); // next block
  EXPECT_FALSE(d.holds(0x100003C0)); // previous block
}

TEST(Dbuf, RequestTracking) {
  Dbuf d;
  d.refill(0x0);
  EXPECT_EQ(d.requested_count(), 0u);
  d.mark_requested(0x0);
  d.mark_requested(0x40);
  d.mark_requested(0x40);  // idempotent
  EXPECT_EQ(d.requested_count(), 2u);
}

TEST(Dbuf, PromotableExcludesLinesAlreadyInLlc) {
  Dbuf d;
  d.refill(0x0);
  d.mark_in_llc(0x0);
  d.mark_in_llc(0x3C0);  // line 15
  EXPECT_TRUE(d.line_in_llc(0x0));
  EXPECT_FALSE(d.line_in_llc(0x40));
  EXPECT_TRUE(d.line_in_llc(0x3C0));
}

TEST(Dbuf, RefillResetsState) {
  Dbuf d;
  d.refill(0x0);
  d.mark_requested(0x0);
  d.mark_in_llc(0x40);
  d.refill(0x400);
  EXPECT_EQ(d.requested_count(), 0u);
  EXPECT_FALSE(d.line_in_llc(0x440));
  EXPECT_TRUE(d.holds(0x400));
  EXPECT_FALSE(d.holds(0x0));
}

TEST(Dbuf, Invalidate) {
  Dbuf d;
  d.refill(0x1000);
  d.invalidate();
  EXPECT_FALSE(d.valid());
  EXPECT_FALSE(d.holds(0x1000));
}

}  // namespace
}  // namespace avr
