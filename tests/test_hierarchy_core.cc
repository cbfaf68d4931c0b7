#include <gtest/gtest.h>

#include "baselines/baseline_system.hh"
#include "cpu/hierarchy.hh"
#include "cpu/interval_core.hh"

namespace avr {
namespace {

SimConfig cfg() {
  SimConfig c;
  c.scale_caches(16);  // L1 4 kB, L2 16 kB, LLC 512 kB
  return c;
}

struct Rig {
  Rig()
      : llc(c, regions),
        hier(c, llc, 1, &llc_request_thunk<BaselineSystem>),
        core(c.core, hier, 0) {
    base = regions.allocate("buf", 1 << 22, false);
  }
  SimConfig c = cfg();
  RegionRegistry regions;
  BaselineSystem llc;
  MemoryHierarchy hier;
  IntervalCore core;
  uint64_t base;
};

TEST(Hierarchy, L1HitAfterFill) {
  Rig r;
  auto first = r.hier.access(0, 0, r.base, false);
  EXPECT_EQ(first.level, ServedBy::kMemory);
  auto second = r.hier.access(0, 100, r.base, false);
  EXPECT_EQ(second.level, ServedBy::kL1);
  EXPECT_EQ(second.latency, r.c.core.l1_latency);
}

TEST(Hierarchy, L2CatchesL1Evictions) {
  Rig r;
  // Touch enough lines to overflow L1 (4 kB = 64 lines) but not L2.
  for (int i = 0; i < 128; ++i) r.hier.access(0, 0, r.base + i * 64, false);
  // The first line is gone from L1 but present in L2.
  auto out = r.hier.access(0, 1000, r.base, false);
  EXPECT_EQ(out.level, ServedBy::kL2);
}

TEST(Hierarchy, DirtyDataReachesMemoryOnDrain) {
  Rig r;
  r.hier.access(0, 0, r.base, true);
  EXPECT_EQ(r.llc.dram().bytes_written(), 0u);
  r.hier.drain(10000);
  EXPECT_GE(r.llc.dram().bytes_written(), kCachelineBytes);
}

TEST(Hierarchy, AmatAveragesLatencies) {
  Rig r;
  r.hier.access(0, 0, r.base, false);       // memory
  r.hier.access(0, 100, r.base, false);     // L1 hit
  EXPECT_EQ(r.hier.total_accesses(), 2u);
  EXPECT_GT(r.hier.amat(), 1.0);
}

TEST(Hierarchy, MpkiCountsOnlyLlcMisses) {
  Rig r;
  r.hier.access(0, 0, r.base, false);
  r.hier.access(0, 100, r.base, false);
  EXPECT_EQ(r.hier.llc_requests(), 1u);
  EXPECT_EQ(r.hier.llc_misses(), 1u);
}

TEST(IntervalCore, DispatchWidthBoundsIpc) {
  Rig r;
  r.core.ops(4000);
  EXPECT_EQ(r.core.cycles(), 1000u);  // 4-wide
  EXPECT_DOUBLE_EQ(r.core.ipc(), 4.0);
}

TEST(IntervalCore, L1HitsDoNotStall) {
  Rig r;
  r.core.load(r.base);  // cold miss: stalls
  const uint64_t after_miss = r.core.cycles();
  for (int i = 0; i < 100; ++i) r.core.load(r.base);
  // 100 L1 hits at 4-wide = 25 cycles, no stall beyond that.
  EXPECT_EQ(r.core.cycles(), after_miss + 25);
}

TEST(IntervalCore, MissStallsExceedHideWindow) {
  Rig r;
  const uint64_t rob_hide = r.c.core.rob_size / r.c.core.dispatch_width;
  r.core.load(r.base);
  EXPECT_GT(r.core.cycles(), 0u);
  // A single DRAM miss costs latency - hide, which must be positive.
  EXPECT_GT(r.core.cycles(), 1u);
  (void)rob_hide;
}

TEST(IntervalCore, BurstMissesOverlap) {
  // Two far-apart workloads: serial misses (separated by > ROB instructions
  // of ops) vs burst misses. The burst must cost less total time.
  Rig serial, burst;
  const int kMisses = 16;
  for (int i = 0; i < kMisses; ++i) {
    serial.core.load(serial.base + i * kBlockBytes * 8);
    serial.core.ops(1000);  // breaks the ROB window
  }
  for (int i = 0; i < kMisses; ++i)
    burst.core.load(burst.base + i * kBlockBytes * 8);
  burst.core.ops(1000 * kMisses);
  EXPECT_LT(burst.core.cycles(), serial.core.cycles());
}

TEST(IntervalCore, InstructionsCounted) {
  Rig r;
  r.core.ops(10);
  r.core.load(r.base);
  r.core.store(r.base);
  EXPECT_EQ(r.core.instructions(), 12u);
}

}  // namespace
}  // namespace avr
