#include <gtest/gtest.h>

#include <utility>
#include <vector>

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
  explicit Rig(const SimConfig& cc = cfg())
      : c(cc),
        llc(c, regions),
        hier(c, llc, 1, &llc_request_thunk<BaselineSystem>),
        core(c.core, hier, 0) {
    base = regions.allocate("buf", 1 << 22, false);
  }
  SimConfig c;
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

// Rig geometry: the 4-way L1 has 16 sets and the 8-way L2 32 sets, so lines
// 1 KB apart share an L1 set and lines 2 KB apart also share an L2 set.
constexpr uint64_t kL1SetStride = 1024;
constexpr uint64_t kL2SetStride = 2048;

bool dirty_in(const SetAssocCache& c, uint64_t line) {
  for (const auto& [addr, dirty] : c.valid_lines())
    if (addr == line) return dirty;
  return false;
}

TEST(Hierarchy, DirtyVictimStillInItsL2SlotIsRefreshedInPlace) {
  Rig r;
  const uint64_t x = r.base;
  r.core.store(x);
  // Four lines of x's L1 set in another L2 set push x out of the L1.
  for (uint64_t j = 0; j < 4; ++j) r.core.load(x + kL1SetStride + j * kL2SetStride);
  ASSERT_FALSE(r.hier.l1(0).probe(x));
  const CacheCounters& l2 = r.hier.l2(0).counters();
  EXPECT_TRUE(dirty_in(r.hier.l2(0), x));
  EXPECT_EQ(l2.fills, l2.misses);  // the write-back allocated nothing
}

TEST(Hierarchy, DirtyVictimWhoseL2SlotWasRefilledIsAllocatedDirty) {
  // Orbit's case: the L2 drops a line the L1 still holds dirty, so the L2
  // slot the line was filled into now holds another line.
  Rig r;
  const uint64_t x = r.base;
  r.core.store(x);
  // Eight more lines of x's L2 set (and L1 set) evict x from the L2; x stays
  // in the L1 because each of them is followed by an L1 hit on x.
  for (uint64_t i = 1; i <= 8; ++i) {
    r.core.load(x + i * kL2SetStride);
    r.core.load(x);
  }
  ASSERT_TRUE(r.hier.l1(0).probe(x));
  ASSERT_FALSE(r.hier.l2(0).probe(x));
  const uint64_t l2_fills = r.hier.l2(0).counters().fills;
  for (uint64_t j = 0; j < 4; ++j) r.core.load(x + kL1SetStride + j * kL2SetStride);
  ASSERT_FALSE(r.hier.l1(0).probe(x));
  // Four demand fills plus the write-back's own allocation.
  EXPECT_EQ(r.hier.l2(0).counters().fills, l2_fills + 5);
  EXPECT_TRUE(dirty_in(r.hier.l2(0), x));
}

TEST(Hierarchy, RoundRobinOverOneL1SetEvictsTheTrueLruLine) {
  // Heat's pattern: four lines of one L1 set in turn, so every access moves
  // the set's MRU line and the MRU filter never catches one. The core
  // serves the hits from its own L1 scan; the hierarchy's access() is the
  // full path it must match.
  Rig core_rig, full_rig;
  std::vector<std::pair<uint64_t, bool>> stream;
  for (int round = 0; round < 10; ++round)
    for (uint64_t k = 0; k < 4; ++k) stream.emplace_back(k * kL1SetStride, k == 3);
  stream.emplace_back(4 * kL1SetStride, false);
  for (const auto& [off, write] : stream) {
    core_rig.core.access(core_rig.base + off, write, 0);
    full_rig.hier.access(0, 0, full_rig.base + off, write);
  }
  const SetAssocCache& l1 = core_rig.hier.l1(0);
  const uint64_t base = core_rig.base;
  EXPECT_FALSE(l1.probe(base));  // the LRU line
  for (uint64_t k = 1; k <= 4; ++k) EXPECT_TRUE(l1.probe(base + k * kL1SetStride));
  const CacheCounters& a = l1.counters();
  const CacheCounters& b = full_rig.hier.l1(0).counters();
  EXPECT_EQ(a.hits, 36u);
  EXPECT_EQ(a.misses, 5u);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
  EXPECT_EQ(core_rig.hier.total_accesses(), full_rig.hier.total_accesses());
  EXPECT_DOUBLE_EQ(core_rig.hier.amat(), full_rig.hier.amat());
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

TEST(IntervalCore, L1HitsStallWhenSlowerThanTheRobHides) {
  // With l1_latency > rob_size / dispatch_width an L1 hit exposes the
  // difference: the core must charge it even though it serves the hit.
  constexpr uint64_t kExposed = 10, kHits = 10;
  SimConfig c = cfg();
  const uint64_t hide = c.core.rob_size / c.core.dispatch_width;
  c.core.l1_latency = static_cast<uint32_t>(hide + kExposed);
  Rig r(c);
  r.core.load(r.base);  // cold miss
  const uint64_t cycles = r.core.cycles(), instrs = r.core.instructions();
  for (uint64_t i = 0; i < kHits; ++i) {
    r.core.ops(c.core.rob_size);  // each hit opens a new ROB window
    r.core.load(r.base);
  }
  const uint64_t width = c.core.dispatch_width;
  const uint64_t dispatch = r.core.instructions() / width - instrs / width;
  EXPECT_EQ(r.core.cycles() - cycles, dispatch + kHits * kExposed);
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
