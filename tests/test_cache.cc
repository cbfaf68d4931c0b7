#include "cache/set_assoc_cache.hh"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hh"

namespace avr {
namespace {

/// Allocates absent `addr` through the slot of a counted miss lookup.
Eviction fill(SetAssocCache& c, uint64_t addr, bool dirty) {
  const SetAssocCache::Slot s = c.lookup(addr, false);
  EXPECT_FALSE(s.hit);
  return c.fill(s, addr, dirty);
}

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache c(4096, 4);
  const SetAssocCache::Slot s = c.lookup(0x1000, false);
  EXPECT_FALSE(s.hit);
  c.fill(s, 0x1000, false);
  EXPECT_TRUE(c.lookup(0x1000, false).hit);
  EXPECT_EQ(c.counters().hits, 1u);
  EXPECT_EQ(c.counters().misses, 1u);
}

// validate_config judges configured sizes and ways (test_config_table's
// GeometryRulesNameTheCacheAndItsNumbers). The line size is no knob: the
// constructor asserts it, as every caller passes a constant.
TEST(SetAssocCacheDeathTest, AssertsAPowerOfTwoLineSize) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts are compiled out";
#else
  // 768/4/96 = 2 sets, but the line size is not a power of two.
  EXPECT_DEATH(SetAssocCache(768, 4, 96), "bad cache geometry");
  EXPECT_DEATH(SetAssocCache(4096, 4, 0), "bad cache geometry");
#endif
}

TEST(SetAssocCache, LruEviction) {
  // 1 set x 2 ways of 64 B lines.
  SetAssocCache c(128, 2);
  fill(c, 0x0, false);
  fill(c, 0x40 * 16, false);  // any addr maps to set 0 with 1 set... sets=1
  // Touch the first line so the second becomes LRU.
  c.lookup(0x0, false);
  const Eviction ev = fill(c, 0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x40u * 16);
}

TEST(SetAssocCache, DirtyBitOnWriteAndWritebackReporting) {
  SetAssocCache c(128, 2);
  fill(c, 0x0, false);
  c.lookup(0x0, /*write=*/true);
  fill(c, 0x40 * 16, false);
  c.lookup(0x40 * 16, false);  // make line 0 LRU
  const Eviction ev = fill(c, 0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x0u);
  EXPECT_TRUE(ev.dirty);
}

TEST(SetAssocCache, FillWithDirtyFlag) {
  SetAssocCache c(128, 2);
  fill(c, 0x0, /*dirty=*/true);
  const auto lines = c.valid_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, 0x0u);
  EXPECT_TRUE(lines[0].second);
}

TEST(SetAssocCache, MarkDirty) {
  SetAssocCache c(128, 2);
  EXPECT_FALSE(c.mark_dirty(0x0));
  fill(c, 0x0, false);
  fill(c, 0x40 * 16, false);
  EXPECT_TRUE(c.mark_dirty(0x0));  // dirties 0x0 and makes it MRU
  Eviction ev = fill(c, 0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x40u * 16);
  EXPECT_FALSE(ev.dirty);
  ev = fill(c, 0x40 * 48, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x0u);
  EXPECT_TRUE(ev.dirty);
}

TEST(SetAssocCache, LookupSlotNamesTheVictimWay) {
  // 1 set x 4 ways: a miss slot is the first invalid way, then the LRU way.
  // The first three lines arrive as writebacks, which are not lookups, so
  // the counters below count this test's lookups alone.
  SetAssocCache c(256, 4);
  for (uint64_t i = 0; i < 3; ++i) c.write_back(0x40 * 8 * i);
  SetAssocCache::Slot s = c.lookup(0x40 * 24, /*write=*/true);
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.idx, 3u);
  EXPECT_FALSE(c.fill(s, 0x40 * 24, /*dirty=*/true).valid);
  EXPECT_TRUE(c.lookup(0x0, false).hit);  // way 1 (0x200) is now LRU
  s = c.lookup(0x40 * 32, false);
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.idx, 1u);
  const Eviction ev = c.fill(s, 0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x40u * 8);
  EXPECT_EQ(c.counters().accesses, 3u);
  EXPECT_EQ(c.counters().misses, 2u);
  EXPECT_EQ(c.counters().fills, 5u);
}

TEST(SetAssocCache, WriteBackDirtiesOrAllocatesDirty) {
  // 1 set x 2 ways. The clean fills go through hand-made miss slots (way 1
  // is the set's one invalid way, then way 0 holds its LRU line), not
  // counted lookups, so the access count below is the writebacks' alone.
  SetAssocCache c(128, 2);
  EXPECT_FALSE(c.write_back(0x0).valid);  // absent: allocated dirty
  c.fill({1, false}, 0x40 * 16, false);
  EXPECT_FALSE(c.write_back(0x40 * 16).valid);  // present: dirtied, made MRU
  Eviction ev = c.fill({0, false}, 0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x0u);
  EXPECT_TRUE(ev.dirty);
  ev = c.write_back(0x40 * 48);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x40u * 16);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(c.counters().accesses, 0u);  // writebacks are not lookups
  EXPECT_EQ(c.counters().fills, 4u);
  EXPECT_EQ(c.counters().dirty_evictions, 2u);
}

TEST(SetAssocCache, ValidLinesEnumeratesAddressesCorrectly) {
  SetAssocCache c(64 * 1024, 16);
  const uint64_t addrs[] = {0x10000, 0x2F040, 0xABCDE000};
  for (uint64_t a : addrs) fill(c, a, true);
  auto lines = c.valid_lines();
  EXPECT_EQ(lines.size(), 3u);
  for (uint64_t a : addrs) {
    bool found = false;
    for (auto& [addr, dirty] : lines)
      if (addr == line_addr(a)) {
        found = true;
        EXPECT_TRUE(dirty);
      }
    EXPECT_TRUE(found) << std::hex << a;
  }
}

TEST(SetAssocCache, ProbeHasNoSideEffects) {
  SetAssocCache c(128, 2);
  fill(c, 0x0, false);
  fill(c, 0x40 * 16, false);
  c.probe(0x0);  // must NOT refresh LRU
  const Eviction ev = fill(c, 0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x0u);  // 0x0 was still LRU despite the probe
}

TEST(SetAssocCache, DistinctSetsDoNotInterfere) {
  SetAssocCache c(8192, 2);  // 64 sets
  fill(c, 0x0, false);
  fill(c, 0x40, false);  // next line, different set
  EXPECT_TRUE(c.lookup(0x0, false).hit);
  EXPECT_TRUE(c.lookup(0x40, false).hit);
}

struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
  }
};

// A seeded mix of reads, writes (lookup, then fill on a miss) and
// writebacks (write_back: dirty if present, else a dirty fill) over a footprint of
// about three times the capacity, with a hot subset, on the tiny geometries
// the scaled L1/L2 use and on an LLC-like one. Every hit bit, every
// eviction, the final counters and the final contents fold into one FNV-1a
// digest, captured before the victim search was rewritten: any change in
// which way a miss evicts moves it.
TEST(SetAssocCacheChurn, DigestPinned) {
  struct Geometry {
    uint32_t sets, ways;
  };
  constexpr Geometry kGeometries[] = {{1, 2}, {2, 4}, {4, 8}, {64, 16}};
  Fnv1a d;
  for (const Geometry g : kGeometries) {
    SetAssocCache c(uint64_t{g.sets} * g.ways * kCachelineBytes, g.ways);
    Xoshiro256 rng(0xCAC4E + g.sets * 131 + g.ways);
    const uint64_t lines = uint64_t{g.sets} * g.ways * 3;
    const uint64_t hot = std::max<uint64_t>(1, lines / 8);
    const auto fold = [&](const Eviction& ev) {
      d.u64(ev.valid);
      d.u64(ev.addr);
      d.u64(ev.dirty);
    };
    for (int op = 0; op < 20000; ++op) {
      const uint64_t idx = rng.below(2) ? rng.below(hot) : rng.below(lines);
      const uint64_t addr =
          0x4000'0000 + idx * kCachelineBytes + rng.below(kCachelineBytes);
      const uint64_t kind = rng.below(10);
      if (kind < 7) {
        const bool write = kind >= 5;
        const SetAssocCache::Slot s = c.lookup(addr, write);
        d.u64(s.hit);
        if (!s.hit) fold(c.fill(s, addr, write));
      } else {
        // A writeback: dirty the line if present, else allocate it dirty.
        const bool present = c.probe(addr);
        d.u64(present);
        const Eviction ev = c.write_back(addr);
        if (!present) fold(ev);
      }
    }
    const CacheCounters& k = c.counters();
    EXPECT_GT(k.hits, 0u);
    EXPECT_GT(k.dirty_evictions, 0u);
    EXPECT_LT(k.dirty_evictions, k.evictions);
    for (uint64_t v : {k.accesses, k.hits, k.misses}) d.u64(v);
    for (uint64_t v : {k.fills, k.evictions, k.dirty_evictions}) d.u64(v);
    for (const auto& [addr, dirty] : c.valid_lines()) {
      d.u64(addr);
      d.u64(dirty);
    }
  }
  EXPECT_EQ(d.h, 0x36c9a9f723d80630ull) << std::hex << "digest 0x" << d.h;
}

class CacheProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheProperty, OccupancyNeverExceedsCapacity) {
  SetAssocCache c(16 * 1024, 8);  // 256 lines
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const uint64_t addr = rng.below(1 << 20) * kCachelineBytes;
    const SetAssocCache::Slot s = c.lookup(addr, rng.below(2));
    if (!s.hit) c.fill(s, addr, false);
  }
  EXPECT_LE(c.valid_lines().size(), 256u);
  EXPECT_EQ(c.counters().accesses, 5000u);
  EXPECT_EQ(c.counters().hits + c.counters().misses, 5000u);
}

TEST_P(CacheProperty, SmallWorkingSetAlwaysHitsAfterWarmup) {
  SetAssocCache c(16 * 1024, 8);
  Xoshiro256 rng(GetParam() * 7);
  // 64 lines working set in a 256-line cache.
  std::vector<uint64_t> ws;
  for (int i = 0; i < 64; ++i) ws.push_back(rng.below(1 << 16) * kCachelineBytes);
  for (uint64_t a : ws) {
    const SetAssocCache::Slot s = c.lookup(a, false);
    if (!s.hit) c.fill(s, a, false);
  }
  for (int round = 0; round < 3; ++round)
    for (uint64_t a : ws) EXPECT_TRUE(c.lookup(a, false).hit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace avr
