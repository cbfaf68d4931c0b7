// Tests of the comparison designs: baseline LLC, Truncate, Doppelganger.
#include <gtest/gtest.h>

#include <cstring>

#include "baselines/baseline_system.hh"
#include "baselines/doppelganger_system.hh"
#include "baselines/truncate_system.hh"
#include "common/fp_bits.hh"
#include "common/prng.hh"

namespace avr {
namespace {

SimConfig tiny_cfg() {
  SimConfig cfg;
  cfg.llc = {16 * 1024, 8, 15};
  return cfg;
}

TEST(BaselineSystem, MissReadsOneLineHitReadsNone) {
  RegionRegistry regions;
  BaselineSystem sys(tiny_cfg(), regions);
  const uint64_t a = regions.allocate("a", kBlockBytes, false);
  sys.request(0, a, false);
  EXPECT_TRUE(sys.last_was_miss());
  EXPECT_EQ(sys.dram().bytes_read(), kCachelineBytes);
  sys.request(0, a, false);
  EXPECT_FALSE(sys.last_was_miss());
  EXPECT_EQ(sys.dram().bytes_read(), kCachelineBytes);
}

TEST(BaselineSystem, DirtyEvictionWritesBack) {
  RegionRegistry regions;
  BaselineSystem sys(tiny_cfg(), regions);
  const uint64_t a = regions.allocate("a", 1 << 20, false);
  sys.request(0, a, true);
  // Stream over more than the LLC capacity.
  for (uint64_t i = 1; i < 1024; ++i) sys.request(0, a + i * 64, false);
  EXPECT_GE(sys.dram().bytes_written(), kCachelineBytes);
}

TEST(BaselineSystem, WritebackMarksResidentLineDirty) {
  RegionRegistry regions;
  BaselineSystem sys(tiny_cfg(), regions);
  const uint64_t a = regions.allocate("a", kBlockBytes, false);
  sys.request(0, a, false);  // clean fill
  sys.writeback(0, a);       // now dirty
  sys.drain(0);
  EXPECT_EQ(sys.dram().bytes_written(), kCachelineBytes);
}

TEST(BaselineSystem, TrafficSplitByApproxFlag) {
  RegionRegistry regions;
  BaselineSystem sys(tiny_cfg(), regions);
  const uint64_t ap = regions.allocate("ap", kBlockBytes, true);
  const uint64_t ex = regions.allocate("ex", kBlockBytes, false);
  sys.request(0, ap, false);
  sys.request(0, ex, false);
  EXPECT_EQ(sys.stats().get("traffic_approx_bytes"), kCachelineBytes);
  EXPECT_EQ(sys.stats().get("traffic_other_bytes"), kCachelineBytes);
}

TEST(TruncateSystem, ApproxLinesMoveHalfTheBytes) {
  RegionRegistry regions;
  TruncateSystem sys(tiny_cfg(), regions);
  const uint64_t ap = regions.allocate("ap", kBlockBytes, true);
  const uint64_t ex = regions.allocate("ex", kBlockBytes, false);
  sys.request(0, ap, false);
  EXPECT_EQ(sys.dram().bytes_read(), kCachelineBytes / 2);
  sys.request(0, ex, false);
  EXPECT_EQ(sys.dram().bytes_read(), kCachelineBytes / 2 + kCachelineBytes);
}

TEST(TruncateSystem, WritebackTruncatesBackingValues) {
  RegionRegistry regions;
  TruncateSystem sys(tiny_cfg(), regions);
  const uint64_t ap = regions.allocate("ap", kBlockBytes, true);
  const float precise = 1.23456789f;
  regions.store<float>(ap, precise);
  sys.request(0, ap, true);  // dirty in LLC
  sys.drain(0);
  const float stored = regions.load<float>(ap);
  EXPECT_NE(f32_bits(stored), f32_bits(precise));
  EXPECT_EQ(f32_bits(stored) & 0xFFFF, 0u);
  EXPECT_NEAR(stored, precise, std::abs(precise) / 128.0f);
}

// The chop covers exactly the written-back line: all 16 of its values, none
// of its neighbours', even when the request names a mid-line address.
TEST(TruncateSystem, WritebackTruncatesTheWholeLineOnly) {
  RegionRegistry regions;
  TruncateSystem sys(tiny_cfg(), regions);
  const uint64_t ap = regions.allocate("ap", kBlockBytes, true);
  const auto value = [](uint64_t i) { return 1.0f + static_cast<float>(i) / 3.0f; };
  for (uint64_t i = 0; i < 3 * kValuesPerLine; ++i)
    regions.store<float>(ap + 4 * i, value(i));
  sys.request(0, ap + kCachelineBytes + 20, true);  // dirty the middle line
  sys.drain(0);
  for (uint64_t i = 0; i < 3 * kValuesPerLine; ++i) {
    const uint32_t bits = f32_bits(regions.load<float>(ap + 4 * i));
    if (i / kValuesPerLine == 1)
      EXPECT_EQ(bits & 0xFFFF, 0u) << "value " << i;
    else
      EXPECT_EQ(bits, f32_bits(value(i))) << "value " << i;
  }
}

TEST(TruncateSystem, ExactLinesUntouched) {
  RegionRegistry regions;
  TruncateSystem sys(tiny_cfg(), regions);
  const uint64_t ex = regions.allocate("ex", kBlockBytes, false);
  regions.store<float>(ex, 1.23456789f);
  sys.request(0, ex, true);
  sys.drain(0);
  EXPECT_FLOAT_EQ(regions.load<float>(ex), 1.23456789f);
}

class DgTest : public ::testing::Test {
 protected:
  DgTest() : sys_(tiny_cfg(), regions_) {
    ap_ = regions_.allocate("ap", 256 * kBlockBytes, true);
    ex_ = regions_.allocate("ex", 64 * kBlockBytes, false);
  }
  void fill_line(uint64_t line, float v) {
    for (uint32_t i = 0; i < kValuesPerLine; ++i)
      regions_.store<float>(line + i * 4, v + 0.001f * i);
  }
  RegionRegistry regions_;
  DoppelgangerSystem sys_{tiny_cfg(), regions_};
  uint64_t ap_ = 0, ex_ = 0;
};

TEST_F(DgTest, IdenticalLinesDeduplicate) {
  fill_line(ap_, 5.0f);
  fill_line(ap_ + 64, 5.0f);
  sys_.request(0, ap_, false);
  sys_.request(0, ap_ + 64, false);
  EXPECT_EQ(sys_.stats().get("dedup_hits"), 1u);
  EXPECT_GT(sys_.dedup_factor(), 1.0);
}

TEST_F(DgTest, DedupCopiesRepresentativeIntoBacking) {
  fill_line(ap_, 5.0f);
  // A slightly different line with the same average/range/shape.
  for (uint32_t i = 0; i < kValuesPerLine; ++i)
    regions_.store<float>(ap_ + 64 + i * 4, 5.0f + 0.001f * i + 1e-5f);
  const float before = regions_.load<float>(ap_ + 64);
  sys_.request(0, ap_, false);
  sys_.request(0, ap_ + 64, false);
  if (sys_.stats().get("dedup_hits") == 1) {
    // The second line's contents were replaced by the representative's.
    EXPECT_EQ(f32_bits(regions_.load<float>(ap_ + 64)),
              f32_bits(regions_.load<float>(ap_)));
  } else {
    EXPECT_FLOAT_EQ(regions_.load<float>(ap_ + 64), before);
  }
}

TEST_F(DgTest, DistinctLinesDoNotDedup) {
  fill_line(ap_, 5.0f);
  fill_line(ap_ + 64, 500.0f);
  sys_.request(0, ap_, false);
  sys_.request(0, ap_ + 64, false);
  EXPECT_EQ(sys_.stats().get("dedup_hits"), 0u);
}

TEST_F(DgTest, NonApproxNeverDedups) {
  for (uint32_t i = 0; i < kValuesPerLine; ++i) {
    regions_.store<float>(ex_ + i * 4, 7.0f);
    regions_.store<float>(ex_ + 64 + i * 4, 7.0f);
  }
  sys_.request(0, ex_, false);
  sys_.request(0, ex_ + 64, false);
  EXPECT_EQ(sys_.stats().get("dedup_hits"), 0u);
}

TEST_F(DgTest, WriteUnsharesDedupedLine) {
  fill_line(ap_, 5.0f);
  fill_line(ap_ + 64, 5.0f);
  sys_.request(0, ap_, false);
  sys_.request(0, ap_ + 64, false);
  ASSERT_EQ(sys_.stats().get("dedup_hits"), 1u);
  sys_.request(0, ap_ + 64, true);  // write: must split from the doppelganger
  EXPECT_EQ(sys_.stats().get("unshares"), 1u);
}

TEST_F(DgTest, HitsAvoidDram) {
  fill_line(ap_, 5.0f);
  sys_.request(0, ap_, false);
  const uint64_t bytes = sys_.dram().bytes_read();
  sys_.request(0, ap_, false);
  EXPECT_EQ(sys_.dram().bytes_read(), bytes);
  EXPECT_FALSE(sys_.last_was_miss());
}

TEST_F(DgTest, EffectiveCapacityExceedsDataArray) {
  // Insert 4x more identical-content lines than data entries: everything
  // dedups, so all of them remain indexable (the 4x tag array's purpose).
  const uint64_t data_entries = tiny_cfg().llc.size_bytes / kCachelineBytes;
  for (uint64_t i = 0; i < 2 * data_entries; ++i) fill_line(ap_ + i * 64, 9.0f);
  for (uint64_t i = 0; i < 2 * data_entries; ++i) sys_.request(0, ap_ + i * 64, false);
  const uint64_t before = sys_.dram().bytes_read();
  // Re-touch: should be hits (no DRAM).
  uint64_t misses = 0;
  for (uint64_t i = 0; i < 2 * data_entries; ++i) {
    sys_.request(0, ap_ + i * 64, false);
    misses += sys_.last_was_miss();
  }
  EXPECT_EQ(sys_.dram().bytes_read(), before);
  EXPECT_EQ(misses, 0u);
}

TEST_F(DgTest, DrainWritesDirtyLines) {
  fill_line(ap_, 5.0f);
  sys_.request(0, ap_, true);
  sys_.drain(0);
  EXPECT_GE(sys_.dram().bytes_written(), kCachelineBytes);
}

struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void u64(uint64_t v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
};

// A seeded churn of reads, writes and writebacks over approximate and exact
// lines with repeated contents, so every Doppelganger path fires: dedup
// hits, write unshares, data-array LRU evictions and tag-array LRU
// evictions. Everything observable — the stats snapshot, each returned
// latency, the DRAM byte/latency totals and the final backing-store bytes —
// folds into one FNV-1a digest. The digest was captured before the data
// array's victim scan was replaced by a recency list: any change in victim
// choice moves it.
TEST(DoppelgangerChurn, DigestPinned) {
  RegionRegistry regions;
  DoppelgangerSystem sys(tiny_cfg(), regions);
  constexpr uint64_t kApLines = 2048, kExLines = 512, kHotLines = 192;
  const uint64_t ap = regions.allocate("ap", kApLines * kCachelineBytes, true);
  const uint64_t ex = regions.allocate("ex", kExLines * kCachelineBytes, false);
  Xoshiro256 rng(0xD0ffe1);
  // Two in three lines hold one of 24 patterns (they dedup with each other);
  // the rest hold noise and need a data entry of their own.
  const auto fill = [&](uint64_t line) {
    const bool patterned = rng.below(3) != 0;
    const float base = static_cast<float>(rng.below(24)) * 3.0f;
    for (uint32_t i = 0; i < kValuesPerLine; ++i)
      regions.store<float>(line + i * 4,
                           patterned ? base + 0.01f * static_cast<float>(i)
                                     : static_cast<float>(rng.uniform(-50, 50)));
  };
  for (uint64_t i = 0; i < kApLines; ++i) fill(ap + i * kCachelineBytes);
  for (uint64_t i = 0; i < kExLines; ++i) fill(ex + i * kCachelineBytes);

  Fnv1a d;
  uint64_t now = 0;
  for (int op = 0; op < 60000; ++op) {
    const bool approx = rng.below(4) != 0;
    const uint64_t lines = approx ? kApLines : kExLines;
    const uint64_t idx = rng.below(2) ? rng.below(kHotLines) : rng.below(lines);
    const uint64_t line = (approx ? ap : ex) + idx * kCachelineBytes;
    const uint64_t kind = rng.below(10);
    if (kind >= 6) fill(line);  // the core stored new values before this op
    if (kind < 8)
      d.u64(sys.request(now, line, /*write=*/kind >= 6));
    else
      sys.writeback(now, line);
    now += 1 + rng.below(40);
  }
  sys.drain(now);

  const DoppelgangerCounters& c = sys.counters();
  EXPECT_GT(c.dedup_hits, 0u);
  EXPECT_GT(c.unshares, 0u);
  EXPECT_GT(c.data_evictions, 0u);
  EXPECT_GT(c.tag_evictions, 0u);

  const StatGroup stats = sys.stats();
  for (const auto& [name, value] : stats.counters()) {
    d.str(name);
    d.u64(value);
  }
  const DramCounters& m = sys.dram().counters();
  for (uint64_t v : {m.reads, m.writes, m.bytes_read, m.bytes_written,
                     m.activations, m.row_hits, m.row_conflicts,
                     m.read_latency_total, m.write_latency_total})
    d.u64(v);
  d.bytes(regions.host_ptr(ap), kApLines * kCachelineBytes);
  d.bytes(regions.host_ptr(ex), kExLines * kCachelineBytes);
  EXPECT_EQ(d.h, 0x836a14f1c7e84823ull) << std::hex << "digest 0x" << d.h << std::dec
                         << " dedup_hits=" << c.dedup_hits
                         << " unshares=" << c.unshares
                         << " data_evictions=" << c.data_evictions
                         << " tag_evictions=" << c.tag_evictions
                         << " hits=" << c.hits << "/" << c.requests;
}

}  // namespace
}  // namespace avr
