// End-to-end tests of the AVR request flow (Fig. 7) and eviction flow
// (Fig. 8) against a small LLC, exercising the functional value layer.
#include "avr/avr_system.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/fp_bits.hh"
#include "common/prng.hh"
#include "common/profile.hh"

namespace avr {
namespace {

SimConfig tiny_cfg() {
  SimConfig cfg;
  cfg.llc = {16 * 1024, 8, 15};  // 32 sets
  return cfg;
}

/// Fills a block with a smooth field (compresses to 1 line).
void fill_smooth(RegionRegistry& r, uint64_t block, float base) {
  auto vals = r.block_values(block);
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    vals[i] = base + 0.05f * static_cast<float>(i % 16) +
              0.03f * static_cast<float>(i / 16);
}

/// Fills a block with full-range noise (never compresses).
void fill_noise(RegionRegistry& r, uint64_t block, uint64_t seed) {
  Xoshiro256 rng(seed);
  auto vals = r.block_values(block);
  for (auto& v : vals) v = static_cast<float>(rng.uniform(-1e6, 1e6));
}

class AvrSystemTest : public ::testing::Test {
 protected:
  AvrSystemTest() : sys_(tiny_cfg(), regions_) {
    approx_base_ = regions_.allocate("approx", 64 * kBlockBytes, true);
    exact_base_ = regions_.allocate("exact", 64 * kBlockBytes, false);
  }
  uint64_t stat(const char* k) const { return sys_.stats().get(k); }

  RegionRegistry regions_;
  AvrSystem sys_{tiny_cfg(), regions_};
  uint64_t approx_base_ = 0, exact_base_ = 0;
};

TEST_F(AvrSystemTest, ColdMissOnUncompressedBlockReadsOneLine) {
  fill_smooth(regions_, approx_base_, 100.0f);
  sys_.request(0, approx_base_, false);
  EXPECT_EQ(stat("req_miss"), 1u);
  EXPECT_EQ(sys_.dram().bytes_read(), kCachelineBytes);
}

TEST_F(AvrSystemTest, NonApproxFollowsBaselinePath) {
  sys_.request(0, exact_base_, false);
  EXPECT_EQ(stat("req_miss_other"), 1u);
  EXPECT_EQ(stat("req_miss"), 0u);
  EXPECT_EQ(stat("approx_requests"), 0u);
}

TEST_F(AvrSystemTest, DirtyEvictionCompressesBlockAndAppliesReconstruction) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  const float original = regions_.load<float>(block + 4);
  // Touch every line dirty, then force eviction by streaming far data.
  for (uint32_t i = 0; i < kBlockLines; ++i)
    sys_.request(0, block + i * kCachelineBytes, true);
  // Stream enough distinct lines to evict the whole tiny LLC.
  for (uint64_t i = 0; i < 1024; ++i)
    sys_.request(0, exact_base_ + (i * 64) % (48 * kBlockBytes), true);
  EXPECT_GT(stat("compress_successes"), 0u);
  // The CMT must know the block is compressed now.
  const BlockMeta* m = sys_.cmt().peek(block);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->compressed());
  EXPECT_EQ(m->size_lines, 1u);
  // Functional effect: value replaced by its reconstruction (close, not
  // necessarily identical).
  const float now = regions_.load<float>(block + 4);
  EXPECT_NEAR(now, original, std::abs(original) * 0.13f);
}

TEST_F(AvrSystemTest, CompressedBlockFetchReadsSizeLines) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  // Manually mark the block compressed in memory.
  auto out = [&] {
    BlockMeta& m = sys_.cmt().lookup(block);
    m.method = Method::kDownsample2D;
    m.size_lines = 1;
    return 0;
  }();
  (void)out;
  const uint64_t before = sys_.dram().bytes_read();
  sys_.request(0, block + 0x80, false);
  EXPECT_EQ(sys_.dram().bytes_read() - before, kCachelineBytes);  // 1 CMS line
  EXPECT_EQ(stat("block_fetches"), 1u);
  // Following requests to other lines of the block hit the DBUF.
  sys_.request(0, block + 0xC0, false);
  EXPECT_EQ(stat("req_hit_dbuf"), 1u);
  EXPECT_FALSE(sys_.last_was_miss());
}

TEST_F(AvrSystemTest, CmsHitAvoidsDram) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  BlockMeta& m = sys_.cmt().lookup(block);
  m.method = Method::kDownsample2D;
  m.size_lines = 1;
  sys_.request(0, block, false);  // fetch: CMS now in LLC, DBUF filled
  // Displace the DBUF with a different block fetch.
  const uint64_t other = approx_base_ + kBlockBytes;
  fill_smooth(regions_, other, 80.0f);
  BlockMeta& m2 = sys_.cmt().lookup(other);
  m2.method = Method::kDownsample2D;
  m2.size_lines = 1;
  sys_.request(0, other, false);
  const uint64_t before = sys_.dram().bytes_read();
  // A different line of the first block: UCL miss, DBUF miss, CMS hit.
  sys_.request(0, block + 0x140, false);
  EXPECT_EQ(stat("req_hit_compressed"), 1u);
  EXPECT_EQ(sys_.dram().bytes_read(), before);
  EXPECT_FALSE(sys_.last_was_miss());
}

TEST_F(AvrSystemTest, LazyWritebackUsesOneLineAndCountsMeta) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  BlockMeta& m = sys_.cmt().lookup(block);
  m.method = Method::kDownsample2D;
  m.size_lines = 1;  // 15 lines of lazy space
  const uint64_t before_w = sys_.dram().bytes_written();
  // Dirty writeback of a line whose block is compressed in memory but has
  // no CMS image in the LLC: must take the lazy path.
  sys_.writeback(0, block + 0x40);
  // Evict it by streaming.
  for (uint64_t i = 0; i < 2048; ++i)
    sys_.request(0, exact_base_ + (i * 64) % (48 * kBlockBytes), false);
  EXPECT_GE(stat("evict_lazy_wb"), 1u);
  EXPECT_GE(sys_.dram().bytes_written() - before_w, kCachelineBytes);
  const BlockMeta* pm = sys_.cmt().peek(block);
  EXPECT_EQ(pm->lazy_count, 1u);
}

TEST_F(AvrSystemTest, LazySpaceExhaustionTriggersFetchRecompress) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  BlockMeta& m = sys_.cmt().lookup(block);
  m.method = Method::kDownsample2D;
  m.size_lines = 8;
  m.lazy_count = 8;  // block slot full: no lazy space
  sys_.writeback(0, block + 0x40);
  for (uint64_t i = 0; i < 2048; ++i)
    sys_.request(0, exact_base_ + (i * 64) % (48 * kBlockBytes), false);
  EXPECT_GE(stat("evict_fetch_recompress"), 1u);
  const BlockMeta* pm = sys_.cmt().peek(block);
  EXPECT_EQ(pm->lazy_count, 0u);  // recompaction cleared the lazy region
}

TEST_F(AvrSystemTest, FailureHistorySkipsAttempts) {
  const uint64_t block = approx_base_ + 2 * kBlockBytes;
  fill_noise(regions_, block, 99);
  // Repeatedly dirty lines of the incompressible block and flush them out.
  for (int round = 0; round < 12; ++round) {
    sys_.writeback(0, block + (round % 16) * kCachelineBytes);
    for (uint64_t i = 0; i < 1024; ++i)
      sys_.request(0, exact_base_ + (i * 64) % (48 * kBlockBytes), false);
  }
  EXPECT_GT(stat("compress_failures"), 0u);
  EXPECT_GT(stat("attempts_skipped"), 0u);
  const BlockMeta* pm = sys_.cmt().peek(block);
  ASSERT_NE(pm, nullptr);
  EXPECT_FALSE(pm->compressed());
  EXPECT_GT(pm->failed, 0u);
}

TEST_F(AvrSystemTest, FailureHistoryDisabledNeverSkips) {
  SimConfig cfg = tiny_cfg();
  cfg.avr.enable_failure_history = false;
  RegionRegistry regions;
  AvrSystem sys(cfg, regions);
  const uint64_t a = regions.allocate("a", 16 * kBlockBytes, true);
  const uint64_t e = regions.allocate("e", 64 * kBlockBytes, false);
  fill_noise(regions, a, 1);
  for (int round = 0; round < 8; ++round) {
    sys.writeback(0, a + (round % 16) * kCachelineBytes);
    for (uint64_t i = 0; i < 1024; ++i)
      sys.request(0, e + (i * 64) % (48 * kBlockBytes), false);
  }
  EXPECT_EQ(sys.stats().get("attempts_skipped"), 0u);
}

TEST_F(AvrSystemTest, PfePromotesHotBlocks) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 10.0f);
  BlockMeta& m = sys_.cmt().lookup(block);
  m.method = Method::kDownsample2D;
  m.size_lines = 1;
  // Fetch and touch >= pfe_threshold lines via the DBUF.
  for (uint32_t i = 0; i < 9; ++i) sys_.request(0, block + i * kCachelineBytes, false);
  // Displace the DBUF: the PFE must promote the remaining lines.
  const uint64_t other = approx_base_ + kBlockBytes;
  fill_smooth(regions_, other, 20.0f);
  BlockMeta& m2 = sys_.cmt().lookup(other);
  m2.method = Method::kDownsample2D;
  m2.size_lines = 1;
  sys_.request(0, other, false);
  EXPECT_EQ(stat("pfe_promotions"), 1u);
  EXPECT_GT(stat("pfe_lines"), 0u);
  // Promoted lines now hit as UCLs without DRAM traffic.
  const uint64_t before = sys_.dram().bytes_read();
  sys_.request(0, block + 15 * kCachelineBytes, false);
  EXPECT_EQ(sys_.dram().bytes_read(), before);
}

TEST_F(AvrSystemTest, PfeBelowThresholdDoesNotPromote) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 10.0f);
  BlockMeta& m = sys_.cmt().lookup(block);
  m.method = Method::kDownsample2D;
  m.size_lines = 1;
  for (uint32_t i = 0; i < 3; ++i) sys_.request(0, block + i * kCachelineBytes, false);
  const uint64_t other = approx_base_ + kBlockBytes;
  fill_smooth(regions_, other, 20.0f);
  BlockMeta& m2 = sys_.cmt().lookup(other);
  m2.method = Method::kDownsample2D;
  m2.size_lines = 1;
  sys_.request(0, other, false);
  EXPECT_EQ(stat("pfe_promotions"), 0u);
}

TEST_F(AvrSystemTest, DrainWritesBackDirtyState) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 30.0f);
  for (uint32_t i = 0; i < kBlockLines; ++i)
    sys_.request(0, block + i * kCachelineBytes, true);
  const uint64_t before = sys_.dram().bytes_written();
  sys_.drain(0);
  EXPECT_GT(sys_.dram().bytes_written(), before);
  // After drain the block is compressed in memory.
  const BlockMeta* pm = sys_.cmt().peek(block);
  ASSERT_NE(pm, nullptr);
  EXPECT_TRUE(pm->compressed());
}

TEST_F(AvrSystemTest, CompressionRatioReported) {
  for (int b = 0; b < 8; ++b)
    fill_smooth(regions_, approx_base_ + b * kBlockBytes, 5.0f * b + 1.0f);
  for (int b = 0; b < 8; ++b)
    for (uint32_t i = 0; i < kBlockLines; ++i)
      sys_.request(0, approx_base_ + b * kBlockBytes + i * kCachelineBytes, true);
  sys_.drain(0);
  EXPECT_GT(sys_.mean_compression_ratio(), 8.0);  // smooth data ~16:1
}

// Writes back line `cl` of `block` dirty, then evicts it by filling its
// UCL set with exact lines. The block's one-line image lives in another set,
// so the eviction takes case 1 (recompress on chip). Returns the compressor
// calls the eviction made.
uint64_t evict_dirty_ucl(AvrSystem& sys, uint64_t block, uint32_t cl, uint64_t exact) {
  const uint64_t line = block + cl * kCachelineBytes;
  sys.writeback(0, line);
  const uint64_t sets = sys.llc().num_sets();
  const uint64_t set = (line / kCachelineBytes) % sets;
  prof::Totals t;
  prof::ScopedSink sink(&t);
  for (uint64_t k = 0; k < sys.llc().ways(); ++k)
    sys.request(0, exact + (k * sets + set) * kCachelineBytes, false);
  EXPECT_FALSE(sys.llc().ucl_present(line));
  return t.phase_calls(prof::Phase::kCompress);
}

// A compression that left a block's values as they were is not run again on
// the same values: the second of two dirty-UCL evictions reuses the first
// one's outcome, and counts it the same.
TEST_F(AvrSystemTest, RecompressingUnchangedValuesRunsTheCompressorOnce) {
  for (const bool store_between : {false, true}) {
    SCOPED_TRACE(store_between ? "store between" : "no store");
    RegionRegistry regions;
    AvrSystem sys(tiny_cfg(), regions);
    const uint64_t block = regions.allocate("approx", 4 * kBlockBytes, true);
    const uint64_t exact = regions.allocate("exact", 64 * kBlockBytes, false);
    // A constant block compresses to one line and reconstructs to itself.
    for (float& v : regions.block_values(block)) v = 42.0f;
    BlockMeta& m = sys.cmt().lookup(block);
    m.method = Method::kDownsample2D;
    m.size_lines = 1;
    sys.request(0, block, false);  // fetch: the image is now in the LLC
    ASSERT_TRUE(sys.llc().cms_present(block));

    EXPECT_GT(evict_dirty_ucl(sys, block, 1, exact), 0u);
    EXPECT_EQ(regions.load<float>(block + 4), 42.0f);
    if (store_between) regions.store<float>(block + 8, 43.0f);
    const uint64_t second = evict_dirty_ucl(sys, block, 2, exact);
    if (store_between)
      EXPECT_GT(second, 0u);
    else
      EXPECT_EQ(second, 0u);
    EXPECT_EQ(sys.counters().evict_recompress, 2u);
    EXPECT_EQ(sys.counters().compress_attempts, 2u);
    EXPECT_EQ(sys.counters().compress_successes, 2u);
    EXPECT_TRUE(sys.llc().cms_present(block));
  }
}

// Only an event that left the values as they were is remembered: a block
// that compresses unchanged hits on its next eviction, and a lossy one,
// which the compression rewrites, is compressed again.
TEST_F(AvrSystemTest, OnlyValuePreservingCompressionsAreRemembered) {
  for (const bool lossy : {false, true}) {
    SCOPED_TRACE(lossy ? "lossy" : "unchanged");
    RegionRegistry regions;
    AvrSystem sys(tiny_cfg(), regions);
    const uint64_t block = regions.allocate("approx", 4 * kBlockBytes, true);
    const uint64_t exact = regions.allocate("exact", 64 * kBlockBytes, false);
    // A constant block reconstructs to itself. A smooth field with a small
    // ripple compresses to one line too, but its reconstruction is not the
    // input.
    const auto vals = regions.block_values(block);
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      vals[i] = lossy ? 100.0f + 0.5f * static_cast<float>(i / 16) +
                            0.01f * std::sin(static_cast<float>(i))
                      : 42.0f;
    BlockMeta& m = sys.cmt().lookup(block);
    m.method = Method::kDownsample2D;
    m.size_lines = 1;
    sys.request(0, block, false);
    ASSERT_TRUE(sys.llc().cms_present(block));

    std::array<float, kValuesPerBlock> before;
    std::copy(vals.begin(), vals.end(), before.begin());
    EXPECT_GT(evict_dirty_ucl(sys, block, 1, exact), 0u);
    const bool same = std::equal(vals.begin(), vals.end(), before.begin(),
                                 [](float a, float b) { return f32_bits(a) == f32_bits(b); });
    ASSERT_EQ(same, !lossy);
    const uint64_t second = evict_dirty_ucl(sys, block, 2, exact);
    if (lossy)
      EXPECT_GT(second, 0u);
    else
      EXPECT_EQ(second, 0u);
    EXPECT_EQ(sys.counters().compress_attempts, 2u);
    EXPECT_EQ(sys.counters().compress_successes, 2u);
    ASSERT_NE(sys.cmt().peek(block), nullptr);
    EXPECT_EQ(sys.cmt().peek(block)->size_lines, 1u);
  }
}

// Whether the LLC holds a dirty compressed image of `block`.
bool cms_dirty_in_llc(const AvrSystem& sys, uint64_t block) {
  for (const LlcVictim& v : sys.llc().all_resident())
    if (v.kind == LlcVictim::kCmsBlock && v.addr == block) return v.dirty;
  return false;
}

// Marks `block` compressed in memory: a one-line image plus `lazy` lines
// lazily written back beside it.
void mark_compressed(AvrSystem& sys, uint64_t block, uint8_t lazy) {
  BlockMeta& m = sys.cmt().lookup(block);
  m.method = Method::kDownsample2D;
  m.size_lines = 1;
  m.lazy_count = lazy;
}

// Fig. 7: a fetch of a compressed block with lazy lines reads the image and
// the lazy lines, merges and recompresses them; the merged image stays in
// the LLC dirty and nothing is written to memory yet.
TEST_F(AvrSystemTest, LazyMergeThatRecompressesStaysDirtyInLlc) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  mark_compressed(sys_, block, 2);
  const uint64_t r0 = sys_.dram().bytes_read(), w0 = sys_.dram().bytes_written();
  const uint64_t l0 = sys_.cmt().counters().lookups;
  sys_.request(0, block + 3 * kCachelineBytes, false);
  EXPECT_EQ(sys_.dram().bytes_read() - r0, 3 * kCachelineBytes);
  EXPECT_EQ(sys_.dram().bytes_written() - w0, 0u);
  EXPECT_EQ(sys_.cmt().counters().lookups - l0, 1u);
  EXPECT_TRUE(cms_dirty_in_llc(sys_, block));
  const BlockMeta* pm = sys_.cmt().peek(block);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->lazy_count, 0u);
  EXPECT_EQ(pm->method, Method::kDownsample2D);
  EXPECT_EQ(pm->size_lines, 1u);
  EXPECT_EQ(pm->failed, 0u);
}

// Fig. 7: the same fetch, but the merged values no longer compress: the
// block is written back as 1 KB raw and its entry turns uncompressed with
// one failure on record.
TEST_F(AvrSystemTest, LazyMergeThatFailsWritesTheRawBlock) {
  const uint64_t block = approx_base_;
  fill_noise(regions_, block, 7);
  mark_compressed(sys_, block, 2);
  const uint64_t r0 = sys_.dram().bytes_read(), w0 = sys_.dram().bytes_written();
  const uint64_t l0 = sys_.cmt().counters().lookups;
  sys_.request(0, block + 3 * kCachelineBytes, false);
  EXPECT_EQ(sys_.dram().bytes_read() - r0, 3 * kCachelineBytes);
  EXPECT_EQ(sys_.dram().bytes_written() - w0, kBlockBytes);
  EXPECT_EQ(sys_.cmt().counters().lookups - l0, 1u);
  EXPECT_FALSE(sys_.llc().cms_present(block));
  const BlockMeta* pm = sys_.cmt().peek(block);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->method, Method::kUncompressed);
  EXPECT_EQ(pm->size_lines, 0u);
  EXPECT_EQ(pm->lazy_count, 0u);
  EXPECT_EQ(pm->failed, 1u);
  EXPECT_EQ(pm->skipped, 0u);
}

// Fig. 8 case 1: a dirty UCL leaves while the block's image is in the LLC,
// but the block's values stopped compressing. The image is dropped, the
// block is written back as 1 KB raw, and the entry is looked up once, only
// because the compression failed.
TEST_F(AvrSystemTest, OnChipRecompressionThatFailsWritesTheRawBlock) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  mark_compressed(sys_, block, 0);
  sys_.request(0, block, false);  // fetch: the image is now in the LLC
  ASSERT_TRUE(sys_.llc().cms_present(block));
  fill_noise(regions_, block, 11);
  const uint64_t r0 = sys_.dram().bytes_read(), w0 = sys_.dram().bytes_written();
  const uint64_t l0 = sys_.cmt().counters().lookups;
  evict_dirty_ucl(sys_, block, 1, exact_base_);
  // The eviction's exact requests each miss and read one line.
  EXPECT_EQ(sys_.dram().bytes_read() - r0, sys_.llc().ways() * kCachelineBytes);
  EXPECT_EQ(sys_.dram().bytes_written() - w0, kBlockBytes);
  EXPECT_EQ(sys_.cmt().counters().lookups - l0, 1u);
  EXPECT_EQ(sys_.counters().evict_recompress, 1u);
  EXPECT_FALSE(sys_.llc().cms_present(block));
  const BlockMeta* pm = sys_.cmt().peek(block);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->method, Method::kUncompressed);
  EXPECT_EQ(pm->size_lines, 0u);
  EXPECT_EQ(pm->lazy_count, 0u);
  EXPECT_EQ(pm->failed, 1u);
  EXPECT_EQ(pm->skipped, 0u);
}

TEST_F(AvrSystemTest, OutliersSurviveRoundTrip) {
  const uint64_t block = approx_base_;
  fill_smooth(regions_, block, 50.0f);
  regions_.store<float>(block + 12 * 4, -9999.0f);  // spike -> outlier
  for (uint32_t i = 0; i < kBlockLines; ++i)
    sys_.request(0, block + i * kCachelineBytes, true);
  sys_.drain(0);
  const BlockMeta* pm = sys_.cmt().peek(block);
  ASSERT_TRUE(pm && pm->compressed());
  EXPECT_FLOAT_EQ(regions_.load<float>(block + 12 * 4), -9999.0f);
}

TEST_F(AvrSystemTest, MetadataTrafficAccrues) {
  fill_smooth(regions_, approx_base_, 1.0f);
  for (uint64_t p = 0; p < 8; ++p)
    sys_.request(0, approx_base_ + p * kBlockBytes, false);
  EXPECT_GT(sys_.cmt().metadata_traffic_bytes(), 0u);
}

struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
  }
};

/// Refills a block with one of three kinds of contents: a smooth field
/// (compresses lossily), a constant (compresses and reconstructs to the
/// same bits) or noise (never compresses).
void fill_kind(RegionRegistry& r, uint64_t block, uint64_t kind, Xoshiro256& rng) {
  const float base = static_cast<float>(rng.uniform(-100, 100));
  if (kind == 0) {
    fill_smooth(r, block, base);
  } else if (kind == 1) {
    for (float& v : r.block_values(block)) v = base;
  } else {
    fill_noise(r, block, rng.next());
  }
}

// A seeded mix of reads, writes, L2 write-backs, single-value stores and
// whole-block refills over approximate blocks of all three kinds plus an
// exact region, on a 32-set LLC and on a 4-set LLC with the BDI-hybrid tier
// on, then a drain. Every request latency and miss bit, the final counters,
// the DRAM counters, the compression ratio and the approximate region's
// backing store fold into one FNV-1a digest, captured before compressions
// were remembered: any change in what an eviction compresses, or in the
// values a compression leaves behind, moves it.
TEST(AvrSystemChurn, DigestPinned) {
  struct Case {
    uint64_t llc_bytes;
    uint32_t ways;
    bool bdi;
  };
  constexpr Case kCases[] = {{16 * 1024, 8, false}, {2 * 1024, 8, true}};
  constexpr uint64_t kApproxBlocks = 48, kExactBlocks = 32;
  Fnv1a d;
  for (const Case c : kCases) {
    SimConfig cfg;
    cfg.llc = {c.llc_bytes, c.ways, 15};
    cfg.avr.enable_bdi_hybrid = c.bdi;
    RegionRegistry regions;
    AvrSystem sys(cfg, regions);
    const uint64_t approx = regions.allocate("approx", kApproxBlocks * kBlockBytes, true);
    const uint64_t exact = regions.allocate("exact", kExactBlocks * kBlockBytes, false);
    Xoshiro256 rng(0xC0FFEE + c.llc_bytes);
    for (uint64_t b = 0; b < kApproxBlocks; ++b)
      fill_kind(regions, approx + b * kBlockBytes, b % 3, rng);
    uint64_t now = 0;
    for (int op = 0; op < 30000; ++op) {
      now += 1 + rng.below(20);
      const uint64_t line =
          rng.below(4) != 0
              ? approx + rng.below(kApproxBlocks * kBlockLines) * kCachelineBytes
              : exact + rng.below(kExactBlocks * kBlockLines) * kCachelineBytes;
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
          d.u64(sys.request(now, line, rng.below(3) == 0));
          d.u64(sys.last_was_miss());
          break;
        case 5:
        case 6:
          sys.writeback(now, line);
          break;
        case 7:
        case 8:
          regions.store<float>(line + 4 * rng.below(kValuesPerLine),
                               static_cast<float>(rng.uniform(-100, 100)));
          break;
        case 9:
          if (regions.is_approx(line)) fill_kind(regions, block_addr(line), rng.below(3), rng);
          break;
      }
    }
    sys.drain(now);
    const AvrSystemCounters& k = sys.counters();
    EXPECT_GT(k.evict_recompress, 0u);
    EXPECT_GT(k.compress_successes, 0u);
    EXPECT_GT(k.compress_failures, 0u);
    for (const StatGroup& g : {sys.stats(), sys.dram().stats()})
      for (const auto& [name, v] : g.counters()) d.u64(v);
    d.u64(std::bit_cast<uint64_t>(sys.mean_compression_ratio()));
    for (uint64_t b = 0; b < kApproxBlocks; ++b)
      for (float v : regions.block_values(approx + b * kBlockBytes))
        d.u64(std::bit_cast<uint32_t>(v));
  }
  EXPECT_EQ(d.h, 0x85027c622fc2cdf5ull) << std::hex << "digest 0x" << d.h;
}

TEST(AvrSystemTraffic, SmoothStreamBeatsUncompressed) {
  // Stream a large smooth approx array twice: the second pass must fetch
  // compressed blocks and move far fewer bytes than the footprint.
  SimConfig cfg = tiny_cfg();
  RegionRegistry regions;
  AvrSystem sys(cfg, regions);
  const uint64_t blocks = 128;
  const uint64_t base = regions.allocate("stream", blocks * kBlockBytes, true);
  for (uint64_t b = 0; b < blocks; ++b)
    fill_smooth(regions, base + b * kBlockBytes, static_cast<float>(b));
  // Pass 1: write everything (compresses on eviction).
  for (uint64_t b = 0; b < blocks; ++b)
    for (uint32_t i = 0; i < kBlockLines; ++i)
      sys.writeback(0, base + b * kBlockBytes + i * kCachelineBytes);
  sys.drain(0);
  const uint64_t start = sys.dram().bytes_read();
  // Pass 2: read everything.
  for (uint64_t b = 0; b < blocks; ++b)
    for (uint32_t i = 0; i < kBlockLines; ++i)
      sys.request(0, base + b * kBlockBytes + i * kCachelineBytes, false);
  const uint64_t read = sys.dram().bytes_read() - start;
  EXPECT_LT(read, blocks * kBlockBytes / 4) << "compressed reads should be ~16x smaller";
}

}  // namespace
}  // namespace avr
