#include "avr/avr_llc.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "common/prng.hh"

namespace avr {
namespace {

CacheConfig small_cfg() {
  // 64 kB, 16-way => 64 sets; small enough to force interesting evictions.
  return CacheConfig{64 * 1024, 16, 15};
}

bool contains_ucl(const std::vector<LlcVictim>& v, uint64_t addr) {
  return std::any_of(v.begin(), v.end(), [&](const LlcVictim& x) {
    return x.kind == LlcVictim::kUcl && x.addr == addr;
  });
}
bool contains_cms(const std::vector<LlcVictim>& v, uint64_t block) {
  return std::any_of(v.begin(), v.end(), [&](const LlcVictim& x) {
    return x.kind == LlcVictim::kCmsBlock && x.addr == block;
  });
}

TEST(AvrLlc, UclInsertLookupHit) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  llc.ucl_insert(0x10000040, false, v);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(llc.ucl_present(0x10000040));
  EXPECT_TRUE(llc.ucl_access(0x10000040, false));
  EXPECT_FALSE(llc.ucl_present(0x10000080));  // neighbour line absent
}

TEST(AvrLlc, SameSuffixDifferentBlocksDisambiguatedByTagWay) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  // Two lines with identical CL offset (suffix) in different blocks that
  // share the same UCL set: the BPA tag-way check must tell them apart.
  const uint64_t sets = llc.num_sets();
  const uint64_t a = 0x40000000;                  // block A, line 0
  const uint64_t b = a + sets * kCachelineBytes * 16;  // same indexes, block B
  llc.ucl_insert(a, false, v);
  EXPECT_FALSE(llc.ucl_present(b));
  llc.ucl_insert(b, false, v);
  EXPECT_TRUE(llc.ucl_present(a));
  EXPECT_TRUE(llc.ucl_present(b));
}

TEST(AvrLlc, UclDirtyTracking) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  llc.ucl_insert(0x20000000, false, v);
  llc.ucl_access(0x20000000, /*write=*/true);
  auto inv = llc.ucl_invalidate(0x20000000);
  ASSERT_TRUE(inv);
  EXPECT_TRUE(*inv);
  EXPECT_FALSE(llc.ucl_present(0x20000000));
}

TEST(AvrLlc, UclMarkClean) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  llc.ucl_insert(0x20000000, true, v);
  llc.ucl_mark_clean(0x20000000);
  EXPECT_FALSE(*llc.ucl_invalidate(0x20000000));
}

TEST(AvrLlc, CmsInsertPresentCount) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  llc.cms_insert(0x30000000, 3, false, v);
  EXPECT_TRUE(llc.cms_present(0x30000000));
  EXPECT_TRUE(llc.cms_present(0x30000200));  // any addr inside the block
  EXPECT_EQ(llc.cms_count(0x30000000), 3u);
  llc.cms_insert(0x30000400, 2, true, v);
  // all_resident reports each image once, with the dirty bit it was inserted with.
  std::vector<LlcVictim> images;
  for (const LlcVictim& e : llc.all_resident())
    if (e.kind == LlcVictim::kCmsBlock) images.push_back(e);
  ASSERT_EQ(images.size(), 2u);
  for (const LlcVictim& e : images) EXPECT_EQ(e.dirty, e.addr == 0x30000400) << e.addr;
}

TEST(AvrLlc, CmsRemoveLeavesUcls) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  const uint64_t block = 0x30000000;
  llc.cms_insert(block, 2, true, v);
  llc.ucl_insert(block + 0x40, true, v);
  llc.cms_remove(block);
  EXPECT_FALSE(llc.cms_present(block));
  EXPECT_TRUE(llc.ucl_present(block + 0x40));  // tag survived for the UCL
}

TEST(AvrLlc, UclAndCmsCoexistWithoutConflict) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  const uint64_t block = 0x50000000;
  llc.cms_insert(block, 8, false, v);
  for (uint32_t i = 0; i < kBlockLines; ++i)
    llc.ucl_insert(block + i * kCachelineBytes, false, v);
  EXPECT_TRUE(v.empty()) << "16 UCLs + 8 CMSs must fit without evictions";
  EXPECT_TRUE(llc.cms_present(block));
  for (uint32_t i = 0; i < kBlockLines; ++i)
    EXPECT_TRUE(llc.ucl_present(block + i * kCachelineBytes)) << i;
}

TEST(AvrLlc, CmsVictimDragsWholeBlockOut) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  const uint64_t block = 0x60000000;
  llc.cms_insert(block, 4, true, v);
  ASSERT_TRUE(v.empty());
  // Flood the CMS's first set with UCLs of *other* blocks until the CMS
  // becomes the LRU victim.
  const uint64_t sets = llc.num_sets();
  const uint64_t tag_set = (block >> 10) & (sets - 1);
  int evicted_rounds = 0;
  for (uint64_t i = 0; i < 64 && !contains_cms(v, block); ++i) {
    // Lines whose UCL index == tag_set but from distinct far-away blocks.
    const uint64_t line = ((0x100000 + i * 16) * sets + tag_set) * kCachelineBytes;
    if (!llc.ucl_present(line)) llc.ucl_insert(line, false, v);
    ++evicted_rounds;
  }
  EXPECT_TRUE(contains_cms(v, block));
  EXPECT_FALSE(llc.cms_present(block));
  // The reported block eviction carries the dirty flag.
  for (const auto& x : v) {
    if (x.kind == LlcVictim::kCmsBlock && x.addr == block) {
      EXPECT_TRUE(x.dirty);
    }
  }
  (void)evicted_rounds;
}

TEST(AvrLlc, TagEvictionEvictsAllResidentLines) {
  // 16 tag ways per set: inserting 17 blocks with the same tag index forces
  // a tag eviction, which must push out the victim block's UCLs and CMSs.
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  const uint64_t sets = llc.num_sets();
  const uint64_t first = 0x70000000;
  llc.cms_insert(first, 2, true, v);
  llc.ucl_insert(first + 0x40, true, v);
  for (uint64_t i = 1; i <= 16; ++i) {
    const uint64_t block = first + i * sets * kBlockBytes;  // same tag index
    llc.ucl_insert(block, false, v);
  }
  EXPECT_TRUE(contains_cms(v, first));
  EXPECT_TRUE(contains_ucl(v, first + 0x40));
  EXPECT_FALSE(llc.cms_present(first));
  EXPECT_FALSE(llc.ucl_present(first + 0x40));
}

TEST(AvrLlc, UclsOfBlockFindsDirtyOnly) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  const uint64_t block = 0x40000000;
  llc.ucl_insert(block + 0x00, true, v);
  llc.ucl_insert(block + 0x40, false, v);
  llc.ucl_insert(block + 0x80, true, v);
  const uint16_t dirty = llc.ucls_of_block(block, /*dirty_only=*/true);
  const uint16_t all = llc.ucls_of_block(block, /*dirty_only=*/false);
  EXPECT_EQ(std::popcount(dirty), 2);
  EXPECT_EQ(std::popcount(all), 3);
  EXPECT_EQ(dirty, 0b101);  // CL offsets 0 and 2
  EXPECT_EQ(all, 0b111);
}

TEST(AvrLlc, CmsTouchRefreshesLru) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  const uint64_t block = 0x60000000;
  llc.cms_insert(block, 1, false, v);
  const uint64_t sets = llc.num_sets();
  const uint64_t tag_set = (block >> 10) & (sets - 1);
  // Insert 15 UCLs from other blocks into the same set (fills 16 ways with
  // the CMS), then touch the CMS and insert one more: a UCL, not the CMS,
  // must be the victim.
  for (uint64_t i = 0; i < 15; ++i) {
    const uint64_t line = ((0x200000 + i * 16) * sets + tag_set) * kCachelineBytes;
    llc.ucl_insert(line, false, v);
  }
  ASSERT_TRUE(v.empty());
  llc.cms_touch(block);
  const uint64_t line = ((0x300000) * sets + tag_set) * kCachelineBytes;
  llc.ucl_insert(line, false, v);
  EXPECT_FALSE(contains_cms(v, block));
  EXPECT_TRUE(llc.cms_present(block));
}

TEST(AvrLlc, AllResidentEnumerates) {
  AvrLlc llc(small_cfg());
  std::vector<LlcVictim> v;
  llc.cms_insert(0x10000000, 2, true, v);
  llc.ucl_insert(0x20000040, true, v);
  llc.ucl_insert(0x20000080, false, v);
  auto all = llc.all_resident();
  int cms = 0, ucl = 0;
  for (const auto& x : all) (x.kind == LlcVictim::kCmsBlock ? cms : ucl)++;
  EXPECT_EQ(cms, 1);
  EXPECT_EQ(ucl, 2);
}

TEST(AvrLlc, CmsChurnKeepsImagesWhole) {
  // Seeded cms_insert / ucl_insert / eviction churn on a small cache: CMS
  // entries are addressed through the ways recorded at insert, and Debug
  // and sanitizer builds assert on every touch and removal that the indexed
  // entry is still the image's own. Independently of those asserts, every
  // image must stay resident whole until it is reported as a victim.
  for (uint64_t seed : {11u, 12u, 13u}) {
    AvrLlc llc(CacheConfig{8 * 1024, 4, 15});  // 32 sets x 4 ways
    Xoshiro256 rng(seed);
    std::vector<LlcVictim> v;
    std::vector<uint64_t> images;  // blocks whose image should be resident
    for (int i = 0; i < 6000; ++i) {
      const uint64_t block = 0x10000000 + rng.below(96) * kBlockBytes;
      const uint64_t line = block + rng.below(kBlockLines) * kCachelineBytes;
      v.clear();
      switch (rng.below(6)) {
        case 0:
        case 1:
          if (!llc.cms_present(block)) {
            llc.cms_insert(block, 1 + rng.below(kMaxCompressedLines), rng.below(2), v);
            images.push_back(block);
          }
          break;
        case 2:
          if (!llc.ucl_present(line)) llc.ucl_insert(line, rng.below(2), v);
          break;
        case 3:
          llc.ucl_access(line, rng.below(2));  // refreshes the image's CMSs
          break;
        case 4:
          llc.cms_touch(block);
          break;
        case 5:
          llc.cms_remove(block);
          std::erase(images, block);
          break;
      }
      for (const LlcVictim& x : v)
        if (x.kind == LlcVictim::kCmsBlock) {
          ASSERT_EQ(std::count(images.begin(), images.end(), x.addr), 1)
              << "seed " << seed << " op " << i;
          std::erase(images, x.addr);
        }
      ASSERT_EQ(llc.cms_present(block),
                std::count(images.begin(), images.end(), block) == 1)
          << "seed " << seed << " op " << i;
    }
    // Every image left is resident, and its CMS entries plus the UCLs fit
    // the data array.
    uint64_t cms_entries = 0, ucls = 0;
    for (const LlcVictim& x : llc.all_resident()) {
      if (x.kind == LlcVictim::kCmsBlock) {
        EXPECT_EQ(std::count(images.begin(), images.end(), x.addr), 1);
        cms_entries += llc.cms_count(x.addr);
      } else {
        ++ucls;
      }
    }
    uint64_t image_count = 0;
    for (uint64_t b : images) image_count += llc.cms_present(b);
    EXPECT_EQ(image_count, images.size());
    EXPECT_LE(cms_entries + ucls, 8u * 1024 / kCachelineBytes);
  }
}

struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
  }
};

// A seeded mix of every mutating UCL and CMS operation over as many blocks
// as the LLC has tag entries, with a hot subset, on LLCs of 64, 16 and 4
// sets. With 16 and 4 sets a block's UCLs share sets with each other and
// with its own CMSs (CMS #i and #i+4 share a set at 4 sets). Every victim,
// both ucls_of_block masks and cms_count after each operation, the final
// counters and the final contents fold into one FNV-1a digest, captured
// before the UCL lookups were rewritten: any change in which entry an
// insert evicts or which lines a block reports moves it.
TEST(AvrLlcChurn, DigestPinned) {
  struct Geometry {
    uint32_t sets, ways;
  };
  constexpr Geometry kGeometries[] = {{64, 16}, {16, 8}, {4, 4}};
  Fnv1a d;
  const auto fold = [&d](const std::vector<LlcVictim>& v) {
    d.u64(v.size());
    for (const LlcVictim& x : v) {
      d.u64(x.kind);
      d.u64(x.addr);
      d.u64(x.dirty);
    }
  };
  for (const Geometry g : kGeometries) {
    const uint64_t entries = uint64_t{g.sets} * g.ways;
    AvrLlc llc(CacheConfig{entries * kCachelineBytes, g.ways, 15});
    Xoshiro256 rng(0xA7911C + g.sets * 131 + g.ways);
    // Blocks four apart use a quarter of the tag sets, so their tags
    // contend for ways while the data array still has room; the hot blocks'
    // lines fill half the data array.
    const uint64_t blocks = entries;
    const uint64_t hot = std::max<uint64_t>(2, entries / kBlockLines / 2);
    std::vector<LlcVictim> v;
    for (int op = 0; op < 20000; ++op) {
      const uint64_t idx = rng.below(2) ? rng.below(hot) : rng.below(blocks);
      const uint64_t block = 0x4000'0000 + idx * 4 * kBlockBytes;
      const uint64_t line = block + rng.below(kBlockLines) * kCachelineBytes;
      v.clear();
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2:
          d.u64(llc.ucl_access(line, rng.below(2)));
          break;
        case 3:
        case 4:
          if (!llc.ucl_present(line)) llc.ucl_insert(line, rng.below(2), v);
          break;
        case 5: {
          const std::optional<bool> dirty = llc.ucl_invalidate(line);
          d.u64(dirty.has_value() ? 1 + *dirty : 0);
          break;
        }
        case 6:
          llc.ucl_mark_clean(line);
          break;
        case 7:
          if (!llc.cms_present(block))
            llc.cms_insert(block, 1 + rng.below(kMaxCompressedLines), rng.below(2), v);
          break;
        case 8:
          llc.cms_remove(block);
          break;
        case 9:
          llc.cms_touch(block);
          break;
      }
      fold(v);
      d.u64(llc.ucls_of_block(block, /*dirty_only=*/false));
      d.u64(llc.ucls_of_block(block, /*dirty_only=*/true));
      d.u64(llc.cms_count(block));
    }
    const AvrLlcCounters& k = llc.counters();
    EXPECT_GT(k.ucl_hits, 0u);
    EXPECT_GT(k.tag_evictions, 0u);
    EXPECT_GT(k.cms_collateral_evictions, 0u);
    for (uint64_t x : {k.ucl_accesses, k.ucl_hits, k.ucl_fills}) d.u64(x);
    for (uint64_t x : {k.cms_fills, k.tag_evictions, k.cms_collateral_evictions}) d.u64(x);
    fold(llc.all_resident());
  }
  EXPECT_EQ(d.h, 0x8fb4f6b080dfd5e1ull) << std::hex << "digest 0x" << d.h;
}

class AvrLlcStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AvrLlcStress, RandomOperationsKeepInvariants) {
  AvrLlc llc(CacheConfig{16 * 1024, 8, 15});
  Xoshiro256 rng(GetParam());
  std::vector<LlcVictim> v;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t block = 0x10000000 + rng.below(256) * kBlockBytes;
    switch (rng.below(5)) {
      case 0: {
        const uint64_t line = block + rng.below(16) * kCachelineBytes;
        if (!llc.ucl_present(line)) llc.ucl_insert(line, rng.below(2), v);
        break;
      }
      case 1: {
        const uint64_t line = block + rng.below(16) * kCachelineBytes;
        llc.ucl_access(line, rng.below(2));
        break;
      }
      case 2:
        if (!llc.cms_present(block))
          llc.cms_insert(block, 1 + rng.below(kMaxCompressedLines), rng.below(2), v);
        break;
      case 3:
        llc.cms_remove(block);
        break;
      case 4:
        llc.cms_touch(block);
        break;
    }
    // Invariant: cms_count consistent with presence.
    EXPECT_EQ(llc.cms_present(block), llc.cms_count(block) > 0);
  }
  // Invariant: total resident entries fit the data array.
  uint64_t entries = 0;
  for (const auto& x : llc.all_resident())
    entries += x.kind == LlcVictim::kCmsBlock ? llc.cms_count(x.addr) : 1;
  EXPECT_LE(entries, 16ull * 1024 / kCachelineBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvrLlcStress, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace avr
