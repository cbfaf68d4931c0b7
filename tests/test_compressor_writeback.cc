// One reconstruction per compression event: Compressor::write_reconstruction
// writes back the image compress() built in scratch, and it must equal
// reconstruct(att->block) bit for bit — on the workload corpora of
// test_compressor_identity (every approximable region of every generator,
// up to ~48 blocks each), and on the two selection orders where the
// scratch's per-variant image is not the winner's.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "avr/compressor.hh"
#include "harness/experiment.hh"
#include "runtime/system.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

using Block = std::array<float, kValuesPerBlock>;

/// Compresses `vals` and compares the write-back against reconstruct(),
/// both applied to a copy of the input (the backing store of the event).
/// Returns the attempt for further checks, or nullopt if it did not compress.
std::optional<CompressionAttempt> expect_writeback_matches(
    const Compressor& comp, std::span<const float, kValuesPerBlock> vals,
    CompressorScratch& scratch, const std::string& what) {
  auto att = comp.compress(vals, scratch);
  if (!att) return att;
  Block want;
  Block got;
  std::memcpy(want.data(), vals.data(), sizeof(want));
  std::memcpy(got.data(), vals.data(), sizeof(got));
  comp.reconstruct(att->block, want);
  comp.write_reconstruction(att->block, scratch, got);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0) << what;
  return att;
}

class CompressorWriteback : public ::testing::TestWithParam<std::string> {};

TEST_P(CompressorWriteback, EqualsReconstructOnWorkloadCorpus) {
  const std::string name = GetParam();
  auto wl = make_workload(name);
  const SimConfig cfg = ExperimentRunner({}, false, "").config_for(*wl);
  System sys(Design::kBaseline, cfg, 1, /*timing=*/false);
  wl->run(sys);

  const Compressor comp(cfg.avr);
  // One scratch for the whole corpus, as AvrSystem threads it: a stale image
  // from an earlier block must never leak into a later write-back.
  CompressorScratch scratch;
  uint32_t compressed = 0;
  for (const MemoryRegion& r : sys.regions().regions()) {
    if (!r.approx) continue;
    const uint64_t nblocks = r.bytes / kBlockBytes;
    const uint64_t stride = nblocks > 48 ? nblocks / 48 : 1;
    for (uint64_t b = 0; b < nblocks; b += stride) {
      const auto vals = sys.regions().block_values(r.base + b * kBlockBytes);
      const std::string what = name + " block " + std::to_string(b);
      if (expect_writeback_matches(comp, vals, scratch, what)) ++compressed;
    }
  }
  EXPECT_GT(compressed, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CompressorWriteback,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

/// A smooth 2D field: 2D interpolation fits it, 1D fits it worse.
Block smooth_2d_field() {
  Block b;
  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      b[r * 16 + c] = 50.0f + 3.0f * std::sin(0.2f * r) * std::cos(0.2f * c);
  return b;
}

TEST(CompressorWriteback, TwoDWinsWhileOneDIsTriedAfter) {
  // Planted outliers keep the 2D encoding from being the unbeatable
  // 1-line, zero-outlier result, so the 1D variant still runs and leaves
  // its own image in the scratch image the winner does not hold: the
  // write-back must use the winner's.
  Block b = smooth_2d_field();
  b[5] = -b[5];
  b[77] *= 4.0f;
  b[200] = 1e6f;
  const Compressor comp{AvrConfig{}};
  CompressorScratch scratch;
  const auto att = expect_writeback_matches(comp, b, scratch, "2D then 1D");
  ASSERT_TRUE(att.has_value());
  ASSERT_EQ(att->block.method, Method::kDownsample2D);
  ASSERT_FALSE(att->block.lines() == 1 && att->block.outliers.empty());
  EXPECT_NE(scratch.images[0], scratch.images[1])
      << "the 1D attempt should have written the other image";
}

TEST(CompressorWriteback, OneDWinsAfterTwoDWasTried) {
  // A ramp along the flattened index: 1D is exact, 2D (tried first) sees a
  // sawtooth across rows. The winner is the variant tried last.
  Block b;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    b[i] = 1000.0f + 2.0f * static_cast<float>(i);
  // Two outliers for the overlay, with opposite deltas in one row (and one
  // 2D tile), so neither variant's summary moves.
  b[9] += 200.0f;
  b[10] -= 200.0f;
  const Compressor comp{AvrConfig{}};
  CompressorScratch scratch;
  const auto att = expect_writeback_matches(comp, b, scratch, "1D after 2D");
  ASSERT_TRUE(att.has_value());
  EXPECT_EQ(att->block.method, Method::kDownsample1D);
  EXPECT_EQ(att->block.outliers.size(), 2u);
}

TEST(CompressorWriteback, ExactTierWritesNothing) {
  // BDI-hybrid stores no image: the write-back must leave the caller's
  // values untouched, like reconstruct() (sentinels survive).
  AvrConfig cfg;
  cfg.enable_bdi_hybrid = true;
  const Compressor comp(cfg);
  Block vals;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i) vals[i] = (i % 2) ? 1.0e10f : 1.0f;
  CompressorScratch scratch;
  const auto att = comp.compress(vals, scratch);
  ASSERT_TRUE(att.has_value());
  ASSERT_EQ(att->block.method, Method::kBdiHybrid);
  Block out;
  out.fill(-123.25f);
  comp.write_reconstruction(att->block, scratch, out);
  for (const float v : out) ASSERT_EQ(v, -123.25f);
}

}  // namespace
}  // namespace avr
