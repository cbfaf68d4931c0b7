#include "avr/compressor.hh"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "common/fp_bits.hh"
#include "common/prng.hh"

namespace avr {
namespace {

using Block = std::array<float, kValuesPerBlock>;

AvrConfig default_cfg() { return AvrConfig{}; }  // N=4 -> T1 = 6.25 %

Block smooth_2d_block(float base = 20.0f) {
  Block b;
  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      b[r * 16 + c] = base + 0.1f * r + 0.07f * c;
  return b;
}

Block noise_block(uint64_t seed, float lo, float hi) {
  Xoshiro256 rng(seed);
  Block b;
  for (auto& v : b) v = static_cast<float>(rng.uniform(lo, hi));
  return b;
}

TEST(Compressor, SmoothBlockCompressesToOneLine) {
  Compressor comp(default_cfg());
  const Block b = smooth_2d_block();
  auto att = comp.compress(b);
  ASSERT_TRUE(att.has_value());
  EXPECT_EQ(att->block.lines(), 1u);
  EXPECT_TRUE(att->block.outliers.empty());
  EXPECT_FALSE(att->block.outlier_map.any());
}

TEST(Compressor, ConstantBlockIsLossless) {
  Compressor comp(default_cfg());
  Block b;
  b.fill(123.456f);
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  Block out;
  comp.reconstruct(att->block, out);
  for (float v : out) EXPECT_FLOAT_EQ(v, 123.456f);
}

TEST(Compressor, WhiteNoiseFailsToCompress) {
  Compressor comp(default_cfg());
  // Full-range noise: nearly everything becomes an outlier -> > 8 lines.
  EXPECT_FALSE(comp.compress(noise_block(1, -1000.0f, 1000.0f)).has_value());
}

TEST(Compressor, OutliersStoredExactly) {
  Compressor comp(default_cfg());
  Block b = smooth_2d_block();
  b[37] = 5000.0f;  // spike
  b[200] = -3.0f;   // sign flip
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_TRUE(att->block.outlier_map.test(37));
  EXPECT_TRUE(att->block.outlier_map.test(200));
  Block out;
  comp.reconstruct(att->block, out);
  EXPECT_EQ(f32_bits(out[37]), f32_bits(5000.0f));
  EXPECT_EQ(f32_bits(out[200]), f32_bits(-3.0f));
}

TEST(Compressor, SizeFollowsOutlierCount) {
  // 0 outliers -> 1 line. 1..8 outliers -> bitmap(32 B)+outliers fit in one
  // extra line up to 8 outliers, then grow by one line per 16.
  CompressedBlock cb;
  cb.method = Method::kDownsample2D;
  EXPECT_EQ(cb.lines(), 1u);
  cb.outliers.assign(1, 0);
  EXPECT_EQ(cb.lines(), 2u);
  cb.outliers.assign(8, 0);
  EXPECT_EQ(cb.lines(), 2u);
  cb.outliers.assign(9, 0);
  EXPECT_EQ(cb.lines(), 3u);
  cb.outliers.assign(24, 0);
  EXPECT_EQ(cb.lines(), 3u);
  cb.outliers.assign(CompressedBlock::kMaxOutliers, 0);
  EXPECT_EQ(cb.lines(), kMaxCompressedLines);
}

TEST(Compressor, OutlierRuleSignExponentMantissa) {
  Compressor comp(default_cfg());
  // Same value: never an outlier.
  EXPECT_FALSE(comp.value_is_outlier(1.5f, 1.5f));
  // Sign mismatch.
  EXPECT_TRUE(comp.value_is_outlier(1.5f, -1.5f));
  // Exponent mismatch.
  EXPECT_TRUE(comp.value_is_outlier(1.5f, 3.0f));
  // Mantissa within the N=4 MSbit window (diff < 2^19) is fine.
  const float a = bits_f32(f32_bits(1.5f));
  const float b = bits_f32(f32_bits(1.5f) + (1u << 18));
  EXPECT_FALSE(comp.value_is_outlier(a, b));
  const float c = bits_f32(f32_bits(1.5f) + (1u << 19));
  EXPECT_TRUE(comp.value_is_outlier(a, c));
}

TEST(Compressor, NonFiniteOriginalIsOutlier) {
  Compressor comp(default_cfg());
  EXPECT_TRUE(comp.value_is_outlier(std::numeric_limits<float>::infinity(), 1.0f));
  EXPECT_TRUE(comp.value_is_outlier(std::numeric_limits<float>::quiet_NaN(), 1.0f));
}

TEST(Compressor, BlockWithNanStoresItExactly) {
  Compressor comp(default_cfg());
  Block b = smooth_2d_block();
  b[5] = std::numeric_limits<float>::quiet_NaN();
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  Block out;
  comp.reconstruct(att->block, out);
  EXPECT_TRUE(std::isnan(out[5]));
}

TEST(Compressor, ThresholdKnobTightensOutliers) {
  Block b = noise_block(3, 100.0f, 104.0f);  // ~2 % local variation
  AvrConfig loose = default_cfg();           // 6.25 %
  AvrConfig tight = default_cfg();
  tight.t1_mantissa_msbit = 8;  // 0.39 %
  auto la = Compressor(loose).compress(b);
  auto ta = Compressor(tight).compress(b);
  ASSERT_TRUE(la);
  const size_t loose_outliers = la->block.outliers.size();
  const size_t tight_outliers = ta ? ta->block.outliers.size()
                                   : CompressedBlock::kMaxOutliers + 1;
  EXPECT_LT(loose_outliers, tight_outliers);
}

TEST(Compressor, Method1DWinsOnLinearSequence) {
  // A 1D ramp is linear along the flattened index: 1D interpolation is
  // exact; 2D tiles see a sawtooth across rows and produce outliers.
  Compressor comp(default_cfg());
  Block b;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    b[i] = 1000.0f + 2.0f * static_cast<float>(i);
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_EQ(att->block.method, Method::kDownsample1D);
}

TEST(Compressor, Method2DWinsOnSmooth2DField) {
  Compressor comp(default_cfg());
  Block b;
  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      b[r * 16 + c] = 50.0f + 3.0f * std::sin(0.2f * r) * std::cos(0.2f * c);
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_EQ(att->block.method, Method::kDownsample2D);
}

TEST(Compressor, DisablingVariantsRestrictsMethods) {
  AvrConfig only1d = default_cfg();
  only1d.enable_2d = false;
  auto att = Compressor(only1d).compress(smooth_2d_block());
  ASSERT_TRUE(att);
  EXPECT_EQ(att->block.method, Method::kDownsample1D);

  AvrConfig none = default_cfg();
  none.enable_1d = none.enable_2d = false;
  EXPECT_FALSE(Compressor(none).compress(smooth_2d_block()).has_value());
}

TEST(Compressor, HugeMagnitudesCompressViaBiasing) {
  Compressor comp(default_cfg());
  Block b = smooth_2d_block();
  for (auto& v : b) v *= 1e30f;
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_LT(att->block.bias, 0);
  Block out;
  comp.reconstruct(att->block, out);
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    EXPECT_NEAR(out[i] / 1e30f, b[i] / 1e30f, 0.07f * std::abs(b[i] / 1e30f)) << i;
}

TEST(Compressor, TinyMagnitudesCompressViaBiasing) {
  Compressor comp(default_cfg());
  Block b = smooth_2d_block();
  for (auto& v : b) v *= 1e-25f;
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_GT(att->block.bias, 0);
}

// ---- variant selection ------------------------------------------------------

/// A seeded corpus block of one of four shapes: trace-like (a random walk
/// with spikes and overwritten values, scattered outliers), a 1D ramp with
/// spikes (1D interpolates the ramp exactly, 2D does not), a smooth 2D
/// field with spikes, or a rough block near the budget.
Block variant_corpus_block(uint64_t seed) {
  Xoshiro256 rng(seed);
  Block b;
  switch (seed % 4) {
    case 0: {
      const double overwrite = rng.uniform(0.0, 0.05);
      float v = 100.0f + 50.0f * static_cast<float>(rng.uniform());
      for (float& x : b) {
        v += static_cast<float>(rng.uniform(-1.0, 1.0));
        x = v;
        if (rng.uniform() < 0.02)
          x += 40.0f * static_cast<float>(rng.uniform(-1.0, 1.0));
        if (rng.uniform() < overwrite)
          x = 0.25f * v + static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      break;
    }
    case 1:
      for (uint32_t i = 0; i < kValuesPerBlock; ++i)
        b[i] = 1000.0f +
               static_cast<float>(rng.uniform(0.5, 4.0)) * static_cast<float>(i);
      for (uint32_t k = rng.below(40); k > 0; --k)
        b[rng.below(kValuesPerBlock)] *= 1.5f;
      break;
    case 2:
      b = smooth_2d_block(static_cast<float>(rng.uniform(5.0, 50.0)));
      for (uint32_t k = rng.below(60); k > 0; --k)
        b[rng.below(kValuesPerBlock)] *= 1.3f;
      break;
    default: {
      const double roughness = rng.uniform(0.02, 0.12);
      for (float& x : b)
        x = 100.0f * (1.0f + static_cast<float>(roughness * rng.uniform(-1.0, 1.0)));
      break;
    }
  }
  return b;
}

void expect_same_attempt(const CompressionAttempt& got,
                         const CompressionAttempt& want, uint64_t seed) {
  EXPECT_EQ(got.block.method, want.block.method) << "seed " << seed;
  EXPECT_EQ(got.block.bias, want.block.bias) << "seed " << seed;
  EXPECT_EQ(got.block.summary, want.block.summary) << "seed " << seed;
  EXPECT_EQ(got.block.outlier_map.words(), want.block.outlier_map.words())
      << "seed " << seed;
  EXPECT_EQ(got.block.outliers, want.block.outliers) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.avg_error),
            std::bit_cast<uint64_t>(want.avg_error))
      << "seed " << seed;
}

TEST(Compressor, BothVariantsPickWhatTheSelectionRulePicks) {
  // compress() with both variants on bounds the later variant's scan by the
  // earlier winner's outlier count. The result must be the selection rule
  // applied by hand to each variant compressed alone: 1D replaces 2D only
  // with strictly fewer lines, or equal lines and strictly fewer outliers.
  AvrConfig only2d = default_cfg();
  only2d.enable_1d = false;
  AvrConfig only1d = default_cfg();
  only1d.enable_2d = false;
  const Compressor both(default_cfg()), c2d(only2d), c1d(only1d);
  CompressorScratch scratch;
  uint32_t both_fail = 0, one_passes = 0, fewer_lines_1d = 0,
           fewer_outliers_1d = 0, tie_kept_2d = 0, more_1d = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    const Block b = variant_corpus_block(seed);
    const auto r2 = c2d.compress(b);
    const auto r1 = c1d.compress(b);
    const auto got = both.compress(b, scratch);
    if (!r1 && !r2) {
      EXPECT_FALSE(got) << "seed " << seed;
      ++both_fail;
      continue;
    }
    ASSERT_TRUE(got) << "seed " << seed;
    const CompressionAttempt* want = r2 ? &*r2 : &*r1;
    if (r1 && r2) {
      const uint32_t l1 = r1->block.lines(), l2 = r2->block.lines();
      const uint32_t o1 = r1->block.outliers.size(), o2 = r2->block.outliers.size();
      if (l1 < l2) {
        want = &*r1;
        ++fewer_lines_1d;
      } else if (l1 == l2 && o1 < o2) {
        want = &*r1;
        ++fewer_outliers_1d;
      } else if (l1 == l2) {
        ++tie_kept_2d;
      } else {
        ++more_1d;
      }
    } else {
      ++one_passes;
    }
    expect_same_attempt(*got, *want, seed);
    // The reconstruction compress() kept is the winner's.
    Block kept, fresh;
    both.write_reconstruction(got->block, scratch, kept);
    both.reconstruct(want->block, fresh);
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      ASSERT_EQ(f32_bits(kept[i]), f32_bits(fresh[i]))
          << "seed " << seed << ", value " << i;
  }
  // The corpus reaches every branch of the rule.
  EXPECT_GT(both_fail, 50u);
  EXPECT_GT(one_passes, 50u);
  EXPECT_GT(fewer_lines_1d, 50u);
  EXPECT_GT(fewer_outliers_1d, 50u);
  EXPECT_GT(tie_kept_2d, 50u);
  EXPECT_GT(more_1d, 50u);
}

// ---- property sweeps --------------------------------------------------------

class CompressorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressorProperty, NonOutliersRespectT1) {
  Compressor comp(default_cfg());
  Xoshiro256 rng(GetParam());
  Block b;
  const float base = static_cast<float>(rng.uniform(1.0, 1e6));
  for (auto& v : b)
    v = base * (1.0f + 0.04f * static_cast<float>(rng.uniform(-1.0, 1.0)));
  auto att = comp.compress(b);
  if (!att) return;  // failing thresholds entirely is an allowed outcome
  Block out;
  comp.reconstruct(att->block, out);
  for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
    if (att->block.outlier_map.test(i)) {
      EXPECT_EQ(f32_bits(out[i]), f32_bits(b[i])) << "outlier must be exact";
    } else {
      // Sec. 3.3: sign and exponent match and mantissa difference below the
      // N-th MSbit => relative error strictly below 2*T1 (mantissa metric
      // bounds the true relative error within a factor of 2).
      EXPECT_EQ(f32_sign(out[i]), f32_sign(b[i]));
      EXPECT_EQ(f32_exponent(out[i]), f32_exponent(b[i]));
      EXPECT_LE(relative_error(out[i], b[i]), 2.0 * comp.t1()) << i;
    }
  }
}

TEST_P(CompressorProperty, SizeAlwaysWithinBudget) {
  Compressor comp(default_cfg());
  Xoshiro256 rng(GetParam() * 13);
  Block b;
  const double roughness = rng.uniform(0.0, 0.3);
  for (auto& v : b)
    v = 100.0f * (1.0f + static_cast<float>(roughness * rng.uniform(-1.0, 1.0)));
  auto att = comp.compress(b);
  if (!att) return;
  EXPECT_GE(att->block.lines(), 1u);
  EXPECT_LE(att->block.lines(), kMaxCompressedLines);
  EXPECT_LE(att->avg_error, comp.t2());
  EXPECT_EQ(att->block.outlier_map.popcount(), att->block.outliers.size());
}

TEST_P(CompressorProperty, ReconstructionDeterministic) {
  Compressor comp(default_cfg());
  Xoshiro256 rng(GetParam() * 101);
  Block b;
  for (auto& v : b) v = static_cast<float>(rng.uniform(-5.0, 5.0));
  auto att = comp.compress(b);
  if (!att) return;
  Block o1, o2;
  comp.reconstruct(att->block, o1);
  comp.reconstruct(att->block, o2);
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    EXPECT_EQ(f32_bits(o1[i]), f32_bits(o2[i]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressorProperty,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace avr
