// Compressor edge-case pins, written against the pre-pipeline datapath so
// they gate the staged-pipeline refactor: denormal-heavy blocks, all-NaN /
// all-Inf blocks, and blocks with exactly kMaxOutliers outliers (the 8-line
// boundary).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "avr/compressor.hh"
#include "common/fp_bits.hh"

namespace avr {
namespace {

using Block = std::array<float, kValuesPerBlock>;

constexpr float kDenormal = 1e-40f;  // exponent field 0, nonzero mantissa

TEST(CompressorEdge, AllDenormalBlockCompressesToZeroSummary) {
  // Every value has exponent field 0: biasing is skipped (bias = 0) and the
  // fixed-point conversion flushes each value to raw 0, so the summary is
  // all-zero and every value whose mantissa difference from +0.0 reaches the
  // threshold bit becomes an outlier. kDenormal's mantissa (~7e4) sits far
  // below 2^(23-N), so no value is an outlier and the block reconstructs as
  // +0.0 everywhere.
  Compressor comp(AvrConfig{});
  Block b;
  b.fill(kDenormal);
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_EQ(att->block.bias, 0);
  EXPECT_EQ(att->block.lines(), 1u);
  EXPECT_TRUE(att->block.outliers.empty());
  for (uint32_t k = 0; k < kSummaryValues; ++k)
    EXPECT_EQ(att->block.summary[k], 0);
  Block out;
  comp.reconstruct(att->block, out);
  for (float v : out) EXPECT_EQ(f32_bits(v), f32_bits(0.0f));
}

TEST(CompressorEdge, LargeDenormalsBecomeOutliers) {
  // A denormal whose mantissa reaches the N-th MSbit differs from the +0.0
  // reconstruction by >= 2^(23-N): it must be stored exactly.
  Compressor comp(AvrConfig{});
  const float big_denormal = bits_f32(1u << (kMantissaBits - 4));  // N = 4
  Block b;
  b.fill(kDenormal);
  b[17] = big_denormal;
  b[99] = -big_denormal;
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_TRUE(att->block.outlier_map.test(17));
  EXPECT_TRUE(att->block.outlier_map.test(99));
  EXPECT_EQ(att->block.outliers.size(), 2u);
  Block out;
  comp.reconstruct(att->block, out);
  EXPECT_EQ(f32_bits(out[17]), f32_bits(big_denormal));
  EXPECT_EQ(f32_bits(out[99]), f32_bits(-big_denormal));
}

TEST(CompressorEdge, DenormalNormalInterleaveFailsToCompress) {
  // Denormals interleaved with ~100-magnitude values: biasing keys off the
  // normal values, every denormal flushes to zero in fixed point, and each
  // reconstructs to the sub-block's ~100 neighbourhood — an exponent
  // mismatch, so all 128 denormals are outliers and the budget (104) is
  // blown. The block must stay uncompressed, not mis-encode.
  Compressor comp(AvrConfig{});
  Block b;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    b[i] = (i % 2 == 0) ? kDenormal * static_cast<float>(1 + i % 7)
                        : 100.0f + 0.01f * static_cast<float>(i);
  EXPECT_FALSE(comp.compress(b).has_value());
}

TEST(CompressorEdge, AllNanBlockFailsToCompress) {
  // Non-finite originals are always outliers: 256 > kMaxOutliers.
  Compressor comp(AvrConfig{});
  Block b;
  b.fill(std::numeric_limits<float>::quiet_NaN());
  EXPECT_FALSE(comp.compress(b).has_value());
}

TEST(CompressorEdge, AllInfBlockFailsToCompress) {
  Compressor comp(AvrConfig{});
  Block b;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    b[i] = (i % 2 ? 1.0f : -1.0f) * std::numeric_limits<float>::infinity();
  EXPECT_FALSE(comp.compress(b).has_value());
}

TEST(CompressorEdge, MixedNanInfBlockStoresThemExactly) {
  // A handful of non-finite values in an otherwise smooth block: each is an
  // outlier holding its exact bit pattern (NaN payload included).
  Compressor comp(AvrConfig{});
  Block b;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    b[i] = 50.0f + 0.01f * static_cast<float>(i);
  const float payload_nan = bits_f32(0x7FC0BEEFu);
  b[3] = payload_nan;
  b[64] = std::numeric_limits<float>::infinity();
  b[255] = -std::numeric_limits<float>::infinity();
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_EQ(att->block.bias, 0);  // NaN/Inf present: biasing skipped
  Block out;
  comp.reconstruct(att->block, out);
  EXPECT_EQ(f32_bits(out[3]), 0x7FC0BEEFu);
  EXPECT_EQ(f32_bits(out[64]), f32_bits(std::numeric_limits<float>::infinity()));
  EXPECT_EQ(f32_bits(out[255]),
            f32_bits(-std::numeric_limits<float>::infinity()));
}

// -0.0 shares the all-zero fixed-point image with +0.0 but differs in sign,
// so it is an outlier against a +0.0 reconstruction while leaving the
// summary (and every other value's error) untouched — the one block shape
// that hits *exactly* a chosen outlier count.
Block zero_block_with_negzero_outliers(uint32_t n_outliers) {
  Block b;
  b.fill(0.0f);
  for (uint32_t i = 0; i < n_outliers; ++i) b[i] = -0.0f;
  return b;
}

TEST(CompressorEdge, ExactlyMaxOutliersFillsTheBudget) {
  Compressor comp(AvrConfig{});
  const Block b = zero_block_with_negzero_outliers(CompressedBlock::kMaxOutliers);
  auto att = comp.compress(b);
  ASSERT_TRUE(att);
  EXPECT_EQ(att->block.outliers.size(), CompressedBlock::kMaxOutliers);
  EXPECT_EQ(att->block.lines(), kMaxCompressedLines);
  EXPECT_EQ(att->avg_error, 0.0);
  Block out;
  comp.reconstruct(att->block, out);
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    EXPECT_EQ(f32_bits(out[i]), f32_bits(b[i])) << i;
}

TEST(CompressorEdge, OneOverMaxOutliersFailsToCompress) {
  Compressor comp(AvrConfig{});
  const Block b =
      zero_block_with_negzero_outliers(CompressedBlock::kMaxOutliers + 1);
  EXPECT_FALSE(comp.compress(b).has_value());
}

}  // namespace
}  // namespace avr
