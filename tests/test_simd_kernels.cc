// Cross-level bit-identity of the dispatched SIMD kernels (common/simd.hh).
//
// Every kernel at every level the platform supports must reproduce the
// scalar reference *bit for bit* — including on the adversarial inputs the
// vector fast paths exclude (non-finite values, denormals, ±0.0, saturating
// magnitudes, exponent-field over/underflow, int32 interpolation-delta
// overflow, exactly-at-budget outlier blocks). A parity failure here means
// a vector kernel's fallback predicate is wrong, which the corpus-level
// identity tests might only catch probabilistically.
//
// Also pins the dispatch contract itself: level names, the AVR_SIMD env
// override grammar (warn + clamp on garbage/unsupported), and
// simd_set_level's validation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "avr/bias.hh"
#include "avr/compressor.hh"
#include "avr/downsample.hh"
#include "common/fixed_point.hh"
#include "common/fp_bits.hh"
#include "common/prng.hh"
#include "common/simd.hh"

namespace avr {
namespace {

using FloatBlock = std::array<float, kValuesPerBlock>;
using RawBlock = std::array<int32_t, kValuesPerBlock>;

constexpr float kDenormal = 1e-40f;  // exponent field 0, nonzero mantissa
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> v{SimdLevel::kScalar};
  if (simd_max_supported_level() >= SimdLevel::kAvx2) v.push_back(SimdLevel::kAvx2);
  return v;
}

/// Pins a dispatch level for one scope; restores the previous level on exit.
class ScopedLevel {
 public:
  explicit ScopedLevel(SimdLevel lvl) : prev_(simd_level()) {
    EXPECT_TRUE(simd_set_level(lvl)) << "level " << simd_level_name(lvl);
  }
  ~ScopedLevel() { simd_set_level(prev_); }

 private:
  SimdLevel prev_;
};

/// Runs `fn` once per supported level with the dispatch pinned to it. The
/// scalar level always runs first, so fn can capture its reference output.
template <typename Fn>
void for_each_level(Fn&& fn) {
  for (SimdLevel lvl : supported_levels()) {
    ScopedLevel pin(lvl);
    fn(lvl);
  }
}

// ---- adversarial corpora --------------------------------------------------

std::vector<FloatBlock> float_corpora() {
  std::vector<FloatBlock> blocks;
  Xoshiro256 rng(42);

  {  // Smooth in-range ramp: the pure fast path.
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      b[i] = 1.0f + static_cast<float>(i) * 0.03125f;
    blocks.push_back(b);
  }
  {  // Mixed random magnitudes spanning the Q16.16 comfortable range.
    FloatBlock b;
    for (float& v : b) v = static_cast<float>(rng.uniform(-1e6, 1e6));
    blocks.push_back(b);
  }
  {  // Tiny magnitudes: exponent-field underflow pressure when biased.
    FloatBlock b;
    for (float& v : b) v = static_cast<float>(rng.uniform(-1e-6, 1e-6));
    blocks.push_back(b);
  }
  {  // NaN / ±Inf sprinkled over a ramp: non-finite lanes must fall back.
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      b[i] = -500.0f + static_cast<float>(i) * 4.0f;
      if (i % 17 == 3) b[i] = kNan;
      if (i % 23 == 5) b[i] = (i & 1) ? kInf : -kInf;
    }
    blocks.push_back(b);
  }
  {  // Denormals and signed zeros: exponent field 0 everywhere.
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      switch (i % 4) {
        case 0: b[i] = kDenormal; break;
        case 1: b[i] = -3.0f * kDenormal; break;
        case 2: b[i] = 0.0f; break;
        default: b[i] = -0.0f; break;
      }
    }
    blocks.push_back(b);
  }
  {  // Saturating magnitudes around the Q16.16 bound (±32768) and beyond.
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      switch (i % 6) {
        case 0: b[i] = 32767.998f; break;  // max representable neighbourhood
        case 1: b[i] = -32768.0f; break;   // exactly INT32_MIN / 2^16
        case 2: b[i] = 32768.5f; break;    // saturates
        case 3: b[i] = -1e30f; break;      // saturates hard
        case 4: b[i] = 1e30f; break;
        default: b[i] = 7.25f; break;
      }
    }
    blocks.push_back(b);
  }
  {  // Exact .5 scaled values: (2k+1)·2^-17 scales to k+0.5, pinning the
     // round-half-away-from-zero tie behaviour in both sign directions.
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      const float v = static_cast<float>(2 * i + 1) * 0x1.0p-17f;
      b[i] = (i & 1) ? -v : v;
    }
    blocks.push_back(b);
  }
  {  // All +0.0 with a few -0.0 lanes: bit-exact sign handling.
    FloatBlock b;
    b.fill(0.0f);
    for (uint32_t i = 0; i < kValuesPerBlock; i += 31) b[i] = -0.0f;
    blocks.push_back(b);
  }
  {  // Full exponent spread 1e-38..1e38: bias spill lanes over/underflow.
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      const double mag = std::pow(10.0, rng.uniform(-38.0, 38.0));
      b[i] = static_cast<float>((i & 1) ? -mag : mag);
    }
    blocks.push_back(b);
  }
  {  // Raw random bit patterns: every encoding class at once.
    FloatBlock b;
    for (float& v : b) v = bits_f32(static_cast<uint32_t>(rng.next()));
    blocks.push_back(b);
  }
  return blocks;
}

std::vector<RawBlock> raw_corpora() {
  std::vector<RawBlock> blocks;
  Xoshiro256 rng(1337);

  {  // Ramp.
    RawBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      b[i] = static_cast<int32_t>(i) * 1000 - 128000;
    blocks.push_back(b);
  }
  {  // Full-range random raws.
    RawBlock b;
    for (int32_t& v : b) v = static_cast<int32_t>(rng.next());
    blocks.push_back(b);
  }
  {  // Alternating extremes: int32 delta overflow in every interpolation.
    RawBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      b[i] = (i & 1) ? std::numeric_limits<int32_t>::max()
                     : std::numeric_limits<int32_t>::min();
    blocks.push_back(b);
  }
  {  // All zero.
    RawBlock b{};
    blocks.push_back(b);
  }
  {  // Small magnitudes with sign changes: rounding both directions.
    RawBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      b[i] = static_cast<int32_t>(i % 37) - 18;
    blocks.push_back(b);
  }
  return blocks;
}

constexpr int8_t kBiases[] = {-128, -37, -5, -1, 1, 5, 37, 127};

// ---- per-kernel parity ----------------------------------------------------

TEST(SimdKernels, Fixed32FromF32Parity) {
  for (const FloatBlock& b : float_corpora()) {
    RawBlock ref{};
    for_each_level([&](SimdLevel lvl) {
      RawBlock out{};
      simd::kernels().fixed32_from_f32(b.data(), out.data(), kValuesPerBlock);
      if (lvl == SimdLevel::kScalar)
        ref = out;
      else
        EXPECT_EQ(std::memcmp(out.data(), ref.data(), sizeof(out)), 0)
            << "level " << simd_level_name(lvl);
    });
  }
}

TEST(SimdKernels, Fixed32ToF32UnbiasParity) {
  for (const RawBlock& b : raw_corpora()) {
    for (int8_t bias : kBiases) {
      FloatBlock ref{};
      for_each_level([&](SimdLevel lvl) {
        FloatBlock out{};
        simd::kernels().fixed32_to_f32_unbias(b.data(), out.data(),
                                              kValuesPerBlock, bias);
        if (lvl == SimdLevel::kScalar)
          ref = out;
        else
          EXPECT_EQ(std::memcmp(out.data(), ref.data(), sizeof(out)), 0)
              << "level " << simd_level_name(lvl) << " bias " << int(bias);
      });
      // bias == 0 is the pure Q16.16 -> float path.
      FloatBlock ref0{};
      for_each_level([&](SimdLevel lvl) {
        FloatBlock out{};
        simd::kernels().fixed32_to_f32_unbias(b.data(), out.data(),
                                              kValuesPerBlock, 0);
        if (lvl == SimdLevel::kScalar)
          ref0 = out;
        else
          EXPECT_EQ(std::memcmp(out.data(), ref0.data(), sizeof(out)), 0)
              << "level " << simd_level_name(lvl) << " bias 0";
      });
    }
  }
}

TEST(SimdKernels, BiasBlockParity) {
  for (const FloatBlock& b : float_corpora()) {
    for (int8_t bias : kBiases) {
      FloatBlock ref{};
      for_each_level([&](SimdLevel lvl) {
        FloatBlock out{};
        simd::kernels().bias_block(b.data(), out.data(), kValuesPerBlock, bias);
        if (lvl == SimdLevel::kScalar)
          ref = out;
        else
          EXPECT_EQ(std::memcmp(out.data(), ref.data(), sizeof(out)), 0)
              << "level " << simd_level_name(lvl) << " bias " << int(bias);
        // In-place form (apply_bias): spill lanes must re-read the original
        // values, not the partially-stored fast-path result.
        FloatBlock inplace = b;
        simd::kernels().bias_block(inplace.data(), inplace.data(),
                                   kValuesPerBlock, bias);
        EXPECT_EQ(std::memcmp(inplace.data(), ref.data(), sizeof(inplace)), 0)
            << "in-place, level " << simd_level_name(lvl) << " bias " << int(bias);
      });
    }
  }
}

TEST(SimdKernels, ExponentMinmaxParity) {
  for (const FloatBlock& b : float_corpora()) {
    int ref_max = 0, ref_min = 0;
    for_each_level([&](SimdLevel lvl) {
      int e_max = -1, e_min = -1;
      simd::kernels().exponent_minmax(b.data(), kValuesPerBlock, &e_max, &e_min);
      if (lvl == SimdLevel::kScalar) {
        ref_max = e_max;
        ref_min = e_min;
      } else {
        EXPECT_EQ(e_max, ref_max) << "level " << simd_level_name(lvl);
        EXPECT_EQ(e_min, ref_min) << "level " << simd_level_name(lvl);
      }
    });
  }
}

TEST(SimdKernels, TruncateLowBitsParity) {
  for (const FloatBlock& b : float_corpora()) {
    for (unsigned bits : {1u, 8u, 16u, 23u}) {
      FloatBlock ref{};
      for_each_level([&](SimdLevel lvl) {
        FloatBlock out = b;  // in-place kernel
        simd::kernels().truncate_low_bits(out.data(), kValuesPerBlock, bits);
        if (lvl == SimdLevel::kScalar)
          ref = out;
        else
          EXPECT_EQ(std::memcmp(out.data(), ref.data(), sizeof(out)), 0)
              << "level " << simd_level_name(lvl) << " bits " << bits;
      });
    }
  }
}

TEST(SimdKernels, SummarizeParity) {
  for (const RawBlock& b : raw_corpora()) {
    std::array<int32_t, kSummaryValues> ref1{}, ref2{};
    for_each_level([&](SimdLevel lvl) {
      std::array<int32_t, kSummaryValues> o1{}, o2{};
      simd::kernels().summarize_1d(b.data(), o1.data());
      simd::kernels().summarize_2d(b.data(), o2.data());
      if (lvl == SimdLevel::kScalar) {
        ref1 = o1;
        ref2 = o2;
      } else {
        EXPECT_EQ(o1, ref1) << "1d, level " << simd_level_name(lvl);
        EXPECT_EQ(o2, ref2) << "2d, level " << simd_level_name(lvl);
      }
    });
  }
}

TEST(SimdKernels, LerpGatherParity) {
  // A synthetic interpolation table with non-monotone gathers and the full
  // weight range — harsher than the real 1D/2D tables.
  constexpr int kLog2Den = 5;
  std::array<uint8_t, kValuesPerBlock> left, right;
  std::array<int8_t, kValuesPerBlock> w;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
    left[i] = static_cast<uint8_t>(i % kSummaryValues);
    right[i] = static_cast<uint8_t>((i * 7 + 3) % kSummaryValues);
    w[i] = static_cast<int8_t>(i % (1u << kLog2Den));
  }
  for (const RawBlock& b : raw_corpora()) {
    std::array<int32_t, kSummaryValues> avg;
    std::memcpy(avg.data(), b.data(), sizeof(avg));
    RawBlock ref{};
    for_each_level([&](SimdLevel lvl) {
      RawBlock out{};
      simd::kernels().lerp_gather(avg.data(), left.data(), right.data(), w.data(),
                                  kLog2Den, out.data(), kValuesPerBlock);
      if (lvl == SimdLevel::kScalar)
        ref = out;
      else
        EXPECT_EQ(std::memcmp(out.data(), ref.data(), sizeof(out)), 0)
            << "level " << simd_level_name(lvl);
    });
  }
}

TEST(SimdKernels, ReconstructParity) {
  // The real reconstruction entry points (1D gather lerp and the hoisted 2D
  // bilinear pass) over summaries that include the int32 delta-overflow
  // extremes — the whole-call scalar redo must engage identically.
  for (const RawBlock& b : raw_corpora()) {
    std::array<Fixed32, kSummaryValues> avg;
    for (uint32_t k = 0; k < kSummaryValues; ++k) avg[k] = Fixed32::from_raw(b[k]);
    std::array<Fixed32, kValuesPerBlock> ref1, ref2;
    for_each_level([&](SimdLevel lvl) {
      std::array<Fixed32, kValuesPerBlock> o1, o2;
      downsample::reconstruct_1d(avg, o1);
      downsample::reconstruct_2d(avg, o2);
      if (lvl == SimdLevel::kScalar) {
        ref1 = o1;
        ref2 = o2;
      } else {
        EXPECT_EQ(std::memcmp(o1.data(), ref1.data(), sizeof(o1)), 0)
            << "1d, level " << simd_level_name(lvl);
        EXPECT_EQ(std::memcmp(o2.data(), ref2.data(), sizeof(o2)), 0)
            << "2d, level " << simd_level_name(lvl);
      }
    });
  }
}

// ---- error-scan parity ----------------------------------------------------

struct ScanResult {
  bool ok = false;
  uint32_t n_outliers = 0;
  uint32_t non_outliers = 0;
  int64_t dm_sum = 0;
  std::array<uint64_t, 4> words{};
  std::array<uint32_t, kMaxBlockOutliers> bits{};
};

ScanResult run_scan(const FloatBlock& orig, const RawBlock& recon, int8_t bias,
                    uint32_t limit) {
  ScanResult r;
  Bitmap256 map;
  map.words().fill(~uint64_t{0});  // poison: the scan must zero it itself
  simd::ErrorScanState st;
  st.bitmap_words = map.words().data();
  st.outlier_bits = r.bits.data();
  st.max_outliers = kMaxBlockOutliers;
  r.ok = simd::kernels().error_scan_f32(orig.data(), recon.data(),
                                        kValuesPerBlock, bias, limit, &st);
  r.n_outliers = st.n_outliers;
  r.non_outliers = st.non_outliers;
  r.dm_sum = st.dm_sum;
  r.words = map.words();
  return r;
}

void expect_scan_parity(const FloatBlock& orig, const RawBlock& recon,
                        int8_t bias, uint32_t limit, const char* what) {
  ScanResult ref;
  for_each_level([&](SimdLevel lvl) {
    const ScanResult got = run_scan(orig, recon, bias, limit);
    if (lvl == SimdLevel::kScalar) {
      ref = got;
      return;
    }
    ASSERT_EQ(got.ok, ref.ok) << what << ", level " << simd_level_name(lvl);
    // An aborted scan's state is partial by contract and discarded by the
    // caller, so only the verdict must agree.
    if (!ref.ok) return;
    EXPECT_EQ(got.n_outliers, ref.n_outliers)
        << what << ", level " << simd_level_name(lvl);
    EXPECT_EQ(got.non_outliers, ref.non_outliers)
        << what << ", level " << simd_level_name(lvl);
    EXPECT_EQ(got.dm_sum, ref.dm_sum) << what << ", level " << simd_level_name(lvl);
    EXPECT_EQ(got.words, ref.words) << what << ", level " << simd_level_name(lvl);
    for (uint32_t k = 0; k < ref.n_outliers; ++k)
      ASSERT_EQ(got.bits[k], ref.bits[k])
          << what << ", outlier " << k << ", level " << simd_level_name(lvl);
  });
}

TEST(SimdKernels, ErrorScanParityOnPipelineBlocks) {
  // Realistic scans: run the actual compression stages 1-4 (at the scalar
  // level, so every level scans the same reconstruction) and scan the
  // original against the resulting Q16.16 image.
  const uint32_t limit = 1u << (kMantissaBits - 10);
  for (const FloatBlock& b : float_corpora()) {
    FloatBlock biased;
    std::array<Fixed32, kValuesPerBlock> fixed, recon;
    int8_t bias = 0;
    {
      ScopedLevel pin(SimdLevel::kScalar);
      bias = choose_bias(b);
      bias_block(b, biased, bias);
      fixed32_from_f32_batch(biased, fixed);
      downsample::reconstruct_1d(downsample::compress_1d(fixed), recon);
    }
    RawBlock recon_raw;
    static_assert(sizeof(recon) == sizeof(recon_raw));
    std::memcpy(recon_raw.data(), recon.data(), sizeof(recon_raw));
    expect_scan_parity(b, recon_raw, bias, limit, "pipeline block");
  }
}

TEST(SimdKernels, ErrorScanBudgetBoundaryParity) {
  // Exact-budget blocks: a base of 2.0 reconstructs exactly; each planted
  // 3.0 differs by mantissa 2^22 >= limit, an outlier. k == budget must
  // succeed with exactly k outliers in block order; k == budget+1 aborts.
  const uint32_t limit = 1u << (kMantissaBits - 10);
  RawBlock recon;
  recon.fill(2 << 16);  // Q16.16 of 2.0
  Xoshiro256 rng(7);
  for (uint32_t extra = 0; extra <= 1; ++extra) {
    const uint32_t k = kMaxBlockOutliers + extra;
    FloatBlock b;
    b.fill(2.0f);
    // k distinct positions, scattered so some 8-lane groups are mixed and
    // some all-outlier (Fisher-Yates prefix of a shuffled index array).
    std::array<uint32_t, kValuesPerBlock> idx;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) idx[i] = i;
    for (uint32_t i = kValuesPerBlock - 1; i > 0; --i)
      std::swap(idx[i], idx[rng.below(i + 1)]);
    for (uint32_t i = 0; i < k; ++i) b[idx[i]] = 3.0f;

    ScanResult ref;
    for_each_level([&](SimdLevel lvl) {
      const ScanResult got = run_scan(b, recon, 0, limit);
      if (lvl == SimdLevel::kScalar) ref = got;
      EXPECT_EQ(got.ok, extra == 0) << "level " << simd_level_name(lvl);
      if (extra == 0) {
        EXPECT_EQ(got.n_outliers, kMaxBlockOutliers)
            << "level " << simd_level_name(lvl);
        EXPECT_EQ(got.words, ref.words) << "level " << simd_level_name(lvl);
        for (uint32_t j = 0; j < got.n_outliers; ++j)
          ASSERT_EQ(got.bits[j], f32_bits(3.0f)) << "level " << simd_level_name(lvl);
      }
    });
  }
}

TEST(SimdKernels, ErrorScanSignedZeroParity) {
  // -0.0 originals against a +0.0 reconstruction: bitwise-unequal with a
  // differing sign, so exactly the -0.0 lanes are outliers at every level.
  FloatBlock b;
  b.fill(0.0f);
  uint32_t planted = 0;
  for (uint32_t i = 2; i < kValuesPerBlock; i += 19) {
    b[i] = -0.0f;
    ++planted;
  }
  RawBlock recon{};  // all-zero raws reconstruct to +0.0
  const uint32_t limit = 1u << (kMantissaBits - 10);
  expect_scan_parity(b, recon, 0, limit, "signed zero");
  ScopedLevel pin(SimdLevel::kScalar);
  const ScanResult r = run_scan(b, recon, 0, limit);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.n_outliers, planted);
  for (uint32_t j = 0; j < r.n_outliers; ++j) EXPECT_EQ(r.bits[j], f32_bits(-0.0f));
}

// ---- crc32c ---------------------------------------------------------------

TEST(SimdKernels, Crc32cKnownAnswer) {
  // The CRC-32C (Castagnoli) check value: crc of "123456789" == 0xE3069283.
  // Pins the polynomial, reflection and init/final conventions of the scalar
  // table — the hardware kernels are then held to it by the parity test.
  ScopedLevel pin(SimdLevel::kScalar);
  const uint8_t msg[] = "123456789";
  const uint32_t crc = ~simd::kernels().crc32c_update(0xFFFFFFFFu, msg, 9);
  EXPECT_EQ(crc, 0xE3069283u);
  // Empty input: init and final cancel to 0.
  EXPECT_EQ(~simd::kernels().crc32c_update(0xFFFFFFFFu, msg, 0), 0u);
}

TEST(SimdKernels, Crc32cParity) {
  // Every level, every length 0..64 plus a large unaligned slab: the 8-byte
  // hardware stride and its byte tail must agree with the table exactly,
  // including incremental (chained) updates split at odd offsets.
  Xoshiro256 rng(2024);
  std::vector<uint8_t> buf(4096 + 7);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.next());
  for (size_t len : {size_t{0},  size_t{1},  size_t{7},  size_t{8},
                     size_t{9},  size_t{15}, size_t{16}, size_t{63},
                     size_t{64}, size_t{333}, buf.size()}) {
    uint32_t ref = 0;
    for_each_level([&](SimdLevel lvl) {
      const uint32_t one =
          ~simd::kernels().crc32c_update(0xFFFFFFFFu, buf.data(), len);
      // Chained halves split at an odd offset must equal the one-shot crc.
      const size_t cut = len / 3;
      uint32_t chained = simd::kernels().crc32c_update(0xFFFFFFFFu, buf.data(), cut);
      chained = ~simd::kernels().crc32c_update(chained, buf.data() + cut, len - cut);
      EXPECT_EQ(chained, one) << "level " << simd_level_name(lvl) << " len " << len;
      if (lvl == SimdLevel::kScalar)
        ref = one;
      else
        EXPECT_EQ(one, ref) << "level " << simd_level_name(lvl) << " len " << len;
    });
  }
}

// ---- whole-compressor parity ----------------------------------------------

TEST(SimdKernels, CompressorEndToEndParity) {
  // The integrated check: compress + reconstruct every adversarial block at
  // every level and require identical encodings, errors and reconstructions.
  Compressor comp(AvrConfig{});
  for (const FloatBlock& b : float_corpora()) {
    std::optional<CompressionAttempt> ref;
    FloatBlock ref_out{};
    for_each_level([&](SimdLevel lvl) {
      std::optional<CompressionAttempt> att = comp.compress(b);
      if (lvl == SimdLevel::kScalar) {
        ref = att;
        if (ref) {
          ref_out.fill(0.0f);
          comp.reconstruct(ref->block, ref_out);
        }
        return;
      }
      ASSERT_EQ(att.has_value(), ref.has_value())
          << "level " << simd_level_name(lvl);
      if (!att) return;
      EXPECT_EQ(att->block.method, ref->block.method);
      EXPECT_EQ(att->block.bias, ref->block.bias);
      EXPECT_EQ(att->block.summary, ref->block.summary);
      EXPECT_EQ(att->block.outlier_map, ref->block.outlier_map);
      EXPECT_EQ(att->block.outliers, ref->block.outliers);
      EXPECT_EQ(att->block.encoded_bytes, ref->block.encoded_bytes);
      EXPECT_EQ(att->block.lines(), ref->block.lines());
      EXPECT_EQ(att->avg_error, ref->avg_error) << "level " << simd_level_name(lvl);
      FloatBlock out{};
      comp.reconstruct(att->block, out);
      EXPECT_EQ(std::memcmp(out.data(), ref_out.data(), sizeof(out)), 0)
          << "reconstruct, level " << simd_level_name(lvl);
    });
  }
}

// ---- dispatch contract ----------------------------------------------------

TEST(SimdDispatch, NameParseRoundTrip) {
  for (SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    SimdLevel parsed = SimdLevel::kScalar;
    ASSERT_TRUE(simd_parse_level(simd_level_name(lvl), &parsed));
    EXPECT_EQ(parsed, lvl);
  }
  SimdLevel out;
  EXPECT_FALSE(simd_parse_level("AVX2", &out));  // grammar is lower-case
  EXPECT_FALSE(simd_parse_level("sse", &out));
  EXPECT_FALSE(simd_parse_level("", &out));
}

TEST(SimdDispatch, ChooseLevelContract) {
  const SimdLevel max = simd_max_supported_level();
  EXPECT_EQ(simd_choose_level(nullptr), max);  // no override -> best available
  EXPECT_EQ(simd_choose_level(""), max);
  EXPECT_EQ(simd_choose_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(simd_choose_level(simd_level_name(max)), max);
  // Garbage warns and falls back to max; an unsupported level clamps.
  EXPECT_EQ(simd_choose_level("definitely-not-a-level"), max);
  EXPECT_EQ(simd_choose_level("avx2"), max >= SimdLevel::kAvx2 ? SimdLevel::kAvx2 : max);
}

TEST(SimdDispatch, EnvOverrideDrivesReinit) {
  const SimdLevel before = simd_level();
  const char* old = std::getenv("AVR_SIMD");
  const std::string saved = old ? old : "";

  setenv("AVR_SIMD", "scalar", 1);
  EXPECT_EQ(simd_reinit_from_env(), SimdLevel::kScalar);
  EXPECT_EQ(simd_level(), SimdLevel::kScalar);

  setenv("AVR_SIMD", "no-such-isa", 1);
  EXPECT_EQ(simd_reinit_from_env(), simd_max_supported_level());

  if (old)
    setenv("AVR_SIMD", saved.c_str(), 1);
  else
    unsetenv("AVR_SIMD");
  simd_reinit_from_env();
  EXPECT_TRUE(simd_set_level(before));
}

TEST(SimdDispatch, SetLevelValidatesSupport) {
  const SimdLevel before = simd_level();
  for (SimdLevel lvl : supported_levels()) {
    EXPECT_TRUE(simd_set_level(lvl));
    EXPECT_EQ(simd_level(), lvl);
  }
  if (simd_max_supported_level() < SimdLevel::kAvx2) {
    EXPECT_FALSE(simd_set_level(SimdLevel::kAvx2));
    EXPECT_EQ(simd_level(), supported_levels().back());
  }
  EXPECT_TRUE(simd_set_level(before));
}

}  // namespace
}  // namespace avr
