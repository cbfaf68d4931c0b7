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

#include <algorithm>
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
#include "avr/compressed_block.hh"
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
  // int32 interpolation-delta overflow from floats. The NaN lane makes
  // choose_bias return 0, so +32768 and -32768 saturate to INT32_MAX and
  // INT32_MIN, and neighbouring summaries overflow on subtraction. The
  // plateaus reconstruct exactly, so a wrapped delta changes the outlier
  // set. Split by rows, 1D wins and the 1D lerp overflows; split by
  // columns, only 2D compresses and its column pass overflows.
  for (const bool by_rows : {true, false}) {
    FloatBlock b;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      const uint32_t pos = by_rows ? i / 16 : i % 16;
      b[i] = pos < 8 ? 32768.0f : -32768.0f;
    }
    b[0] = kNan;
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

/// The fused kernel's definition, composed per value from the two stages
/// it replaced: f32_scale_exponent, then the saturating conversion with
/// non-finite values to 0.
int32_t biased_convert_reference(float v, int8_t bias) {
  const float b = f32_scale_exponent(v, bias);
  return std::isfinite(b) ? Fixed32::from_float(b).raw() : 0;
}

/// Values, after biasing, at the conversion's edges: signed zeros,
/// denormals, NaN and ±Inf; scaled values at ±2^31 and ±2^23 and one step
/// either side; exact halves ((2k+1)·2^-17 scales to k + 0.5); the float
/// whose scaled value is just below 0.5, and the float just below 0.5.
std::vector<float> convert_edge_values() {
  std::vector<float> v = {0.0f, -0.0f, kDenormal, -kDenormal, kNan, -kNan, kInf, -kInf};
  for (const float m : {0x1p15f, 0x1p7f}) {
    for (const float x : {m, std::nextafter(m, 0.0f), std::nextafter(m, 2 * m)}) {
      v.push_back(x);
      v.push_back(-x);
    }
  }
  for (int k = 0; k < 8; ++k) {
    const float h = static_cast<float>(2 * k + 1) * 0x1p-17f;
    v.push_back(h);
    v.push_back(-h);
  }
  for (const float x : {std::nextafter(0x1p-17f, 0.0f), std::nextafter(0.5f, 0.0f)}) {
    v.push_back(x);
    v.push_back(-x);
  }
  return v;
}

/// A block that lands on the edge values once `bias` is applied: lanes
/// alternate between an edge value's pre-image under the bias (where the
/// exponent field allows one) and the edge value itself, which the bias
/// then moves, spilling the field out of range at the extreme biases.
FloatBlock convert_edge_block(int8_t bias) {
  const std::vector<float> edges = convert_edge_values();
  FloatBlock b;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
    const float x = edges[i % edges.size()];
    const int pre = static_cast<int>(f32_exponent(x)) - bias;
    const bool has_pre = f32_exponent(x) != 0 && f32_is_finite(x) && pre >= 1 && pre <= 254;
    b[i] = (i / edges.size()) % 2 == 0 && has_pre ? f32_scale_exponent(x, -bias) : x;
  }
  return b;
}

TEST(SimdKernels, Fixed32FromF32BiasedParity) {
  // Every bias from -128 to 127, over the adversarial corpora and a block
  // of conversion edges, at every level against the per-value composition
  // of biasing and conversion.
  std::vector<FloatBlock> corpora = float_corpora();
  uint32_t spilled = 0;
  for (int bias_i = -128; bias_i <= 127; ++bias_i) {
    const int8_t bias = static_cast<int8_t>(bias_i);
    corpora.push_back(convert_edge_block(bias));
    for (const FloatBlock& b : corpora) {
      RawBlock want;
      for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
        want[i] = biased_convert_reference(b[i], bias);
        const int e = static_cast<int>(f32_exponent(b[i]));
        spilled += e != 0 && (e + bias < 0 || e + bias > 255);
      }
      for_each_level([&](SimdLevel lvl) {
        RawBlock out{};
        simd::kernels().fixed32_from_f32_biased(b.data(), out.data(),
                                                kValuesPerBlock, bias);
        for (uint32_t i = 0; i < kValuesPerBlock; ++i)
          ASSERT_EQ(out[i], want[i]) << "value " << i << " (" << b[i] << "), bias "
                                     << bias_i << ", level " << simd_level_name(lvl);
      });
    }
    corpora.pop_back();
  }
  // The corpus holds exponent-spill lanes.
  EXPECT_GT(spilled, 1000u);
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
  FloatBlock image{};
};

ScanResult run_scan(const FloatBlock& orig, const RawBlock& recon, int8_t bias,
                    uint32_t limit, uint32_t max_outliers = kMaxBlockOutliers) {
  ScanResult r;
  Bitmap256 map;
  map.words().fill(~uint64_t{0});  // poison: the scan must zero it itself
  simd::ErrorScanState st;
  st.bitmap_words = map.words().data();
  st.outlier_bits = r.bits.data();
  st.image = r.image.data();
  st.max_outliers = max_outliers;
  r.ok = simd::kernels().error_scan_f32(orig.data(), recon.data(),
                                        kValuesPerBlock, bias, limit, &st);
  r.n_outliers = st.n_outliers;
  r.non_outliers = st.non_outliers;
  r.dm_sum = st.dm_sum;
  r.words = map.words();
  return r;
}

/// The decompressor's image of a scan's result: the unbiased
/// reconstruction, with the outliers' original bits overlaid per the
/// bitmap, in block order.
FloatBlock decompressed_image(const RawBlock& recon, int8_t bias,
                              const ScanResult& r) {
  FloatBlock img;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    img[i] = unbias_value(Fixed32::from_raw(recon[i]).to_float(), bias);
  uint32_t k = 0;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    if ((r.words[i / 64] >> (i % 64)) & 1) img[i] = bits_f32(r.bits[k++]);
  return img;
}

void expect_scan_parity(const FloatBlock& orig, const RawBlock& recon,
                        int8_t bias, uint32_t limit, const char* what,
                        uint32_t max_outliers = kMaxBlockOutliers) {
  ScanResult ref;
  for_each_level([&](SimdLevel lvl) {
    const ScanResult got = run_scan(orig, recon, bias, limit, max_outliers);
    if (lvl == SimdLevel::kScalar) {
      ref = got;
      // The scan's image is the decompressor's, bit for bit.
      if (ref.ok) {
        const FloatBlock want = decompressed_image(recon, bias, ref);
        EXPECT_EQ(std::memcmp(ref.image.data(), want.data(), sizeof(want)), 0)
            << what << ", scalar image";
      }
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
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      ASSERT_EQ(f32_bits(got.image[i]), f32_bits(ref.image[i]))
          << what << ", image value " << i << ", level " << simd_level_name(lvl);
  });
}

TEST(SimdKernels, ErrorScanParityOnPipelineBlocks) {
  // Realistic scans: run the actual compression stages 1-4 (at the scalar
  // level, so every level scans the same reconstruction) and scan the
  // original against the resulting Q16.16 image.
  const uint32_t limit = 1u << (kMantissaBits - 10);
  for (const FloatBlock& b : float_corpora()) {
    std::array<Fixed32, kValuesPerBlock> fixed, recon;
    int8_t bias = 0;
    {
      ScopedLevel pin(SimdLevel::kScalar);
      bias = choose_bias(b);
      fixed32_from_f32_batch(b, fixed, bias);
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

/// A dense-outlier scan case: a Q16.16 reconstruction plus an original
/// whose lanes are crafted against the scalar unbiased image of it.
struct DenseScanCase {
  RawBlock recon{};
  FloatBlock orig{};
  int8_t bias = 0;
};

/// Lane recipes for DenseScanCase: `spill` lanes get a raw whose exponent
/// leaves [0, 255] when unbiased (only meaningful for bias != 0); every
/// lane's original is then exact, a near miss, or an outlier of `ab`.
enum class Lane { kExact, kNear, kOutlier, kNan };

int32_t dense_raw(Xoshiro256& rng, int8_t bias, bool spill) {
  // Normal lanes keep the unbiased exponent in range; spill lanes push it
  // out (bias 120: tiny raws; bias -128: raws >= 2.0).
  int64_t mag = 0;
  if (bias > 0)
    mag = spill ? 1 + rng.below(16) : (2 << 16) + rng.below(1u << 29);
  else if (bias < 0)
    mag = spill ? (2 << 16) + rng.below(1u << 20) : 256 + rng.below(1u << 15);
  else
    mag = (1 << 16) + rng.below(1u << 29);
  return static_cast<int32_t>(rng.below(2) ? -mag : mag);
}

float dense_orig(Xoshiro256& rng, float ab, Lane lane, uint32_t limit) {
  const uint32_t b = f32_bits(ab);
  switch (lane) {
    case Lane::kExact: return ab;
    case Lane::kNear: return bits_f32(b ^ (1 + rng.below(limit / 2 - 1)));
    case Lane::kOutlier:
      // Mantissa MSB flip (dm = 2^22 >= limit) or a sign flip.
      return bits_f32(rng.below(2) ? b ^ (1u << 22) : b ^ 0x80000000u);
    case Lane::kNan: break;
  }
  return kNan;
}

/// Builds the case from per-lane recipes: raws first, then the scalar
/// unbiased image, then the originals against it.
DenseScanCase make_dense_case(Xoshiro256& rng, int8_t bias,
                              const std::array<Lane, kValuesPerBlock>& lanes,
                              const std::array<bool, kValuesPerBlock>& spill,
                              uint32_t limit) {
  DenseScanCase c;
  c.bias = bias;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    c.recon[i] = dense_raw(rng, bias, spill[i] && bias != 0);
  for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
    const float ab = unbias_value(Fixed32::from_raw(c.recon[i]).to_float(), bias);
    c.orig[i] = dense_orig(rng, ab, lanes[i], limit);
  }
  return c;
}

TEST(SimdKernels, ErrorScanDenseOutlierParity) {
  // Blocks with 0..8 outliers in every 8-lane group (all-8 groups included),
  // near misses, NaNs and, for bias != 0, unbias-spill lanes in the same
  // blocks: the vector kernel keeps outlier groups on its vector path and
  // re-runs only spill groups scalar, and must agree with the scalar scan.
  const uint32_t limit = 1u << (kMantissaBits - 10);
  Xoshiro256 rng(1818);
  uint32_t passed = 0, aborted = 0, full_groups = 0;
  for (uint32_t j = 0; j < 240; ++j) {
    const int8_t bias = (j % 3 == 0) ? 0 : (j % 3 == 1) ? 120 : -128;
    // Outlier cap per block: mostly within the 104 budget, every 8th over.
    const uint32_t cap = (j % 8 == 7) ? 200 : 40 + j % 65;
    std::array<Lane, kValuesPerBlock> lanes{};
    std::array<bool, kValuesPerBlock> spill{};
    uint32_t planted = 0;
    for (uint32_t g = 0; g < kValuesPerBlock / 8; ++g) {
      uint32_t k = (g + j) % 9;
      if (planted + k > cap) k = 0;
      planted += k;
      // k outlier lanes at random positions in the group.
      std::array<uint32_t, 8> pos{0, 1, 2, 3, 4, 5, 6, 7};
      for (uint32_t l = 7; l > 0; --l) std::swap(pos[l], pos[rng.below(l + 1)]);
      for (uint32_t l = 0; l < 8; ++l) {
        const uint32_t i = g * 8 + pos[l];
        lanes[i] = l < k ? (rng.below(16) == 0 ? Lane::kNan : Lane::kOutlier)
                         : (rng.below(2) ? Lane::kNear : Lane::kExact);
      }
      if (bias != 0 && rng.below(4) == 0) spill[g * 8 + rng.below(8)] = true;
    }
    const DenseScanCase c = make_dense_case(rng, bias, lanes, spill, limit);
    expect_scan_parity(c.orig, c.recon, c.bias, limit, "dense outliers");
    ScopedLevel pin(SimdLevel::kScalar);
    const ScanResult r = run_scan(c.orig, c.recon, c.bias, limit);
    if (!r.ok) {
      ++aborted;
      continue;
    }
    ++passed;
    for (uint64_t w : r.words)
      for (int s = 0; s < 64; s += 8) full_groups += ((w >> s) & 0xFF) == 0xFF;
  }
  // The corpus reaches both verdicts and holds all-outlier groups in
  // blocks that pass.
  EXPECT_GT(passed, 100u);
  EXPECT_GT(aborted, 20u);
  EXPECT_GT(full_groups, 20u);
}

TEST(SimdKernels, ErrorScanBudgetCrossedInsideOneGroup) {
  // The 104-outlier budget crossed (or exactly met) inside one
  // multi-outlier group, after `before` outliers in earlier groups: the
  // verdict must be the scalar one at every level. For bias != 0, spill
  // groups sit before the crossing group, so the count arrives through
  // both the vector and the scalar path.
  const uint32_t limit = 1u << (kMantissaBits - 10);
  struct Crossing {
    uint32_t before;
    uint32_t in_group;
  };
  const Crossing cases[] = {{100, 8}, {103, 2}, {104, 1}, {96, 8}, {102, 2},
                            {97, 7},  {104, 0}, {0, 8}};
  Xoshiro256 rng(104);
  for (int8_t bias : {int8_t{0}, int8_t{120}, int8_t{-128}}) {
    for (const Crossing& x : cases) {
      std::array<Lane, kValuesPerBlock> lanes{};
      std::array<bool, kValuesPerBlock> spill{};
      // `before` outliers packed into the leading groups, one lane of each
      // of the first groups left free for a spill lane.
      uint32_t placed = 0;
      uint32_t g = 0;
      for (; placed < x.before; ++g) {
        for (uint32_t l = 1; l < 8 && placed < x.before; ++l, ++placed)
          lanes[g * 8 + l] = Lane::kOutlier;
        if (bias != 0) spill[g * 8] = true;
      }
      const uint32_t crossing = g;  // the group where the budget is crossed
      ASSERT_LT(crossing, kValuesPerBlock / 8);
      for (uint32_t l = 0; l < x.in_group; ++l) lanes[crossing * 8 + l] = Lane::kOutlier;
      const DenseScanCase c = make_dense_case(rng, bias, lanes, spill, limit);
      const std::string what = "budget " + std::to_string(x.before) + " + " +
                               std::to_string(x.in_group) + ", bias " +
                               std::to_string(bias);
      expect_scan_parity(c.orig, c.recon, c.bias, limit, what.c_str());
      // The planted count decides the verdict (spill lanes are exact).
      ScopedLevel pin(SimdLevel::kScalar);
      const ScanResult r = run_scan(c.orig, c.recon, c.bias, limit);
      EXPECT_EQ(r.ok, x.before + x.in_group <= kMaxBlockOutliers) << what;
      if (r.ok) {
        EXPECT_EQ(r.n_outliers, x.before + x.in_group) << what;
      }
    }
  }
}

/// Lane recipes with a seeded random outlier count from 0 to 8 in every
/// group until `total` outliers are planted (the trace-block shape), plus
/// unbias-spill lanes in about a quarter of the groups when bias != 0.
void scattered_lanes(Xoshiro256& rng, int8_t bias, uint32_t total,
                     std::array<Lane, kValuesPerBlock>& lanes,
                     std::array<bool, kValuesPerBlock>& spill) {
  lanes.fill(Lane::kExact);
  spill.fill(false);
  uint32_t planted = 0;
  for (uint32_t g = 0; g < kValuesPerBlock / 8; ++g) {
    const uint32_t k = std::min<uint32_t>(rng.below(9), total - planted);
    planted += k;
    std::array<uint32_t, 8> pos{0, 1, 2, 3, 4, 5, 6, 7};
    for (uint32_t l = 7; l > 0; --l) std::swap(pos[l], pos[rng.below(l + 1)]);
    for (uint32_t l = 0; l < 8; ++l)
      lanes[g * 8 + pos[l]] =
          l < k ? (rng.below(16) == 0 ? Lane::kNan : Lane::kOutlier)
                : (rng.below(2) ? Lane::kNear : Lane::kExact);
    if (bias != 0 && rng.below(4) == 0) spill[g * 8 + rng.below(8)] = true;
  }
}

TEST(SimdKernels, ErrorScanScatteredParityAtEveryBudget) {
  // Every budget from 0 to 104 against blocks holding exactly the budget,
  // one more, or a random count below it, scattered over the groups: the
  // vector path, the one-at-a-time path near the budget and the abort
  // verdict all run against the scalar scan, and every passing scan's image
  // against the decompressor's (expect_scan_parity).
  const uint32_t limit = 1u << (kMantissaBits - 10);
  Xoshiro256 rng(33);
  for (uint32_t budget = 0; budget <= kMaxBlockOutliers; ++budget) {
    for (int8_t bias : {int8_t{0}, int8_t{120}, int8_t{-128}}) {
      const uint32_t below = static_cast<uint32_t>(rng.below(budget + 1));
      for (uint32_t total : {budget, budget + 1, below}) {
        std::array<Lane, kValuesPerBlock> lanes;
        std::array<bool, kValuesPerBlock> spill;
        scattered_lanes(rng, bias, total, lanes, spill);
        const uint32_t planted = static_cast<uint32_t>(
            std::count_if(lanes.begin(), lanes.end(), [](Lane l) {
              return l == Lane::kOutlier || l == Lane::kNan;
            }));
        const DenseScanCase c = make_dense_case(rng, bias, lanes, spill, limit);
        const std::string what = "budget " + std::to_string(budget) + ", " +
                                 std::to_string(planted) + " outliers, bias " +
                                 std::to_string(bias);
        expect_scan_parity(c.orig, c.recon, c.bias, limit, what.c_str(), budget);
        ScopedLevel pin(SimdLevel::kScalar);
        const ScanResult r = run_scan(c.orig, c.recon, c.bias, limit, budget);
        EXPECT_EQ(r.ok, planted <= budget) << what;
      }
    }
  }
}

TEST(SimdKernels, ErrorScanWritesNothingPastBudget) {
  // The scan may write outlier_bits[0, max_outliers) only: a sentinel
  // from max_outliers on must survive every budget at every level, on
  // blocks that pass and blocks that abort. Both for a bare array without
  // an image, and in place into an OutlierList's storage with the image
  // written, as compress() wires it.
  constexpr uint32_t kSentinel = 0xDEADBEEFu;
  const uint32_t limit = 1u << (kMantissaBits - 10);
  Xoshiro256 rng(404);
  for (uint32_t budget = 0; budget <= kMaxBlockOutliers; ++budget) {
    for (int8_t bias : {int8_t{0}, int8_t{120}, int8_t{-128}}) {
      std::array<Lane, kValuesPerBlock> lanes;
      std::array<bool, kValuesPerBlock> spill;
      scattered_lanes(rng, bias, budget + rng.below(2), lanes, spill);
      const DenseScanCase c = make_dense_case(rng, bias, lanes, spill, limit);
      for_each_level([&](SimdLevel lvl) {
        Bitmap256 map;
        std::array<uint32_t, kValuesPerBlock> bits;
        bits.fill(kSentinel);
        simd::ErrorScanState st;
        st.bitmap_words = map.words().data();
        st.outlier_bits = bits.data();
        st.max_outliers = budget;
        simd::kernels().error_scan_f32(c.orig.data(), c.recon.data(),
                                       kValuesPerBlock, c.bias, limit, &st);
        for (uint32_t k = budget; k < bits.size(); ++k)
          ASSERT_EQ(bits[k], kSentinel) << "budget " << budget << ", bias "
                                        << int{bias} << ", entry " << k
                                        << ", level " << simd_level_name(lvl);

        OutlierList list;
        list.assign(kMaxBlockOutliers, kSentinel);
        FloatBlock image{};
        st = simd::ErrorScanState{};
        st.bitmap_words = map.words().data();
        st.outlier_bits = list.storage();
        st.image = image.data();
        st.max_outliers = budget;
        simd::kernels().error_scan_f32(c.orig.data(), c.recon.data(),
                                       kValuesPerBlock, c.bias, limit, &st);
        for (uint32_t k = budget; k < kMaxBlockOutliers; ++k)
          ASSERT_EQ(list[k], kSentinel) << "in place, budget " << budget
                                        << ", bias " << int{bias} << ", entry "
                                        << k << ", level " << simd_level_name(lvl);
      });
    }
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
