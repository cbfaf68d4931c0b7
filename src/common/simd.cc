// SIMD dispatch core + the scalar reference kernels.
//
// Everything in this file is compiled for baseline x86-64 (no -m flags):
// the scalar kernels double as the slow paths the AVX2 TU falls back to,
// so they must be callable from any CPU the binary runs on. The AVX2 table
// lives in simd_avx2.cc, referenced only when the build compiles it
// (AVR_SIMD_DISPATCH, which CMake sets on every x86-64 target).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/fixed_point.hh"
#include "common/fp_bits.hh"
#include "common/simd_impl.hh"

namespace avr {
namespace {

std::atomic<const simd::KernelTable*> g_table{nullptr};
std::atomic<SimdLevel> g_level{SimdLevel::kScalar};

const simd::KernelTable* table_for(SimdLevel lvl) {
#if defined(AVR_SIMD_DISPATCH)
  if (lvl == SimdLevel::kAvx2) return &simd::detail::kAvx2Table;
#endif
  (void)lvl;
  return &simd::detail::kScalarTable;
}

void activate(SimdLevel lvl) {
  g_level.store(lvl, std::memory_order_relaxed);
  g_table.store(table_for(lvl), std::memory_order_release);
}

/// One-time startup selection (thread-safe via the static's guard; any
/// thread racing the first datapath call initializes or waits here).
SimdLevel init_level() {
  static const bool once = [] {
    activate(simd_choose_level(std::getenv("AVR_SIMD")));
    return true;
  }();
  (void)once;
  return g_level.load(std::memory_order_relaxed);
}

}  // namespace

SimdLevel simd_max_supported_level() {
#if defined(AVR_SIMD_DISPATCH)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

const char* simd_level_name(SimdLevel lvl) {
  return lvl == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

bool simd_parse_level(std::string_view name, SimdLevel* out) {
  for (SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (name == simd_level_name(lvl)) {
      *out = lvl;
      return true;
    }
  }
  return false;
}

SimdLevel simd_choose_level(const char* env_value) {
  const SimdLevel max = simd_max_supported_level();
  if (env_value == nullptr || *env_value == '\0') return max;
  SimdLevel want;
  if (!simd_parse_level(env_value, &want)) {
    std::fprintf(stderr,
                 "[simd] unknown AVR_SIMD value '%s' (want scalar|avx2); "
                 "using %s\n",
                 env_value, simd_level_name(max));
    return max;
  }
  if (want > max) {
    std::fprintf(stderr, "[simd] AVR_SIMD=%s unsupported here; clamping to %s\n",
                 env_value, simd_level_name(max));
    return max;
  }
  return want;
}

SimdLevel simd_level() { return init_level(); }

bool simd_set_level(SimdLevel lvl) {
  init_level();
  if (lvl > simd_max_supported_level()) return false;
  activate(lvl);
  return true;
}

SimdLevel simd_reinit_from_env() {
  const SimdLevel lvl = simd_choose_level(std::getenv("AVR_SIMD"));
  activate(lvl);
  return lvl;
}

namespace simd {

const KernelTable& kernels() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    init_level();
    t = g_table.load(std::memory_order_acquire);
  }
  return *t;
}

namespace detail {

// ---- scalar reference kernels ----------------------------------------------
// Exact transcriptions of the PR-4 scalar loops these kernels replaced
// (fixed_point.hh, bias.cc, downsample.cc, compressor.cc): the definition
// of "bit-identical" for every other dispatch level.

void fixed32_from_f32_biased_scalar(const float* in, int32_t* out, size_t n,
                                    int8_t bias) {
  for (size_t i = 0; i < n; ++i) {
    const float v = f32_scale_exponent(in[i], bias);
    const double scaled = static_cast<double>(v) * kFixedOne;
    if (scaled > kConvertLo && scaled < kConvertHi) {
      out[i] = static_cast<int32_t>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5);
    } else {
      out[i] = std::isfinite(v) ? Fixed32::from_float(v).raw() : 0;
    }
  }
}

void exponent_minmax_scalar(const float* in, size_t n, int* e_max, int* e_min) {
  int mx = 0;
  int mn = 256;
  for (size_t i = 0; i < n; ++i) {
    const int e = static_cast<int>(f32_exponent(in[i]));
    mx = std::max(mx, e);
    mn = std::min(mn, e == 0 ? 256 : e);
  }
  *e_max = mx;
  *e_min = mn;
}

void truncate_low_bits_scalar(float* vals, size_t n, unsigned bits) {
  const uint32_t keep = ~((1u << bits) - 1u);
  for (size_t i = 0; i < n; ++i) {
    if (f32_is_finite(vals[i])) vals[i] = bits_f32(f32_bits(vals[i]) & keep);
  }
}

void summarize_1d_scalar(const int32_t* in, int32_t* out) {
  for (uint32_t k = 0; k < 16; ++k) {
    int64_t acc = 0;
    for (uint32_t i = 0; i < 16; ++i) acc += in[k * 16 + i];
    const int64_t q = acc >= 0 ? (acc + 8) / 16 : -((-acc + 8) / 16);
    out[k] = static_cast<int32_t>(q);
  }
}

void summarize_2d_scalar(const int32_t* in, int32_t* out) {
  for (uint32_t tr = 0; tr < 4; ++tr) {
    for (uint32_t tc = 0; tc < 4; ++tc) {
      int64_t acc = 0;
      for (uint32_t r = 0; r < 4; ++r) {
        for (uint32_t c = 0; c < 4; ++c) acc += in[(tr * 4 + r) * 16 + tc * 4 + c];
      }
      const int64_t q = acc >= 0 ? (acc + 8) / 16 : -((-acc + 8) / 16);
      out[tr * 4 + tc] = static_cast<int32_t>(q);
    }
  }
}

void lerp_gather_scalar(const int32_t* avg, const uint8_t* left,
                        const uint8_t* right, const int8_t* w, int log2_den,
                        int32_t* out, size_t n) {
  const int64_t den = int64_t{1} << log2_den;
  for (size_t i = 0; i < n; ++i) {
    const int32_t a = avg[left[i]];
    const int64_t d = static_cast<int64_t>(avg[right[i]]) - a;
    out[i] = static_cast<int32_t>(a + (d * w[i]) / den);
  }
}

void lerp_rows_scalar(const int32_t* top, const int32_t* bot, int w,
                      int log2_den, int32_t* out, size_t n) {
  const int64_t den = int64_t{1} << log2_den;
  for (size_t i = 0; i < n; ++i) {
    const int32_t a = top[i];
    const int64_t d = static_cast<int64_t>(bot[i]) - a;
    out[i] = static_cast<int32_t>(a + (d * w) / den);
  }
}

void reconstruct_2d_scalar(const int32_t* avg, const uint8_t* left,
                           const uint8_t* right, const int8_t* w, int32_t* out) {
  // Same hoisted shape as downsample.cc's reconstruct_2d: the 4x16 column
  // pass, then one vertical lerp per value.
  int32_t col[4][16];
  for (uint32_t ar = 0; ar < 4; ++ar)
    lerp_gather_scalar(avg + ar * 4, left, right, w, 3, col[ar], 16);
  for (uint32_t r = 0; r < 16; ++r)
    lerp_rows_scalar(col[left[r]], col[right[r]], w[r], 3, out + r * 16, 16);
}

namespace {

// Reflected Castagnoli polynomial; the byte-at-a-time table is generated at
// compile time. The chaining convention (reflected state, no pre/post
// conditioning here) matches the x86 crc32 instruction exactly, so the
// hardware kernels are drop-in bit-identical.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTable {
  uint32_t t[256];
};

constexpr Crc32cTable make_crc32c_table() {
  Crc32cTable tb{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kCrc32cPoly : c >> 1;
    tb.t[i] = c;
  }
  return tb;
}

constexpr Crc32cTable kCrc32cTable = make_crc32c_table();

}  // namespace

uint32_t crc32c_update_scalar(uint32_t crc, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i)
    crc = (crc >> 8) ^ kCrc32cTable.t[(crc ^ data[i]) & 0xFF];
  return crc;
}

bool error_scan_range_scalar(const float* original, const int32_t* recon_raw,
                             int8_t bias, uint32_t limit, size_t begin,
                             size_t end, ErrorScanState* st) {
  for (size_t i = begin; i < end; ++i) {
    const uint32_t ob = std::bit_cast<uint32_t>(original[i]);
    const float rf = static_cast<float>(recon_raw[i]) / Fixed32::kOne;
    const uint32_t ab =
        std::bit_cast<uint32_t>(bias == 0 ? rf : f32_scale_exponent(rf, -bias));
    if (ob == ab) {  // exact reconstruction: non-outlier, zero error
      ++st->non_outliers;
      if (st->image) st->image[i] = std::bit_cast<float>(ob);
      continue;
    }
    const bool nonfinite = ((ob >> kMantissaBits) & kExponentMask) == kExponentMask;
    bool outlier;
    int32_t dm = 0;
    if (nonfinite || ((ob ^ ab) >> kMantissaBits) != 0) {
      outlier = true;
    } else {
      dm = static_cast<int32_t>(ob & kMantissaMask) -
           static_cast<int32_t>(ab & kMantissaMask);
      if (dm < 0) dm = -dm;
      outlier = static_cast<uint32_t>(dm) >= limit;
    }
    if (outlier) {
      if (st->n_outliers == st->max_outliers) return false;  // budget blown
      st->bitmap_words[i >> 6] |= uint64_t{1} << (i & 63);
      st->outlier_bits[st->n_outliers++] = ob;
    } else {
      st->dm_sum += dm;
      ++st->non_outliers;
    }
    if (st->image) st->image[i] = std::bit_cast<float>(outlier ? ob : ab);
  }
  return true;
}

namespace {

bool error_scan_f32_scalar(const float* original, const int32_t* recon_raw,
                           size_t n, int8_t bias, uint32_t limit,
                           ErrorScanState* st) {
  std::memset(st->bitmap_words, 0, ((n + 63) / 64) * sizeof(uint64_t));
  return error_scan_range_scalar(original, recon_raw, bias, limit, 0, n, st);
}

}  // namespace

const KernelTable kScalarTable = {
    fixed32_from_f32_biased_scalar, exponent_minmax_scalar,
    truncate_low_bits_scalar,       summarize_1d_scalar,
    summarize_2d_scalar,            lerp_gather_scalar,
    reconstruct_2d_scalar,          error_scan_f32_scalar,
    crc32c_update_scalar,
};

}  // namespace detail
}  // namespace simd

// ---- dispatched definitions of the header-declared batch entry points ------

void fixed32_from_f32_batch(std::span<const float> in, std::span<Fixed32> out,
                            int8_t bias) {
  static_assert(sizeof(Fixed32) == sizeof(int32_t) &&
                alignof(Fixed32) == alignof(int32_t));
  simd::kernels().fixed32_from_f32_biased(
      in.data(), reinterpret_cast<int32_t*>(out.data()), in.size(), bias);
}

void f32_truncate_low_bits_batch(std::span<float> vals, unsigned n) {
  simd::kernels().truncate_low_bits(vals.data(), vals.size(), n);
}

}  // namespace avr
