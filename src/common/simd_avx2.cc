// AVX2 (8-lane) kernel implementations. Compiled with -mavx2 (per-file; see
// CMakeLists), reached only through the dispatch table, and bit-identical to
// the scalar reference: every fast path proves its lanes round exactly like
// the scalar code, and any lane outside the proof's preconditions re-runs
// the baseline-compiled scalar helper. Per the simd.hh contract this TU
// includes nothing that could emit an externally visible inline symbol.
#include <immintrin.h>

#include "common/simd_impl.hh"

namespace avr::simd::detail {
namespace {

inline int mask32(__m256i m) {
  return _mm256_movemask_ps(_mm256_castsi256_ps(m));
}

inline int64_t hsum_epi64(__m256i v) {
  const __m128i s =
      _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

inline int64_t hsum_epi32(__m256i v) {
  __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Round-half-away-from-zero average of 16 values summed in `acc`
/// (downsample.cc's rounding formula, verbatim).
inline int64_t round_avg16(int64_t acc) {
  return acc >= 0 ? (acc + 8) / 16 : -((-acc + 8) / 16);
}

/// Adds `delta` (!= 0) to the exponent field of each float-bits lane of `b`:
/// zero-field lanes pass through; `*bad` flags lanes whose new field leaves
/// [0, 255] (the scalar spill encoding differs there — callers re-run those
/// lanes through the scalar helper). For in-range lanes, adding delta<<23 to
/// the whole word IS the scalar field replacement: the 8-bit field absorbs
/// the add with no carry into the sign bit and no borrow from it.
inline __m256i exp_add_guarded(__m256i b, int delta, int* bad) {
  const __m256i ff = _mm256_set1_epi32(0xFF);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i e = _mm256_and_si256(_mm256_srli_epi32(b, 23), ff);
  const __m256i zero_e = _mm256_cmpeq_epi32(e, zero);
  const __m256i esum = _mm256_add_epi32(e, _mm256_set1_epi32(delta));
  const __m256i oor = _mm256_or_si256(_mm256_cmpgt_epi32(zero, esum),
                                      _mm256_cmpgt_epi32(esum, ff));
  *bad = mask32(_mm256_andnot_si256(zero_e, oor));
  const __m256i biased = _mm256_add_epi32(
      b, _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(delta) << 23)));
  return _mm256_blendv_epi8(biased, b, zero_e);
}

/// q = trunc((d * w) / 2^log2_den) per lane (the Fixed32::lerp quotient),
/// exact for any int32 d and 0 <= w < 2^log2_den: |d|*w runs in 64-bit via
/// the even/odd epu32 multiplies (abs_epi32(INT32_MIN) reads as 2^31
/// unsigned, which is correct here), the shift keeps the quotient < 2^31,
/// and the sign is restored by two's-complement negation — matching C++
/// truncating division of the signed product.
inline __m256i lerp_q(__m256i d, __m256i vw, __m128i shift) {
  const __m256i ad = _mm256_abs_epi32(d);
  const __m256i pe = _mm256_srl_epi64(_mm256_mul_epu32(ad, vw), shift);
  const __m256i po = _mm256_srl_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(ad, 32), _mm256_srli_epi64(vw, 32)),
      shift);
  const __m256i q = _mm256_blend_epi32(pe, _mm256_slli_epi64(po, 32), 0xAA);
  const __m256i sgn = _mm256_srai_epi32(d, 31);
  return _mm256_sub_epi32(_mm256_xor_si256(q, sgn), sgn);
}

/// int32 overflow lanes of d = b - a (sign bit of the return): the scalar
/// lerp computes d in 64-bit, so any overflow means the whole call must
/// re-run scalar.
inline __m256i sub_overflow(__m256i a, __m256i b, __m256i d) {
  return _mm256_and_si256(_mm256_xor_si256(b, a), _mm256_xor_si256(b, d));
}

void fixed32_from_f32_biased_avx2(const float* in, int32_t* out, size_t n,
                                  int8_t bias) {
  const __m256d lo = _mm256_set1_pd(kConvertLo);
  const __m256d hi = _mm256_set1_pd(kConvertHi);
  const __m256d one = _mm256_set1_pd(kFixedOne);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const int delta = bias;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    int bad = 0;
    if (delta != 0) b = exp_add_guarded(b, delta, &bad);
    const __m256 v = _mm256_castsi256_ps(b);
    const __m256d s0 = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), one);
    const __m256d s1 = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), one);
    // Round half away from zero: add copysign(0.5, s), truncate. (For
    // s == -0.0 the scalar adds +0.5 and this adds -0.5; both truncate to
    // 0.) The scaled value and the +/-0.5 add are exact, as in from_float.
    const __m256d r0 = _mm256_add_pd(s0, _mm256_or_pd(half, _mm256_and_pd(s0, sign)));
    const __m256d r1 = _mm256_add_pd(s1, _mm256_or_pd(half, _mm256_and_pd(s1, sign)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm256_cvttpd_epi32(r0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     _mm256_cvttpd_epi32(r1));
    // Ordered in-range compares: NaN lanes fail into the slow path exactly
    // like the scalar range test; out-of-range lanes (saturate / Inf) too,
    // and so do the lanes whose biased exponent spilled.
    const int ok =
        _mm256_movemask_pd(_mm256_and_pd(_mm256_cmp_pd(s0, lo, _CMP_GT_OQ),
                                         _mm256_cmp_pd(s0, hi, _CMP_LT_OQ))) |
        (_mm256_movemask_pd(_mm256_and_pd(_mm256_cmp_pd(s1, lo, _CMP_GT_OQ),
                                          _mm256_cmp_pd(s1, hi, _CMP_LT_OQ)))
         << 4);
    const int redo = (ok ^ 0xFF) | bad;
    if (redo != 0) {
      for (int l = 0; l < 8; ++l) {
        if ((redo >> l) & 1)
          fixed32_from_f32_biased_scalar(in + i + l, out + i + l, 1, bias);
      }
    }
  }
  if (i < n) fixed32_from_f32_biased_scalar(in + i, out + i, n - i, bias);
}

void exponent_minmax_avx2(const float* in, size_t n, int* e_max, int* e_min) {
  const __m256i ff = _mm256_set1_epi32(0xFF);
  const __m256i big = _mm256_set1_epi32(256);
  const __m256i zero = _mm256_setzero_si256();
  __m256i vmax = zero;
  __m256i vmin = big;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i e = _mm256_and_si256(_mm256_srli_epi32(b, 23), ff);
    vmax = _mm256_max_epi32(vmax, e);
    vmin = _mm256_min_epi32(
        vmin, _mm256_blendv_epi8(e, big, _mm256_cmpeq_epi32(e, zero)));
  }
  __m128i mx =
      _mm_max_epi32(_mm256_castsi256_si128(vmax), _mm256_extracti128_si256(vmax, 1));
  mx = _mm_max_epi32(mx, _mm_shuffle_epi32(mx, _MM_SHUFFLE(1, 0, 3, 2)));
  mx = _mm_max_epi32(mx, _mm_shuffle_epi32(mx, _MM_SHUFFLE(2, 3, 0, 1)));
  __m128i mn =
      _mm_min_epi32(_mm256_castsi256_si128(vmin), _mm256_extracti128_si256(vmin, 1));
  mn = _mm_min_epi32(mn, _mm_shuffle_epi32(mn, _MM_SHUFFLE(1, 0, 3, 2)));
  mn = _mm_min_epi32(mn, _mm_shuffle_epi32(mn, _MM_SHUFFLE(2, 3, 0, 1)));
  int rmax = _mm_cvtsi128_si32(mx);
  int rmin = _mm_cvtsi128_si32(mn);
  if (i < n) {
    int tmx = 0;
    int tmn = 256;
    exponent_minmax_scalar(in + i, n - i, &tmx, &tmn);
    rmax = rmax > tmx ? rmax : tmx;
    rmin = rmin < tmn ? rmin : tmn;
  }
  *e_max = rmax;
  *e_min = rmin;
}

void truncate_low_bits_avx2(float* vals, size_t n, unsigned bits) {
  const __m256i keep = _mm256_set1_epi32(static_cast<int>(~((1u << bits) - 1u)));
  const __m256i ff = _mm256_set1_epi32(0xFF);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i nonfin =
        _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srli_epi32(b, 23), ff), ff);
    const __m256i res = _mm256_blendv_epi8(_mm256_and_si256(b, keep), b, nonfin);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + i), res);
  }
  if (i < n) truncate_low_bits_scalar(vals + i, n - i, bits);
}

void summarize_1d_avx2(const int32_t* in, int32_t* out) {
  for (int k = 0; k < 16; ++k) {
    const int32_t* p = in + k * 16;
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8));
    const __m256i s = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(a)),
                         _mm256_cvtepi32_epi64(_mm256_extracti128_si256(a, 1))),
        _mm256_add_epi64(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(b)),
                         _mm256_cvtepi32_epi64(_mm256_extracti128_si256(b, 1))));
    out[k] = static_cast<int32_t>(round_avg16(hsum_epi64(s)));
  }
}

void summarize_2d_avx2(const int32_t* in, int32_t* out) {
  for (int tr = 0; tr < 4; ++tr) {
    __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (int r = 0; r < 4; ++r) {
      const int32_t* row = in + (tr * 4 + r) * 16;
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 8));
      acc[0] = _mm256_add_epi64(
          acc[0], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(a)));
      acc[1] = _mm256_add_epi64(
          acc[1], _mm256_cvtepi32_epi64(_mm256_extracti128_si256(a, 1)));
      acc[2] = _mm256_add_epi64(
          acc[2], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(b)));
      acc[3] = _mm256_add_epi64(
          acc[3], _mm256_cvtepi32_epi64(_mm256_extracti128_si256(b, 1)));
    }
    for (int tc = 0; tc < 4; ++tc)
      out[tr * 4 + tc] = static_cast<int32_t>(round_avg16(hsum_epi64(acc[tc])));
  }
}

/// 8 table lookups from a 16-entry int32 table held in two registers: two
/// cross-lane permutes (low/high half of the table) blended on index bit 3.
/// The hardware vpgatherdd is microcoded (and Downfall-mitigated) on common
/// parts, an order of magnitude slower than this for a table this small —
/// the lerp_gather contract guarantees avg holds 16 readable entries.
inline __m256i lut16(__m256i lo, __m256i hi, __m256i idx) {
  const __m256i a = _mm256_permutevar8x32_epi32(lo, idx);
  const __m256i b = _mm256_permutevar8x32_epi32(hi, idx);
  return _mm256_blendv_epi8(a, b,
                            _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(7)));
}

void lerp_gather_avx2(const int32_t* avg, const uint8_t* left,
                      const uint8_t* right, const int8_t* w, int log2_den,
                      int32_t* out, size_t n) {
  const __m128i shift = _mm_cvtsi32_si128(log2_den);
  const __m256i tlo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(avg));
  const __m256i thi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(avg + 8));
  __m256i ov = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i il = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(left + i)));
    const __m256i ir = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(right + i)));
    const __m256i vw = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + i)));
    const __m256i a = lut16(tlo, thi, il);
    const __m256i b = lut16(tlo, thi, ir);
    const __m256i d = _mm256_sub_epi32(b, a);
    ov = _mm256_or_si256(ov, sub_overflow(a, b, d));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(a, lerp_q(d, vw, shift)));
  }
  if (i < n)
    lerp_gather_scalar(avg, left + i, right + i, w + i, log2_den, out + i, n - i);
  // Any int32 delta overflow (a bias-0 float block, e.g. one with a NaN
  // lane, whose neighbouring summaries saturate to INT32_MAX and
  // INT32_MIN): the scalar lerp works in 64-bit there, so redo the whole
  // call scalar.
  if (mask32(ov)) lerp_gather_scalar(avg, left, right, w, log2_den, out, n);
}

void reconstruct_2d_avx2(const int32_t* avg, const uint8_t* left,
                         const uint8_t* right, const int8_t* w, int32_t* out) {
  // Same hoisted shape as the scalar kernel: 4x16 column pass, then the
  // vertical lerps. Each average row is 4 values, replicated across both
  // register halves so the 0..3 axis-table indices select via one permute.
  // Delta overflow anywhere (neighbouring summaries saturated to INT32_MAX
  // and INT32_MIN, as in a bias-0 float block) redoes the whole block
  // scalar at the end, like the scalar kernel's 64-bit math.
  const __m128i shift = _mm_cvtsi32_si128(3);
  __m256i ov = _mm256_setzero_si256();
  alignas(32) int32_t col[4][16];
  for (int ar = 0; ar < 4; ++ar) {
    const __m256i row = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(avg + ar * 4)));
    for (int c = 0; c < 16; c += 8) {
      const __m256i il = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(left + c)));
      const __m256i ir = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(right + c)));
      const __m256i vw = _mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + c)));
      const __m256i a = _mm256_permutevar8x32_epi32(row, il);
      const __m256i b = _mm256_permutevar8x32_epi32(row, ir);
      const __m256i d = _mm256_sub_epi32(b, a);
      ov = _mm256_or_si256(ov, sub_overflow(a, b, d));
      _mm256_store_si256(reinterpret_cast<__m256i*>(col[ar] + c),
                         _mm256_add_epi32(a, lerp_q(d, vw, shift)));
    }
  }
  for (int r = 0; r < 16; ++r) {
    const int32_t* top = col[left[r]];
    const int32_t* bot = col[right[r]];
    const __m256i vw = _mm256_set1_epi32(w[r]);
    for (int c = 0; c < 16; c += 8) {
      const __m256i a = _mm256_load_si256(reinterpret_cast<const __m256i*>(top + c));
      const __m256i b = _mm256_load_si256(reinterpret_cast<const __m256i*>(bot + c));
      const __m256i d = _mm256_sub_epi32(b, a);
      ov = _mm256_or_si256(ov, sub_overflow(a, b, d));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * 16 + c),
                          _mm256_add_epi32(a, lerp_q(d, vw, shift)));
    }
  }
  if (mask32(ov)) reconstruct_2d_scalar(avg, left, right, w, out);
}

/// Outlier compaction table: entry m packs the lane indices of m's set
/// bits, lowest first, one per nibble (1 KB). Shifting a broadcast entry
/// right by 4*j puts the j-th index in lane j's low bits, which is all
/// _mm256_permutevar8x32_epi32 reads.
struct CompactTable {
  uint32_t idx[256];
};

constexpr CompactTable make_compact_table() {
  CompactTable t{};
  for (uint32_t m = 0; m < 256; ++m) {
    uint32_t packed = 0, k = 0;
    for (uint32_t l = 0; l < 8; ++l)
      if ((m >> l) & 1) packed |= l << (4 * k++);
    t.idx[m] = packed;
  }
  return t;
}

constexpr CompactTable kCompactTable = make_compact_table();

bool error_scan_f32_avx2(const float* original, const int32_t* recon_raw,
                         size_t n, int8_t bias, uint32_t limit,
                         ErrorScanState* st) {
  uint64_t* const words = st->bitmap_words;
  uint32_t* const out = st->outlier_bits;
  float* const image = st->image;
  const uint32_t max_outliers = st->max_outliers;
  uint32_t n_out = st->n_outliers;
  for (size_t k = 0; k < (n + 63) / 64; ++k) words[k] = 0;
  const __m256 scale = _mm256_set1_ps(kFixedOneInv);
  const __m256i ff = _mm256_set1_epi32(0xFF);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i mant = _mm256_set1_epi32(static_cast<int>(kF32MantissaMask));
  const __m256i limm1 = _mm256_set1_epi32(static_cast<int>(limit) - 1);
  const __m256i nibbles = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
  const int delta = -static_cast<int>(bias);
  __m256i dmacc = zero;
  int64_t dm_sum = 0;
  uint32_t fast_lanes = 0;
  int groups_since_flush = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i ob =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(original + i));
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(recon_raw + i));
    __m256i ab = _mm256_castps_si256(_mm256_mul_ps(_mm256_cvtepi32_ps(raw), scale));
    int bad = 0;
    if (delta != 0) ab = exp_add_guarded(ab, delta, &bad);
    const __m256i eq = _mm256_cmpeq_epi32(ob, ab);
    const __m256i nonfin = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_srli_epi32(ob, 23), ff), ff);
    const __m256i hieq = _mm256_cmpeq_epi32(
        _mm256_srli_epi32(_mm256_xor_si256(ob, ab), 23), zero);
    const __m256i dm = _mm256_abs_epi32(_mm256_sub_epi32(
        _mm256_and_si256(ob, mant), _mm256_and_si256(ab, mant)));
    const __m256i outl = _mm256_andnot_si256(
        eq, _mm256_or_si256(_mm256_or_si256(nonfin, _mm256_cmpgt_epi32(dm, limm1)),
                            _mm256_xor_si256(hieq, ones)));
    if (bad) {
      // An unbias-spill lane: its vector image is wrong, so the whole group
      // re-runs scalar, preserving outlier order and the budget verdict.
      st->n_outliers = n_out;
      if (!error_scan_range_scalar(original, recon_raw, bias, limit, i, i + 8, st))
        return false;
      n_out = st->n_outliers;
      continue;
    }
    // The decompressed image: an outlier lane keeps its original bits.
    if (image)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(image + i),
                          _mm256_blendv_epi8(ab, ob, outl));
    // Outliers stay on the vector path. The verdict is the scalar one (the
    // budget is exceeded iff the running count passes it); an aborted scan's
    // partial state is discarded by contract. Images are appended in lane
    // order, which is block order.
    const int om = mask32(outl);
    const uint32_t k = static_cast<uint32_t>(__builtin_popcount(om));
    if (n_out + k > max_outliers) return false;
    words[i >> 6] |= uint64_t(static_cast<uint32_t>(om)) << (i & 63);
    if (n_out + 8 <= max_outliers) {
      // Branch-free: the group's outliers are permuted to the front of one
      // 8-lane store, whatever their count. The lanes past k land below
      // max_outliers, past the new count, where the buffer is unspecified.
      const __m256i idx =
          _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(kCompactTable.idx[om])),
                            nibbles);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n_out),
                          _mm256_permutevar8x32_epi32(ob, idx));
      n_out += k;
    } else {
      // Within 8 of the budget: one image at a time, so nothing is written
      // at or past max_outliers.
      alignas(32) uint32_t img[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(img), ob);
      for (int m = om; m != 0; m &= m - 1) out[n_out++] = img[__builtin_ctz(m)];
    }
    fast_lanes += 8 - k;
    dmacc = _mm256_add_epi32(dmacc, _mm256_andnot_si256(_mm256_or_si256(outl, eq), dm));
    // Lane bound: 32 adds of < 2^23 keep each lane < 2^28 and the 8-lane
    // horizontal sum < 2^31.
    if (++groups_since_flush == 32) {
      dm_sum += hsum_epi32(dmacc);
      dmacc = zero;
      groups_since_flush = 0;
    }
  }
  dm_sum += hsum_epi32(dmacc);
  st->n_outliers = n_out;
  st->dm_sum += dm_sum;
  st->non_outliers += fast_lanes;
  if (i < n)
    return error_scan_range_scalar(original, recon_raw, bias, limit, i, n, st);
  return true;
}

// -mavx2 implies SSE4.2, so the AVX2 level uses the hardware crc32
// instruction (there is no wider CRC datapath to exploit; carry-less
// multiply folding would need PCLMUL and buys nothing at record sizes).
uint32_t crc32c_update_avx2(uint32_t crc, const uint8_t* data, size_t n) {
  size_t i = 0;
  uint64_t c = crc;
  for (; i + 8 <= n; i += 8) {
    uint64_t v;
    __builtin_memcpy(&v, data + i, 8);
    c = _mm_crc32_u64(c, v);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; i < n; ++i) c32 = _mm_crc32_u8(c32, data[i]);
  return c32;
}

}  // namespace

const KernelTable kAvx2Table = {
    fixed32_from_f32_biased_avx2, exponent_minmax_avx2,
    truncate_low_bits_avx2,       summarize_1d_avx2,
    summarize_2d_avx2,            lerp_gather_avx2,
    reconstruct_2d_avx2,          error_scan_f32_avx2,
    crc32c_update_avx2,
};

}  // namespace avr::simd::detail
