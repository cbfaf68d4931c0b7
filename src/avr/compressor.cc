#include "avr/compressor.hh"

#include <bit>
#include <cmath>
#include <cstring>

#include "avr/bias.hh"
#include "avr/downsample.hh"
#include "avr/method.hh"
#include "common/fp_bits.hh"
#include "common/profile.hh"
#include "common/simd.hh"
#include "lossless/bdi.hh"

namespace avr {

std::span<const MethodVariant> method_variants() {
  // Selection-preference order: 2D first, so on ties it wins, matching the
  // hardware's preference for the variant that captures spatial locality.
  static constexpr MethodVariant kMethodVariants[] = {
      {Method::kDownsample2D, &AvrConfig::enable_2d, downsample::compress_2d,
       downsample::reconstruct_2d},
      {Method::kDownsample1D, &AvrConfig::enable_1d, downsample::compress_1d,
       downsample::reconstruct_1d},
  };
  return kMethodVariants;
}

const MethodVariant& variant_for(Method m) {
  const std::span<const MethodVariant> variants = method_variants();
  for (const MethodVariant& v : variants)
    if (v.method == m) return v;
  return variants.back();  // 1D row: the legacy default interpolation
}

bool Compressor::value_is_outlier(float original, float approx) const {
  const uint32_t n = cfg_.t1_mantissa_msbit;
  if (f32_bits(original) == f32_bits(approx)) return false;
  if (!f32_is_finite(original)) return true;  // NaN/Inf always stored exactly
  if (f32_sign(original) != f32_sign(approx)) return true;
  if (f32_exponent(original) != f32_exponent(approx)) return true;
  const int32_t dm = static_cast<int32_t>(f32_mantissa(original)) -
                     static_cast<int32_t>(f32_mantissa(approx));
  const uint32_t limit = 1u << (kMantissaBits - n);
  return static_cast<uint32_t>(dm < 0 ? -dm : dm) >= limit;
}

bool Compressor::try_method(const MethodVariant& variant,
                            std::span<const float, kValuesPerBlock> original,
                            int8_t bias, DType dtype, uint32_t max_outliers,
                            CompressorScratch& scratch) const {
  CompressionAttempt& att = scratch.candidate;
  att.block.method = variant.method;
  att.block.bias = bias;
  att.block.dtype = dtype;
  att.block.outlier_map.reset();
  att.block.outliers.clear();

  // Stage 3: summarize (the shared fixed-point image feeds every variant).
  const std::array<Fixed32, kSummaryValues> avg = variant.summarize(scratch.fixed);
  for (uint32_t k = 0; k < kSummaryValues; ++k) att.block.summary[k] = avg[k].raw();

  // Stage 4: the common reconstruct kernel, into scratch.
  variant.reconstruct(avg, scratch.recon);

  // Stage 5: error check + incremental outlier scan (Sec. 3.3). The scan
  // aborts the variant the moment the outlier budget would be exceeded.
  CompressedBlock& blk = att.block;
  uint32_t non_outliers = 0;
  if (dtype == DType::kFixed32) {
    // Fixed point: relative error via subtraction and compare (footnote 1),
    // accumulated in the same double order as the error reports.
    double err_sum = 0.0;
    for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
      const double o = scratch.fixed[i].to_double();
      const double a = Fixed32::from_raw(scratch.recon[i].raw()).to_double();
      const double rel = relative_error(a, o);
      if (rel >= t1()) {
        if (blk.outliers.size() == max_outliers) return false;  // over budget
        blk.outlier_map.set(i);
        blk.outliers.push_back(std::bit_cast<uint32_t>(original[i]));
      } else {
        err_sum += rel;
        ++non_outliers;
      }
    }
    att.avg_error = non_outliers ? err_sum / non_outliers : 0.0;
  } else {
    // Float: the outlier rule and the block-average error are both defined
    // on the mantissa field, so the whole scan runs in the integer domain —
    // one int64 accumulator of absolute mantissa differences replaces the
    // per-value double divisions (every |dm|/2^23 term is an exact multiple
    // of 2^-23 and the sum stays below 2^31 of them, so deferring the
    // division reproduces the old double accumulation bit for bit). The
    // scan itself is a dispatched SIMD kernel writing the bitmap words, the
    // outlier images straight into the candidate's list (its capacity
    // kMaxBlockOutliers covers every budget), and the decompressed block
    // into the image slot the winner does not hold; a false return is the
    // budget abort.
    const uint32_t limit = 1u << (kMantissaBits - cfg_.t1_mantissa_msbit);
    simd::ErrorScanState st;
    st.bitmap_words = blk.outlier_map.words().data();
    st.outlier_bits = blk.outliers.storage();
    st.image = scratch.images[scratch.best_image ^ 1].data();
    st.max_outliers = max_outliers;
    static_assert(sizeof(Fixed32) == sizeof(int32_t));
    if (!simd::kernels().error_scan_f32(
            original.data(), reinterpret_cast<const int32_t*>(scratch.recon.data()),
            kValuesPerBlock, bias, limit, &st))
      return false;  // over budget
    blk.outliers.set_size(st.n_outliers);
    non_outliers = st.non_outliers;
    att.avg_error =
        non_outliers
            ? (static_cast<double>(st.dm_sum) /
               static_cast<double>(1u << kMantissaBits)) / non_outliers
            : 0.0;
  }

  if (att.avg_error > t2()) return false;
  if (blk.lines() > kMaxCompressedLines) return false;
  return true;
}

std::optional<CompressionAttempt> Compressor::compress(
    std::span<const float, kValuesPerBlock> vals, DType dtype,
    CompressorScratch& scratch) const {
  // Per block event, never per access: cheap enough to stay always-on.
  AVR_PROF_SCOPE(prof::Phase::kCompress);
  // Stages 1+2, shared by every variant: bias into the comfortable Q16.16
  // range and convert to fixed point, in one pass.
  int8_t bias = 0;
  if (dtype == DType::kFloat32) {
    bias = choose_bias(vals);
    fixed32_from_f32_batch(vals, scratch.fixed, bias);
  } else {
    fixed32_from_raw_bits_batch(vals, scratch.fixed);
  }

  bool have_best = false;
  for (const MethodVariant& v : method_variants()) {
    if (!(cfg_.*v.enabled)) continue;
    // A later variant replaces the best only with strictly fewer outliers:
    // method_lines never falls as the count grows, so at the best's count
    // it has at least as many lines, and a tie in lines needs strictly fewer
    // outliers. Its scan may therefore abort there. The best has at least
    // one outlier, else the loop broke below.
    const uint32_t max_outliers =
        have_best ? scratch.best.block.outliers.size() - 1 : kMaxBlockOutliers;
    if (!try_method(v, vals, bias, dtype, max_outliers, scratch)) continue;
    const CompressionAttempt& att = scratch.candidate;
    if (!have_best || att.block.lines() < scratch.best.block.lines() ||
        (att.block.lines() == scratch.best.block.lines() &&
         att.block.outliers.size() < scratch.best.block.outliers.size())) {
      scratch.best = att;
      if (dtype == DType::kFloat32)
        scratch.best_image ^= 1;  // the candidate's image is the winner's now
      else
        scratch.best_recon = scratch.recon;
      have_best = true;
    }
    // A 1-line, zero-outlier encoding is unbeatable: replacement requires
    // strictly fewer lines or outliers, so later variants cannot win —
    // skipping them picks the identical result.
    if (scratch.best.block.lines() == 1 && scratch.best.block.outliers.empty())
      break;
  }

  // Lossless-fallback tier: every enabled lossy variant blew the T1/T2
  // outlier budget, so before leaving the block uncompressed, size its raw
  // bit image under BDI. The encoding is exact — no summary, no outliers,
  // identically zero error — so none of the stage 3-5 machinery runs; the
  // only question is whether the encoded bytes fit the 8-line budget.
  if (!have_best && cfg_.enable_bdi_hybrid) {
    AVR_PROF_SCOPE(prof::Phase::kBdi);
    const uint64_t bytes = lossless::encoded_bytes(std::as_bytes(vals));
    CompressionAttempt& att = scratch.candidate;
    att.block = CompressedBlock{};
    att.block.method = Method::kBdiHybrid;
    att.block.dtype = dtype;
    att.block.encoded_bytes = static_cast<uint32_t>(bytes);
    att.avg_error = 0.0;
    if (att.block.lines() <= kMaxCompressedLines) {
      scratch.best = att;
      have_best = true;
    }
  }

  if (!have_best) return std::nullopt;
  return scratch.best;
}

void Compressor::reconstruct(const CompressedBlock& cb,
                             std::span<float, kValuesPerBlock> out) const {
  AVR_PROF_SCOPE(prof::Phase::kCompress);
  // Lossless-exact tier: the encoding stores no image (it is a size model
  // over the raw bits), and reconstruction is the identity — the caller
  // already holds the exact values, so there is nothing to overlay.
  if (method_is_exact(cb.method)) return;
  std::array<Fixed32, kSummaryValues> avg;
  for (uint32_t k = 0; k < kSummaryValues; ++k) avg[k] = Fixed32::from_raw(cb.summary[k]);

  std::array<Fixed32, kValuesPerBlock> recon;
  variant_for(cb.method).reconstruct(avg, recon);
  finish_reconstruct(cb, recon, out);
}

bool Compressor::write_reconstruction(const CompressedBlock& cb,
                                      const CompressorScratch& scratch,
                                      std::span<float, kValuesPerBlock> out) const {
  AVR_PROF_SCOPE(prof::Phase::kCompress);
  if (method_is_exact(cb.method)) return false;
  // A float block's image is the one its winning scan wrote; a kFixed32
  // block's is finished here from the winner's fixed-point image.
  std::array<float, kValuesPerBlock> fixed_image;
  const float* image = scratch.images[scratch.best_image].data();
  if (cb.dtype == DType::kFixed32) {
    finish_reconstruct(cb, scratch.best_recon, fixed_image);
    image = fixed_image.data();
  }
  if (std::memcmp(image, out.data(), out.size_bytes()) == 0) return false;
  std::memcpy(out.data(), image, out.size_bytes());
  return true;
}

void Compressor::finish_reconstruct(const CompressedBlock& cb,
                                    std::span<const Fixed32, kValuesPerBlock> recon,
                                    std::span<float, kValuesPerBlock> out) {
  // Back to the float domain (decompressor right half of Fig. 4): kFixed32
  // regions store Q16.16 bit patterns verbatim; float regions convert and
  // unbias each value. No sweep decodes here (the error scan writes the
  // image a compression event stores), so this stays scalar.
  if (cb.dtype == DType::kFixed32) {
    static_assert(sizeof(Fixed32) == sizeof(float));
    __builtin_memcpy(out.data(), recon.data(), recon.size_bytes());
  } else {
    for (uint32_t i = 0; i < kValuesPerBlock; ++i)
      out[i] = unbias_value(recon[i].to_float(), cb.bias);
  }

  // Overlay the exactly-stored outliers per the bitmap (DBUF fill, Fig. 4),
  // walking only the set bits; both dtypes store the original bit image.
  uint32_t oi = 0;
  const std::array<uint64_t, 4>& words = cb.outlier_map.words();
  for (uint32_t w = 0; w < words.size(); ++w)
    for (uint64_t m = words[w]; m != 0; m &= m - 1)
      out[w * 64 + static_cast<uint32_t>(std::countr_zero(m))] =
          bits_f32(cb.outliers[oi++]);
}

}  // namespace avr
