// The AVR compressor / decompressor module (Sec. 3.3, Fig. 4), structured
// as the staged pipeline the hardware synthesizes:
//
//   compress():  stages 1+2  bias exponents and convert float -> Q16.16,
//                            one pass   (shared by all variants)
//                per lossy variant from the method table:
//                stage 3  summarize (downsample)
//                stage 4  reconstruct kernel        (same kernel the
//                                                    decompressor runs)
//                stage 5  integer-domain error check + incremental outlier
//                         scan (aborts the variant the moment the outlier
//                         budget is exceeded; once a variant has passed,
//                         the budget is one below its outlier count, the
//                         most a later variant can need and still win).
//                         The scan also emits the decompressed image: the
//                         unbiased reconstruction, with each outlier's
//                         original bits in place
//                pick the best passing variant;
//                fallback  when every lossy variant failed and
//                          enable_bdi_hybrid is set, encode the raw bit
//                          image losslessly with BDI (src/lossless) — an
//                          exact encoding, so the error path of stages 3-5
//                          short-circuits entirely.
//   reconstruct(): summary -> table-driven fixed-point interpolation ->
//                fixed-to-float -> unbias -> overlay outliers per bitmap.
//                Lossless-exact encodings reconstruct to the stored image
//                itself, so reconstruct() is a documented no-op for them.
//                write_reconstruction() writes back the image compress()
//                kept in scratch, a copy of the winning scan's image, so a
//                compression event builds the decompressed block once.
//
// The class itself stays a pure function of its inputs (no architectural
// state), so the LLC-side machinery can reuse one instance everywhere. All
// intermediate block-sized buffers live in a caller-owned CompressorScratch:
// the per-event hot paths (AvrSystem's compress_block_values) thread one
// scratch through every attempt, so a compression event performs zero heap
// allocations.
//
// The method layer is two-tiered (avr/method.hh): new *lossy* methods plug
// in by adding a Method enum value, an AvrConfig enable flag and a
// kMethodVariants row; new *lossless* methods add a fallback stage like the
// BDI-hybrid's plus a size-model arm in method_lines(). compress()'s call
// sites are method-agnostic either way — they consume lines() only.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "avr/compressed_block.hh"
#include "common/config.hh"
#include "common/fixed_point.hh"

namespace avr {

/// A successful compression: the encoded block plus the quality the error
/// check measured (compress() returns the best passing attempt).
struct CompressionAttempt {
  CompressedBlock block;
  double avg_error = 0.0;  // mean mantissa-relative error of non-outliers
};

/// Caller-owned working set of the compression pipeline: the fixed-point
/// image of the block (shared across variants), the per-variant
/// reconstruction, the decompressed float images the error scans write,
/// and the candidate encoding the error check fills in place. Everything is
/// a flat array (structure-of-arrays), sized for one 256-value block;
/// reusing one scratch across events keeps the datapath allocation-free and
/// its working set cache-resident.
struct CompressorScratch {
  std::array<Fixed32, kValuesPerBlock> fixed;
  std::array<Fixed32, kValuesPerBlock> recon;
  /// The decompressed images the error scans write. The winner's is
  /// images[best_image]; a later variant scans into the other one, so a new
  /// winner flips the index instead of being copied. Zeroed once, so an
  /// aborted scan leaves no indeterminate value behind.
  std::array<std::array<float, kValuesPerBlock>, 2> images{};
  uint32_t best_image = 0;
  CompressionAttempt candidate;
  CompressionAttempt best;
};

/// One row of the *lossy-tier* method dispatch table: how to summarize a
/// fixed-point block and how to reconstruct it, plus the AvrConfig flag
/// gating the variant. Table order is selection-preference order on ties
/// (2D first, matching the hardware's preference for spatial locality).
/// Lossless-exact methods have no row here — they carry no summary and
/// reconstruct to the stored image itself (see the fallback stage above).
struct MethodVariant {
  Method method;
  bool AvrConfig::*enabled;
  std::array<Fixed32, kSummaryValues> (*summarize)(
      std::span<const Fixed32, kValuesPerBlock>);
  void (*reconstruct)(const std::array<Fixed32, kSummaryValues>&,
                      std::span<Fixed32, kValuesPerBlock>);
};

/// The registered variants, in preference order.
std::span<const MethodVariant> method_variants();

/// The table row implementing `m` (1D row for unknown methods, mirroring
/// the legacy decompressor's default interpolation).
const MethodVariant& variant_for(Method m);

class Compressor {
 public:
  explicit Compressor(const AvrConfig& cfg) : cfg_(cfg) {}

  /// Tries to compress a block of 256 fp32 values, reusing `scratch` for
  /// every intermediate buffer. Returns std::nullopt when no enabled variant
  /// meets the T1/T2 thresholds within 8 lines (the block then stays
  /// uncompressed, Fig. 2b) — unless cfg.enable_bdi_hybrid is set and the
  /// raw bit image BDI-encodes within 8 lines, in which case the result is
  /// an exact Method::kBdiHybrid encoding with avg_error == 0.
  std::optional<CompressionAttempt> compress(
      std::span<const float, kValuesPerBlock> vals, CompressorScratch& scratch) const;

  /// Convenience overload with a private stack scratch (tests, examples,
  /// one-off calls; per-event paths should thread a persistent scratch).
  std::optional<CompressionAttempt> compress(
      std::span<const float, kValuesPerBlock> vals) const {
    CompressorScratch scratch;
    return compress(vals, scratch);
  }

  /// Reconstructs the approximate block values: interpolated summary with
  /// outliers overlaid exactly. For lossless-exact encodings (BDI-hybrid)
  /// this is a no-op: the caller's backing data IS the exact reconstruction
  /// (nothing of the image is stored), so `out` is left untouched.
  void reconstruct(const CompressedBlock& cb,
                   std::span<float, kValuesPerBlock> out) const;

  /// Writes the reconstruction of the encoding the last compress() call on
  /// `scratch` returned, from the image compress() already built: equal to
  /// reconstruct(cb, out) bit for bit, without interpolating again. Returns
  /// whether `out` changed: false, with nothing written, for lossless-exact
  /// encodings (like reconstruct()) and when `out` already holds the image
  /// bit for bit (checked before the write, stopping at the first
  /// difference).
  bool write_reconstruction(const CompressedBlock& cb,
                            const CompressorScratch& scratch,
                            std::span<float, kValuesPerBlock> out) const;

  /// Per-value outlier test of Sec. 3.3: sign and exponent must match and
  /// the mantissa difference must stay below the N-th most significant
  /// mantissa bit (error < 1/2^N). Exposed for tests.
  bool value_is_outlier(float original, float approx) const;

  /// The individual-value threshold T1 = 1/2^N as a fraction.
  double t1() const { return 1.0 / static_cast<double>(1u << cfg_.t1_mantissa_msbit); }
  /// Block-average threshold T2 = T1/2 (paper: T1 = 2*T2).
  double t2() const { return t1() / 2.0; }

 private:
  /// Runs stages 3-5 of one variant against the shared fixed-point image in
  /// `scratch`, filling scratch.candidate. False when the variant needs more
  /// than `max_outliers` outliers or fails a threshold.
  bool try_method(const MethodVariant& variant,
                  std::span<const float, kValuesPerBlock> original,
                  int8_t bias, uint32_t max_outliers,
                  CompressorScratch& scratch) const;

  AvrConfig cfg_;
};

}  // namespace avr
