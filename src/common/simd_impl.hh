// Internal interface between the dispatch core (simd.cc) and the
// ISA-specific kernel translation unit (simd_avx2.cc).
//
// The vector TU is compiled with a per-file -mavx2 flag, so it must not
// pull inline code out of shared headers: an inline symbol
// compiled with AVX2 enabled could be the copy the linker keeps, and would
// then be handed to scalar callers on a baseline CPU. This header therefore
// carries only constants, declarations of the *out-of-line* scalar helpers
// (defined in simd.cc, compiled for baseline x86-64) that the vector
// kernels fall back to for slow-path lanes, and the per-level table
// symbols. It intentionally includes nothing beyond simd.hh.
#pragma once

#include "common/simd.hh"

namespace avr::simd::detail {

// float32 field layout (mirrors common/fp_bits.hh, which the vector TUs
// must not include — see the header comment).
inline constexpr int kF32MantissaBits = 23;
inline constexpr uint32_t kF32ExponentMask = 0xFF;
inline constexpr uint32_t kF32MantissaMask = (1u << kF32MantissaBits) - 1;

// Q16.16 conversion constants (mirrors common/fixed_point.hh): scale
// factor, and the open in-range interval of the scaled double — outside it
// the scalar reference saturates or zeroes, so vector lanes fall back.
inline constexpr double kFixedOne = 65536.0;
inline constexpr float kFixedOneInv = 1.0f / 65536.0f;  // exact: 2^-16
inline constexpr double kConvertLo = static_cast<double>(INT32_MIN) - 0.5;
inline constexpr double kConvertHi = static_cast<double>(INT32_MAX) + 0.5;

// ---- scalar reference kernels (the KernelTable entries of kScalarTable) ----
// Also the slow paths: a vector kernel re-runs these over any lane or range
// its fast-path preconditions exclude. Bit-identity of the other levels is
// always *relative to these*.
void fixed32_from_f32_biased_scalar(const float* in, int32_t* out, size_t n,
                                    int8_t bias);
void exponent_minmax_scalar(const float* in, size_t n, int* e_max, int* e_min);
void truncate_low_bits_scalar(float* vals, size_t n, unsigned bits);
void summarize_1d_scalar(const int32_t* in, int32_t* out);
void summarize_2d_scalar(const int32_t* in, int32_t* out);
void lerp_gather_scalar(const int32_t* avg, const uint8_t* left,
                        const uint8_t* right, const int8_t* w, int log2_den,
                        int32_t* out, size_t n);
void reconstruct_2d_scalar(const int32_t* avg, const uint8_t* left,
                           const uint8_t* right, const int8_t* w, int32_t* out);
uint32_t crc32c_update_scalar(uint32_t crc, const uint8_t* data, size_t n);

/// Scalar error scan over the index range [begin, end), continuing an
/// in-progress scan: `st` carries counters and outputs across vector and
/// scalar segments (integer accumulation is order-free, so segment
/// interleaving cannot change the result). Does NOT zero the bitmap; the
/// full-block kernels do that once up front. Returns false on budget abort.
bool error_scan_range_scalar(const float* original, const int32_t* recon_raw,
                             int8_t bias, uint32_t limit, size_t begin,
                             size_t end, ErrorScanState* st);

/// Vertical row lerp shared by reconstruct_2d: out[i] = top[i] +
/// trunc((bot[i] - top[i]) * w / 2^log2_den). Slow path for the vector
/// kernels' int32 delta-overflow fallback.
void lerp_rows_scalar(const int32_t* top, const int32_t* bot, int w,
                      int log2_den, int32_t* out, size_t n);

// Declared unconditionally (so the AVX2 TU's definition gets external
// linkage); simd.cc references the AVX2 table only when the build
// compiles it in (AVR_SIMD_DISPATCH).
extern const KernelTable kScalarTable;
extern const KernelTable kAvx2Table;

}  // namespace avr::simd::detail
