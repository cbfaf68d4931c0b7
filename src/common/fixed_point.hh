// Q16.16 fixed-point arithmetic used by the AVR compressor datapath.
//
// Sec. 3.3: "The core part of the compression is using fixed point
// arithmetic to reduce complexity. Consequently, memory blocks containing
// floating point numbers are converted to fixed point before compression
// and back to floating point after decompression."
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

namespace avr {

/// Two's-complement Q16.16 fixed point value (the hardware converters of
/// Saldanha et al. [35] map to/from this format in one cycle).
class Fixed32 {
 public:
  static constexpr int kFracBits = 16;
  static constexpr int32_t kOne = 1 << kFracBits;

  constexpr Fixed32() = default;
  static constexpr Fixed32 from_raw(int32_t raw) {
    Fixed32 f;
    f.raw_ = raw;
    return f;
  }

  /// Saturating conversion from float. Values outside the representable
  /// range clamp to +/- max; the biasing stage is responsible for keeping
  /// block values inside range so saturation is the uncommon path.
  ///
  /// Rounding is half-away-from-zero, spelled as inline arithmetic instead
  /// of std::lround so the (batch) conversion stage inlines: `scaled` is
  /// exact (a float times 2^16 in a double) and |scaled| < 2^31 after the
  /// clamps, so adding ±0.5 is exact and truncation reproduces lround's
  /// result bit for bit.
  static Fixed32 from_float(float v) {
    if (std::isnan(v)) return from_raw(0);
    const double scaled = static_cast<double>(v) * kOne;
    if (scaled >= static_cast<double>(std::numeric_limits<int32_t>::max()))
      return from_raw(std::numeric_limits<int32_t>::max());
    if (scaled <= static_cast<double>(std::numeric_limits<int32_t>::min()))
      return from_raw(std::numeric_limits<int32_t>::min());
    return from_raw(static_cast<int32_t>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5));
  }

  constexpr int32_t raw() const { return raw_; }
  float to_float() const { return static_cast<float>(raw_) / kOne; }
  double to_double() const { return static_cast<double>(raw_) / kOne; }

  constexpr Fixed32 operator+(Fixed32 o) const { return from_raw(raw_ + o.raw_); }
  constexpr Fixed32 operator-(Fixed32 o) const { return from_raw(raw_ - o.raw_); }
  constexpr bool operator==(const Fixed32&) const = default;

  /// Average of `n` values accumulated in 64-bit (the downsampler sums a
  /// sub-block in a wide accumulator and shifts; for n = 16 this is a plain
  /// arithmetic right shift by 4 in hardware).
  template <typename It>
  static Fixed32 average(It first, It last) {
    int64_t acc = 0;
    int64_t n = 0;
    for (It it = first; it != last; ++it, ++n) acc += it->raw();
    if (n == 0) return from_raw(0);
    // Round-to-nearest division, matching a hardware round-half-away shift.
    const int64_t half = n / 2;
    const int64_t q = acc >= 0 ? (acc + half) / n : -((-acc + half) / n);
    return from_raw(static_cast<int32_t>(q));
  }

  /// Linear blend raw = a + (b - a) * w / wmax with integer weights,
  /// as used by the interpolating reconstructor.
  static constexpr Fixed32 lerp(Fixed32 a, Fixed32 b, int w, int wmax) {
    const int64_t d = static_cast<int64_t>(b.raw_) - a.raw_;
    return from_raw(static_cast<int32_t>(a.raw_ + (d * w) / wmax));
  }

 private:
  int32_t raw_ = 0;
};

// ---- batch (structure-of-arrays) conversion kernels ------------------------
//
// The compressor pipeline runs its conversion stages over whole 256-value
// blocks held in flat arrays (a Fixed32 is one int32, so an array of them IS
// the SoA layout). The float conversion dispatches to the runtime-selected
// SIMD kernel (common/simd.hh) — one indirect call per block, with the
// scalar reference loop preserved verbatim in simd.cc.

/// Float block -> Q16.16 block. Non-finite inputs (the NaN/Inf values the
/// error check later stores exactly as outliers) map to raw 0, matching the
/// scalar compressor convention, not saturation.
///
/// The fast path is a single range test around the branch-heavy scalar
/// conversion: any `scaled` strictly inside (INT32_MIN-0.5, INT32_MAX+0.5)
/// rounds half-away to the same value from_float produces (the saturating
/// comparisons in from_float only redirect values that round to the clamp
/// anyway), and NaN fails the range test, so the slow path sees exactly the
/// non-finite and saturating inputs. Defined in simd.cc; every dispatch
/// level is bit-identical.
void fixed32_from_f32_batch(std::span<const float> in, std::span<Fixed32> out);

/// Reinterpret a block of raw 32-bit images (DType::kFixed32 regions store
/// Q16.16 bit patterns in float-typed storage) as fixed-point values.
inline void fixed32_from_raw_bits_batch(std::span<const float> in,
                                        std::span<Fixed32> out) {
  static_assert(sizeof(Fixed32) == sizeof(float) &&
                std::is_trivially_copyable_v<Fixed32>);
  // Through void*: Fixed32 is trivially copyable (asserted above), but its
  // default member initializer makes it non-trivial to GCC's
  // -Wclass-memaccess.
  __builtin_memcpy(static_cast<void*>(out.data()), in.data(),
                   in.size() * sizeof(float));
}

}  // namespace avr
