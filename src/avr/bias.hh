// Exponent biasing (Sec. 3.3, "Biasing & unbiasing").
//
// Very large or small floating-point values lose precision (or saturate)
// when converted to Q16.16. Before compression AVR picks a per-block bias
// that is added to every value's exponent field to bring the block into a
// comfortably representable range; the bias is undone after reconstruction.
// Biasing is skipped (bias = 0) when the block contains non-finite values
// or when no bias keeps every value's exponent inside [1, 254].
#pragma once

#include <cstdint>
#include <span>

#include "common/fp_bits.hh"
#include "common/types.hh"

namespace avr {

/// Exponent the block's largest magnitude is mapped to: 2^(137-127) = 2^10,
/// well inside Q16.16's +/-32767 with headroom for interpolation.
inline constexpr int kBiasTargetExponent = 137;

/// Chooses the bias for a block of floats. Returns 0 when biasing must be
/// skipped per the paper's rules.
int8_t choose_bias(std::span<const float, kValuesPerBlock> vals);

/// Applies `bias` to the exponent field of every finite non-zero value,
/// in place. Zero/denormal values are left untouched. (The compressor
/// biases and converts in one pass: fixed32_from_f32_batch.)
void apply_bias(std::span<float, kValuesPerBlock> vals, int8_t bias);

/// Undoes the bias on a single value (the 8-bit exponent adder of the
/// decompressor). Zero stays zero. Header-inline: the decompressor and the
/// compressor's error scan run this once per reconstructed value.
inline float unbias_value(float v, int8_t bias) {
  if (bias == 0) return v;
  return f32_scale_exponent(v, -bias);
}

}  // namespace avr
