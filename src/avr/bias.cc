#include "avr/bias.hh"

#include <algorithm>

#include "common/fp_bits.hh"
#include "common/simd.hh"

namespace avr {

int8_t choose_bias(std::span<const float, kValuesPerBlock> vals) {
  // Branch-free exponent min/max pass, dispatched to the SIMD kernel layer:
  // zero/denormal values contribute the identity of each reduction, and a
  // NaN/Inf value (e = 255) surfaces as e_max == 255 afterwards — same
  // outcome as bailing mid-loop.
  int e_max = 0;
  int e_min = 256;
  simd::kernels().exponent_minmax(vals.data(), vals.size(), &e_max, &e_min);
  if (e_max == static_cast<int>(kExponentMask)) return 0;  // NaN/Inf present
  if (e_max == 0) return 0;                                // all zero/denormal

  int bias = kBiasTargetExponent - e_max;
  // Clamp so no value's exponent over- or underflows (paper rule b); if the
  // block's dynamic range makes that impossible the small values flush to
  // zero in fixed point and surface as outliers instead.
  bias = std::min(bias, 254 - e_max);
  bias = std::max(bias, 1 - e_min);
  if (e_max + bias > 254 || e_min + bias < 1) return 0;
  return static_cast<int8_t>(std::clamp(bias, -128, 127));
}

void apply_bias(std::span<float, kValuesPerBlock> vals, int8_t bias) {
  for (float& v : vals) v = f32_scale_exponent(v, bias);
}

}  // namespace avr
