// "Truncate" comparison design (Sec. 4.1): approximate values are compressed
// to half precision on the memory link by truncating 16 bits, as proposed in
// Jain'16 / Judd'16 / Sathish'12. Fixed 2:1 ratio on approximate lines:
// 32 B transferred per 64 B line; precision loss applied at writeback.
#pragma once

#include "baselines/baseline_system.hh"

namespace avr {

/// The baseline LLC whose approximate lines are 32 B wide on the link.
/// Lines become half precision whenever they are written back to memory;
/// data still in caches stays exact, exactly like the hardware.
class TruncateSystem final : public BaselineSystem {
 public:
  TruncateSystem(const SimConfig& cfg, RegionRegistry& regions)
      : BaselineSystem(cfg, regions, kCachelineBytes / 2) {}
};

}  // namespace avr
