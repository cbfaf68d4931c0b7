#include "common/types.hh"

namespace avr {

const char* to_string(Design d) {
  switch (d) {
    case Design::kBaseline: return "baseline";
    case Design::kDoppelganger: return "dganger";
    case Design::kTruncate: return "truncate";
    case Design::kZeroAvr: return "ZeroAVR";
    case Design::kAvr: return "AVR";
  }
  return "?";
}

const char* to_string(Method m) {
  switch (m) {
    case Method::kUncompressed: return "uncompressed";
    case Method::kDownsample1D: return "ds1d";
    case Method::kDownsample2D: return "ds2d";
    case Method::kBdiHybrid: return "bdi";
  }
  return "?";
}

}  // namespace avr
