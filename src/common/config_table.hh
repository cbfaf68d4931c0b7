// The config table: every SimConfig knob once, by path ("avr.enable_pfe"),
// with its type, byte offset and the range the model code consuming it can
// handle. config_fingerprint (common/config.hh), config names,
// validate_config and avr_sweep --set all derive from it, so a new SimConfig
// field needs one row in config_table.cc (tests/test_config_table.cc fails
// until it has one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/config.hh"

namespace avr {

enum class KnobType : uint8_t { kBool, kU32, kI32, kU64, kF64 };

struct Knob {
  const char* name;  // path within SimConfig
  KnobType type;
  size_t offset;  // byte offset within SimConfig
  double lo, hi;  // inclusive valid range
  // Nonzero: the fingerprint folds (marker, value) only when the value is
  // not the default, so adding such a knob keeps existing cache keys.
  uint64_t marker = 0;
  const char* unsettable = nullptr;  // non-null: why --set refuses the knob
  bool pow2 = false;                 // the value must also be a power of two
};

std::span<const Knob> config_table();          // in fingerprint fold order
const Knob* find_knob(std::string_view name);  // nullptr if unknown
size_t knob_size(KnobType type);

/// A knob's value as a 64-bit word (bools 0/1, integers sign- or
/// zero-extended, doubles by bit pattern), and its canonical text.
uint64_t knob_word(const SimConfig& c, const Knob& k);
void set_knob_word(SimConfig& c, const Knob& k, uint64_t word);
std::string knob_text(const Knob& k, uint64_t word);

/// Parses `text` strictly (the whole string; no sign on an unsigned knob)
/// and range-checks it. Throws std::invalid_argument giving the reason.
uint64_t parse_knob_value(const Knob& k, std::string_view text);

/// "name=value" for every non-default knob, space-separated in table order;
/// "" for the default config.
std::string config_diff(const SimConfig& c);

/// The one judge of whether a config can be simulated: each knob in its range
/// (and a power of two where its row says so), and each cache a power-of-two
/// number of sets. Throws std::invalid_argument naming the knob and value.
void validate_config(const SimConfig& c);

}  // namespace avr
