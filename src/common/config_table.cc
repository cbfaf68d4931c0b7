#include "common/config_table.hh"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/fp_bits.hh"
#include "common/types.hh"

namespace avr {
namespace {

// A word is the field's bytes in the low end of a uint64_t, and long double
// compares every word's value exactly.
static_assert(std::endian::native == std::endian::little);
static_assert(std::numeric_limits<long double>::digits >= 64);

constexpr KnobType type_of(const bool*) { return KnobType::kBool; }
constexpr KnobType type_of(const uint32_t*) { return KnobType::kU32; }
constexpr KnobType type_of(const int32_t*) { return KnobType::kI32; }
constexpr KnobType type_of(const uint64_t*) { return KnobType::kU64; }
constexpr KnobType type_of(const double*) { return KnobType::kF64; }

constexpr double kU32 = std::numeric_limits<uint32_t>::max();
constexpr double kF64 = std::numeric_limits<double>::max();
// Entry indices are 32-bit (SetAssocCache::sets_, AvrLlc's tag index,
// Doppelganger's data free list), so a cache holds at most 2^32 lines.
constexpr double kCacheMin = kCachelineBytes;
constexpr double kCacheMax = static_cast<double>(kCachelineBytes << 32);
// Compressor: outlier limit 1u << (kMantissaBits - N) must leave at least
// one ulp of slack, so N <= 22.
constexpr double kT1Max = kMantissaBits - 1;
constexpr const char* kPerWorkload =
    "ExperimentRunner::config_for sets it per workload, so a set value would be ignored";
constexpr const char* kUnread =
    "no model code reads it (the hierarchy charges core.l1_latency and core.l2_latency), "
    "so every value would re-simulate the same point";
constexpr SimConfig kDefaults{};

// clang-format off
// One row: the path is the name, and the field's declared type picks the
// KnobType, so neither can drift from the struct.
#define AVR_KNOB(path, lo_, hi_, ...)                                        \
  Knob{.name = #path, .type = type_of(&kDefaults.path),                      \
       .offset = offsetof(SimConfig, path), .lo = lo_, .hi = hi_             \
       __VA_OPT__(,) __VA_ARGS__}

// Fold order: this is the order config_fingerprint has always folded the
// fields in, so the bool run (folded as one word, bit i = i-th bool) lists
// 1d, 2d, lazy, history, pfe, bdi — not struct order.
constexpr Knob kTable[] = {
    // IntervalCore divides by the dispatch width.
    AVR_KNOB(core.dispatch_width, 1, kU32),
    AVR_KNOB(core.rob_size, 0, kU32),
    AVR_KNOB(core.freq_ghz, 0, kF64, .unsettable = kUnread),
    AVR_KNOB(core.l1_latency, 0, kU32),
    AVR_KNOB(core.l2_latency, 0, kU32),
    // Sizes and ways also meet validate_config's geometry rule.
    AVR_KNOB(l1.size_bytes, kCacheMin, kCacheMax),
    AVR_KNOB(l1.ways, 1, kU32),
    AVR_KNOB(l1.latency, 0, kU32, .unsettable = kUnread),
    AVR_KNOB(l2.size_bytes, kCacheMin, kCacheMax),
    AVR_KNOB(l2.ways, 1, kU32),
    AVR_KNOB(l2.latency, 0, kU32, .unsettable = kUnread),
    // AvrLlc: a smaller LLC could evict a compressed image's own entries
    // while cms_insert places it, and TagEntry::cms_way holds a way in a byte.
    AVR_KNOB(llc.size_bytes, kMaxCompressedLines * kCachelineBytes, kCacheMax,
             .unsettable = kPerWorkload),
    AVR_KNOB(llc.ways, 1, 256),
    AVR_KNOB(llc.latency, 0, kU32),
    // Dram shifts by log2 of channels, banks and row size, and maps rows at
    // memory-block granularity. It allocates a 24 B bank per (channel, bank):
    // 256 x 256 banks are 1.5 MiB. A row is an address range, not memory,
    // but the row shift log2(row x channels x banks) must stay below 64.
    AVR_KNOB(dram.channels, 1, 256, .pow2 = true),
    AVR_KNOB(dram.banks_per_channel, 1, 256, .pow2 = true),
    AVR_KNOB(dram.row_bytes, kBlockBytes, 0x1p47, .pow2 = true),
    AVR_KNOB(dram.t_cl, 0, kU32),
    AVR_KNOB(dram.t_rcd, 0, kU32),
    AVR_KNOB(dram.t_rp, 0, kU32),
    AVR_KNOB(dram.t_burst, 0, kU32),
    AVR_KNOB(dram.cpu_per_dram_cycle, 1, kU32),
    AVR_KNOB(dram.controller_latency, 0, kU32),
    AVR_KNOB(avr.t1_mantissa_msbit, 0, kT1Max, .unsettable = kPerWorkload),
    // -1 keeps the per-workload thresholds (ExperimentRunner::config_for).
    AVR_KNOB(avr.t1_override, -1, kT1Max, .marker = 0x7431),  // 't1' marker
    AVR_KNOB(avr.enable_1d, 0, 1),
    AVR_KNOB(avr.enable_2d, 0, 1),
    AVR_KNOB(avr.enable_lazy_eviction, 0, 1),
    AVR_KNOB(avr.enable_failure_history, 0, 1),
    AVR_KNOB(avr.enable_pfe, 0, 1),
    AVR_KNOB(avr.enable_bdi_hybrid, 0, 1),
    // Compared with the DBUF's 0..16 request count; above 16 never promotes.
    AVR_KNOB(avr.pfe_threshold, 0, kU32),
    AVR_KNOB(avr.compress_latency, 0, kU32),
    AVR_KNOB(avr.decompress_latency, 0, kU32),
    AVR_KNOB(avr.cms_stream_cycles, 0, kU32),
    // Compared with the CMT entry's 2-bit skipped and 4-bit failed counts
    // (Fig. 3), which saturate there: a larger bound would never be reached.
    AVR_KNOB(avr.max_skips, 0, kMaxSkippedCount),
    AVR_KNOB(avr.max_failures, 0, kMaxFailedCount),
    // The truncate kernels build their mask as 1u << bits.
    AVR_KNOB(truncate_bits, 0, 31),
    // Doppelganger's tag sets (LLC sets x factor) must be a power of two,
    // and its tag array (32 B entries) is factor x LLC lines: at 16 that is
    // 8x the LLC's data array. validate_config bounds the set count too.
    AVR_KNOB(dg_tag_factor, 1, 16, .pow2 = true),
    // Doppelganger's map key packs (q_avg << 8 | q_range) into its top 32
    // bits, each quantized bucket below its count (0 buckets would wrap
    // clampq's buckets - 1).
    AVR_KNOB(dg_avg_buckets, 1, 0x1p24),
    AVR_KNOB(dg_range_buckets, 1, 256),
    AVR_KNOB(ops_per_access, 0, kU32),
};

#undef AVR_KNOB
// clang-format on

long double value(const Knob& k, uint64_t w) {
  if (k.type == KnobType::kF64) return std::bit_cast<double>(w);
  if (k.type == KnobType::kI32) return static_cast<int64_t>(w);
  return w;
}

/// Integers in decimal, anything else (only doubles) in shortest round-trip form.
std::string text(long double v) {
  if (v == std::floor(v) && v >= -0x1p63L && v < 0x1p64L)
    return v < 0 ? std::to_string(static_cast<int64_t>(v))
                 : std::to_string(static_cast<uint64_t>(v));
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, static_cast<double>(v));
  return std::string(buf, res.ptr);
}

/// Whether `word` lies in k's inclusive range, and that range as "lo..hi".
bool knob_in_range(const Knob& k, uint64_t word) {
  const long double v = value(k, word);
  return v >= k.lo && v <= k.hi;  // false for NaN
}

std::string knob_range_text(const Knob& k) { return text(k.lo) + ".." + text(k.hi); }

}  // namespace

std::span<const Knob> config_table() { return kTable; }

const Knob* find_knob(std::string_view name) {
  for (const Knob& k : kTable)
    if (name == k.name) return &k;
  return nullptr;
}

size_t knob_size(KnobType type) {
  if (type == KnobType::kBool) return sizeof(bool);
  return type == KnobType::kU32 || type == KnobType::kI32 ? 4 : 8;
}

uint64_t knob_word(const SimConfig& c, const Knob& k) {
  uint64_t w = 0;
  std::memcpy(&w, reinterpret_cast<const char*>(&c) + k.offset, knob_size(k.type));
  if (k.type == KnobType::kI32)  // sign-extend
    w = static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(w)));
  return w;
}

void set_knob_word(SimConfig& c, const Knob& k, uint64_t word) {
  std::memcpy(reinterpret_cast<char*>(&c) + k.offset, &word, knob_size(k.type));
}

std::string knob_text(const Knob& k, uint64_t word) { return text(value(k, word)); }

uint64_t parse_knob_value(const Knob& k, std::string_view s) {
  const char* end = s.data() + s.size();
  uint64_t w = 0;
  std::from_chars_result r{};
  if (k.type == KnobType::kF64) {
    double v = 0;
    r = std::from_chars(s.data(), end, v);
    w = std::bit_cast<uint64_t>(v);
  } else if (k.type == KnobType::kI32) {
    int64_t v = 0;
    r = std::from_chars(s.data(), end, v);
    w = static_cast<uint64_t>(v);
  } else {
    r = std::from_chars(s.data(), end, w);
  }
  if (s.empty() || r.ec != std::errc() || r.ptr != end)
    throw std::invalid_argument(std::string(k.name) + " wants " +
                                (k.type == KnobType::kF64 ? "a number" : "an integer"));
  if (!knob_in_range(k, w))
    throw std::invalid_argument(std::string(k.name) + " must be in " + knob_range_text(k));
  return w;
}

std::string config_diff(const SimConfig& c) {
  std::string out;
  for (const Knob& k : kTable) {
    const uint64_t w = knob_word(c, k);
    if (w == knob_word(kDefaults, k)) continue;
    out += (out.empty() ? "" : " ") + std::string(k.name) + "=" + knob_text(k, w);
  }
  return out;
}

void validate_config(const SimConfig& c) {
  const auto named = [&c](const Knob& k) {
    return std::string(k.name) + " = " + knob_text(k, knob_word(c, k));
  };
  for (const Knob& k : kTable) {
    const uint64_t w = knob_word(c, k);
    if (!knob_in_range(k, w))
      throw std::invalid_argument("SimConfig: " + named(k) + " is outside " +
                                  knob_range_text(k));
    if (k.pow2 && !std::has_single_bit(w))
      throw std::invalid_argument("SimConfig: " + named(k) + " is not a power of two");
  }
  // SetAssocCache, AvrLlc and Doppelganger index their sets by address bits.
  for (const std::string cache : {"l1", "l2", "llc"}) {
    const Knob& size = *find_knob(cache + ".size_bytes");
    const Knob& ways = *find_knob(cache + ".ways");
    const uint64_t bytes = knob_word(c, size);
    const uint64_t way_bytes = knob_word(c, ways) * kCachelineBytes;
    if (bytes % way_bytes != 0 || !std::has_single_bit(bytes / way_bytes))
      throw std::invalid_argument("SimConfig: " + named(size) + " in " + named(ways) +
                                  " is not a power-of-two number of sets of 64 B lines");
  }
  // Doppelganger indexes its tag sets (LLC sets x dg_tag_factor) in 32 bits.
  const uint64_t tag_sets = c.llc.size_bytes / kCachelineBytes / c.llc.ways * c.dg_tag_factor;
  if (tag_sets > uint64_t{1} << 31)
    throw std::invalid_argument("SimConfig: " + named(*find_knob("dg_tag_factor")) +
                                " with " + named(*find_knob("llc.size_bytes")) + " in " +
                                named(*find_knob("llc.ways")) + " makes " +
                                std::to_string(tag_sets) +
                                " Doppelganger tag sets, above its 2^31");
}

uint64_t config_fingerprint(const SimConfig& c) {
  // FNV-1a over each folded word's 8 bytes, least significant first.
  uint64_t h = 1469598103934665603ull;
  auto fold = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) h = (h ^ (v & 0xFF)) * 1099511628211ull;
  };
  uint64_t bools = 0;  // the current run of bools, bit i = i-th bool
  int n_bools = 0;
  for (const Knob& k : kTable) {
    const uint64_t w = knob_word(c, k);
    if (k.type == KnobType::kBool) {
      bools |= w << n_bools++;
      continue;
    }
    if (n_bools > 0) fold(bools);
    bools = 0;
    n_bools = 0;
    if (k.marker == 0) {
      fold(w);
    } else if (w != knob_word(kDefaults, k)) {
      fold(k.marker);
      fold(w);
    }
  }
  if (n_bools > 0) fold(bools);
  return h;
}

}  // namespace avr
