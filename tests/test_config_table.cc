// The config table (common/config_table.hh): the fingerprint every result
// cache is keyed by, the canonical diff-from-default names, the layout
// guard that catches a SimConfig field missing from the table, and
// validate_config's range and geometry rules.
#include "common/config_table.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "avr/cmt.hh"
#include "runtime/system.hh"

namespace avr {
namespace {

// Captured before the fingerprint was folded from the table: every value
// must stay bit-identical, or existing result caches (and the committed
// bench_e2e reference, which embeds the default hash) stop matching.
TEST(ConfigTable, PinnedFingerprints) {
  EXPECT_EQ(config_fingerprint(SimConfig{}), 10906681448266892413ull);

  SimConfig t1;
  t1.avr.t1_override = 6;
  EXPECT_EQ(config_fingerprint(t1), 8810537224980109866ull);

  SimConfig bdi;
  bdi.avr.enable_bdi_hybrid = true;
  EXPECT_EQ(config_fingerprint(bdi), 1213279155957032029ull);

  SimConfig no2d;
  no2d.avr.enable_2d = false;
  EXPECT_EQ(config_fingerprint(no2d), 3752296444044571663ull);

  SimConfig nopfe;
  nopfe.avr.enable_pfe = false;
  EXPECT_EQ(config_fingerprint(nopfe), 2784734552073890061ull);

  SimConfig both = t1;
  both.avr.enable_bdi_hybrid = true;
  EXPECT_EQ(config_fingerprint(both), 9211575365794650826ull);
}

/// A valid value of `k` other than its default: the bool flipped, a number
/// one above the default (or one below, at the top of the range).
uint64_t other_value(const Knob& k) {
  const uint64_t def = knob_word(SimConfig{}, k);
  if (k.type == KnobType::kBool) return def ^ 1;
  if (k.type == KnobType::kF64) {
    const double v = std::bit_cast<double>(def);
    return parse_knob_value(k, knob_text(k, std::bit_cast<uint64_t>(v + 1.0)));
  }
  try {
    return parse_knob_value(k, knob_text(k, def + 1));
  } catch (const std::invalid_argument&) {
    return parse_knob_value(k, knob_text(k, def - 1));
  }
}

TEST(ConfigTable, EveryKnobMovesTheFingerprintAndIsNamed) {
  const uint64_t def_fp = config_fingerprint(SimConfig{});
  EXPECT_EQ(config_diff(SimConfig{}), "");
  std::set<uint64_t> fps{def_fp};
  for (const Knob& k : config_table()) {
    SimConfig c;
    const uint64_t w = other_value(k);
    set_knob_word(c, k, w);
    EXPECT_EQ(knob_word(c, k), w) << k.name;
    EXPECT_NE(config_fingerprint(c), def_fp) << k.name;
    EXPECT_TRUE(fps.insert(config_fingerprint(c)).second) << k.name;
    EXPECT_EQ(config_diff(c), std::string(k.name) + "=" + knob_text(k, w));
  }
}

TEST(ConfigTable, NamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const Knob& k : config_table()) {
    EXPECT_TRUE(names.insert(k.name).second) << k.name;
    EXPECT_EQ(find_knob(k.name), &k);
  }
  EXPECT_EQ(find_knob("core"), nullptr);
  EXPECT_EQ(find_knob("nosuch"), nullptr);
}

// A SimConfig field missing from the table leaves a hole the size of the
// field: sorted by offset, the table's fields must tile the struct with
// nothing between them but alignment padding. (Every knob is a scalar
// whose alignment is its size.)
TEST(ConfigTable, KnobsTileSimConfig) {
  std::vector<const Knob*> knobs;
  for (const Knob& k : config_table()) knobs.push_back(&k);
  std::sort(knobs.begin(), knobs.end(),
            [](const Knob* a, const Knob* b) { return a->offset < b->offset; });
  auto align_up = [](size_t n, size_t a) { return (n + a - 1) / a * a; };
  size_t end = 0;
  for (const Knob* k : knobs) {
    const size_t size = knob_size(k->type);
    EXPECT_EQ(k->offset, align_up(end, size))
        << k->name << ": a SimConfig field before it is missing from the table";
    end = k->offset + size;
  }
  EXPECT_EQ(align_up(end, alignof(SimConfig)), sizeof(SimConfig))
      << "a SimConfig field at the end is missing from the table";
}

/// Converts to any member type: brace-initializing an aggregate from N of
/// these compiles iff it has at least N members.
struct AnyField {
  template <class T>
  operator T() const;  // unevaluated use only
};

template <class T, class... Fields>
constexpr size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; })
    return field_count<T, Fields..., AnyField>();
  else
    return sizeof...(Fields);
}

size_t knobs_under(const std::string& prefix) {
  size_t n = 0;
  for (const Knob& k : config_table())
    if (std::string(k.name).rfind(prefix, 0) == 0) ++n;
  return n;
}

// The tiling check cannot see a small field hidden in padding (a seventh
// AvrConfig bool fits in the two bytes after the six), so the member count
// of every config struct must match the table too.
TEST(ConfigTable, MemberCountsMatchTheTable) {
  EXPECT_EQ(knobs_under("core."), field_count<CoreConfig>());
  for (const char* cache : {"l1.", "l2.", "llc."})
    EXPECT_EQ(knobs_under(cache), field_count<CacheConfig>()) << cache;
  EXPECT_EQ(knobs_under("dram."), field_count<DramConfig>());
  EXPECT_EQ(knobs_under("avr."), field_count<AvrConfig>());
  // SimConfig's own scalars: every member but the six sub-structs.
  size_t top_level = 0;
  for (const Knob& k : config_table())
    if (std::string(k.name).find('.') == std::string::npos) ++top_level;
  EXPECT_EQ(top_level + 6, field_count<SimConfig>());
}

TEST(ConfigTable, DiffIsInTableOrderAndRoundTrips) {
  SimConfig c;
  c.avr.enable_bdi_hybrid = true;
  c.avr.t1_override = 6;
  c.core.freq_ghz = 2.5;
  EXPECT_EQ(config_diff(c),
            "core.freq_ghz=2.5 avr.t1_override=6 avr.enable_bdi_hybrid=1");
  // Every knob's default text parses back to the same word.
  for (const Knob& k : config_table()) {
    const uint64_t w = knob_word(SimConfig{}, k);
    EXPECT_EQ(parse_knob_value(k, knob_text(k, w)), w) << k.name;
  }
}

// Each knob set just outside its range fails System construction, and the
// error names that knob. Sides where the range reaches the end of the
// field's type have no outside value to try.
TEST(ConfigTable, SystemRejectsEachKnobJustOutsideItsRange) {
  EXPECT_NO_THROW(System(Design::kAvr, SimConfig{}));
  size_t tried = 0;
  for (const Knob& k : config_table()) {
    std::vector<uint64_t> outside;
    switch (k.type) {
      case KnobType::kBool:
        break;
      case KnobType::kF64:
        outside = {std::bit_cast<uint64_t>(std::nextafter(k.lo, -INFINITY)),
                   std::bit_cast<uint64_t>(std::nextafter(k.hi, INFINITY))};
        break;
      case KnobType::kI32:
        if (k.lo > std::numeric_limits<int32_t>::min())
          outside.push_back(static_cast<uint64_t>(static_cast<int64_t>(k.lo) - 1));
        if (k.hi < std::numeric_limits<int32_t>::max())
          outside.push_back(static_cast<uint64_t>(static_cast<int64_t>(k.hi) + 1));
        break;
      case KnobType::kU32:
      case KnobType::kU64: {
        const double max = k.type == KnobType::kU32
                               ? std::numeric_limits<uint32_t>::max()
                               : std::numeric_limits<uint64_t>::max();
        if (k.lo > 0) outside.push_back(static_cast<uint64_t>(k.lo) - 1);
        if (k.hi < max) outside.push_back(static_cast<uint64_t>(k.hi) + 1);
        break;
      }
    }
    for (uint64_t w : outside) {
      SimConfig c;
      set_knob_word(c, k, w);
      ++tried;
      try {
        System sys(Design::kBaseline, c, 1, /*timing=*/false);
        ADD_FAILURE() << k.name << " = " << knob_text(k, w) << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("SimConfig: " + std::string(k.name) + " = "),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // dispatch_width 0 (the divide-by-zero this check exists for) is among them.
  EXPECT_GE(tried, 20u);
}

/// validate_config's message for `c`, or "valid".
std::string refusal(const SimConfig& c) {
  try {
    validate_config(c);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "valid";
}

// The geometries the SetAssocCache, AvrLlc and Dram constructors used to
// refuse, each now refused by the table with its knob (or cache) and values.
TEST(ConfigTable, GeometryRulesNameTheCacheAndItsNumbers) {
  SimConfig c;
  EXPECT_EQ(refusal(c), "valid");
  // Size not a multiple of ways x 64 B, and a non-power-of-two set count.
  c.l1 = {1000, 3, 1};
  EXPECT_EQ(refusal(c),
            "SimConfig: l1.size_bytes = 1000 in l1.ways = 3 is not a power-of-two "
            "number of sets of 64 B lines");
  c = {};
  c.l2 = {4096 + 64, 4, 8};
  EXPECT_EQ(refusal(c),
            "SimConfig: l2.size_bytes = 4160 in l2.ways = 4 is not a power-of-two "
            "number of sets of 64 B lines");
  c = {};
  c.llc = {3 * 4 * 64, 4, 15};
  EXPECT_EQ(refusal(c),
            "SimConfig: llc.size_bytes = 768 in llc.ways = 4 is not a power-of-two "
            "number of sets of 64 B lines");
  c = {};
  c.llc = {1000, 3, 15};
  EXPECT_EQ(refusal(c),
            "SimConfig: llc.size_bytes = 1000 in llc.ways = 3 is not a power-of-two "
            "number of sets of 64 B lines");
  c = {};
  c.l2.ways = 0;
  EXPECT_EQ(refusal(c), "SimConfig: l2.ways = 0 is outside 1..4294967295");
  c = {};
  c.llc.ways = 0;
  EXPECT_EQ(refusal(c), "SimConfig: llc.ways = 0 is outside 1..256");
  // AvrLlc records a CMS way in one byte, and holds at least one 8-line
  // compressed image.
  c = {};
  c.llc = {512 * kCachelineBytes, 512, 15};
  EXPECT_EQ(refusal(c), "SimConfig: llc.ways = 512 is outside 1..256");
  c.llc = {256 * kCachelineBytes, 256, 15};
  EXPECT_EQ(refusal(c), "valid");
  c.llc = {4 * kCachelineBytes, 4, 15};
  EXPECT_EQ(refusal(c), "SimConfig: llc.size_bytes = 256 is outside 512..274877906944");
  c.llc = {8 * kCachelineBytes, 1, 15};
  EXPECT_EQ(refusal(c), "valid");
  // Dram: rows at least one 1 KB block, and power-of-two channels, banks
  // and rows; zero in any of them, or in the clock ratio, is out of range.
  // The bank array bounds channels and banks by 256 each, and the row shift
  // (below 64 bits) bounds rows by 2^47.
  const auto dram = [](DramConfig d) {
    SimConfig with;
    with.dram = d;
    return refusal(with);
  };
  DramConfig d;
  d.row_bytes = 512;
  EXPECT_EQ(dram(d),
            "SimConfig: dram.row_bytes = 512 is outside 1024..140737488355328");
  d.row_bytes = 3000;
  EXPECT_EQ(dram(d), "SimConfig: dram.row_bytes = 3000 is not a power of two");
  d.row_bytes = 0;
  EXPECT_EQ(dram(d),
            "SimConfig: dram.row_bytes = 0 is outside 1024..140737488355328");
  d = {};
  d.channels = 3;
  EXPECT_EQ(dram(d), "SimConfig: dram.channels = 3 is not a power of two");
  d.channels = 0;
  EXPECT_EQ(dram(d), "SimConfig: dram.channels = 0 is outside 1..256");
  d.channels = 512;
  EXPECT_EQ(dram(d), "SimConfig: dram.channels = 512 is outside 1..256");
  d = {};
  d.banks_per_channel = 12;
  EXPECT_EQ(dram(d), "SimConfig: dram.banks_per_channel = 12 is not a power of two");
  d.banks_per_channel = 0;
  EXPECT_EQ(dram(d), "SimConfig: dram.banks_per_channel = 0 is outside 1..256");
  d.banks_per_channel = 1u << 31;
  EXPECT_EQ(dram(d),
            "SimConfig: dram.banks_per_channel = 2147483648 is outside 1..256");
  d = {};
  d.row_bytes = uint64_t{1} << 48;
  EXPECT_EQ(dram(d),
            "SimConfig: dram.row_bytes = 281474976710656 is outside 1024..140737488355328");
  d = {};
  d.channels = 256;
  d.banks_per_channel = 256;
  d.row_bytes = uint64_t{1} << 47;
  EXPECT_EQ(dram(d), "valid");
  d = {};
  d.cpu_per_dram_cycle = 0;
  EXPECT_EQ(dram(d), "SimConfig: dram.cpu_per_dram_cycle = 0 is outside 1..4294967295");
  d = {};
  d.channels = 4;
  d.banks_per_channel = 8;
  d.row_bytes = 4096;
  EXPECT_EQ(dram(d), "valid");
  // With power-of-two LLC sets, Doppelganger's tag sets are LLC sets x factor,
  // a power of two it indexes in 32 bits, and its tag array is factor x the
  // LLC's lines.
  c = {};
  c.dg_tag_factor = 3;
  EXPECT_EQ(refusal(c), "SimConfig: dg_tag_factor = 3 is not a power of two");
  c.dg_tag_factor = 8;
  EXPECT_EQ(refusal(c), "valid");
  c.dg_tag_factor = 1u << 31;
  EXPECT_EQ(refusal(c), "SimConfig: dg_tag_factor = 2147483648 is outside 1..16");
  c.dg_tag_factor = 16;
  c.llc = {uint64_t{1} << 34, 1, 15};  // 2^28 sets
  EXPECT_EQ(refusal(c),
            "SimConfig: dg_tag_factor = 16 with llc.size_bytes = 17179869184 in "
            "llc.ways = 1 makes 4294967296 Doppelganger tag sets, above its 2^31");
  c.dg_tag_factor = 8;
  EXPECT_EQ(refusal(c), "valid");
}

// The failure-history knobs are compared with the CMT entry's saturating
// failed and skipped counts (Fig. 3), so each is bounded by its field: a
// value past the field's top would never be reached, and would re-simulate
// the top's policy under a new fingerprint.
TEST(ConfigTable, FailureHistoryKnobsAreBoundByTheirFields) {
  SimConfig c;
  c.avr.max_failures = 15;
  c.avr.max_skips = 3;
  EXPECT_EQ(refusal(c), "valid");
  c.avr.max_failures = 16;
  EXPECT_EQ(refusal(c), "SimConfig: avr.max_failures = 16 is outside 0..15");
  c = {};
  c.avr.max_skips = 4;
  EXPECT_EQ(refusal(c), "SimConfig: avr.max_skips = 4 is outside 0..3");
  c.avr.max_skips = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(refusal(c), "SimConfig: avr.max_skips = 4294967295 is outside 0..3");
  // Each bound is the value its counter saturates at.
  BlockMeta m;
  for (int i = 0; i < 20; ++i) m.note_failure();
  EXPECT_EQ(m.failed, find_knob("avr.max_failures")->hi);
  EXPECT_EQ(BlockMeta::unpack(~0u).skipped, find_knob("avr.max_skips")->hi);
}

// A knob no model code reads would make every --set value re-simulate the
// same point under a new cache key.
TEST(ConfigTable, UnreadKnobsAreUnsettable) {
  size_t settable = 0;
  for (const Knob& k : config_table()) settable += k.unsettable == nullptr;
  EXPECT_EQ(settable, 37u);
  for (const char* name : {"core.freq_ghz", "l1.latency", "l2.latency"})
    EXPECT_NE(find_knob(name)->unsettable, nullptr) << name;
}

// The one double knob's value parsing (core.freq_ghz): strict, finite and
// in range, with equal values equal as words, as add_set_axis's repeat
// check compares them.
TEST(ConfigTable, ParseKnobValueDouble) {
  const Knob& k = *find_knob("core.freq_ghz");
  EXPECT_EQ(std::bit_cast<double>(parse_knob_value(k, "2.5")), 2.5);
  EXPECT_EQ(parse_knob_value(k, "2.5"), parse_knob_value(k, "2.50"));
  for (const char* v : {"nan", "inf", "-1", "1e400", "", "2.5x", " 2.5"})
    EXPECT_THROW(parse_knob_value(k, v), std::invalid_argument) << v;
}

}  // namespace
}  // namespace avr
