// Config fuzz: seeded draws of every knob of the config table, each from
// its table range. A draw either fails validate_config with a message that
// names a knob, or builds System for all five designs and replays a short
// synthetic trace through finish(). The Debug and sanitizer lanes run it
// with the model's asserts live and UB fatal, so a config the table accepts
// but the model cannot handle fails here.
//
// The cache geometry knobs (sizes and ways) and the DRAM row size are drawn
// from bounded windows, so no draw allocates more than a few MB: cache sizes
// are powers of two from 256 B to 64 KB, and the others mix powers of two
// with other values. DRAM channels and banks and dg_tag_factor, whose ranges
// are sized to memory, mix the same way over their whole range. Every other
// knob is drawn from its whole range.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config_table.hh"
#include "common/prng.hh"
#include "harness/experiment.hh"
#include "runtime/system.hh"
#include "trace/trace_gen.hh"
#include "workloads/trace.hh"

namespace avr {
namespace {

/// A value in [lo, hi] (hi - lo < 2^64).
uint64_t uniform(Xoshiro256& rng, uint64_t lo, uint64_t hi) {
  const uint64_t span = hi - lo + 1;
  return span == 0 ? rng.next() : lo + rng.next() % span;
}

/// Mostly a power of two in [2^lo_log2, 2^hi_log2]; one draw in sixteen,
/// any value in [1, 2^hi_log2].
uint64_t geometry(Xoshiro256& rng, int lo_log2, int hi_log2) {
  if (uniform(rng, 0, 15) == 0) return uniform(rng, 1, uint64_t{1} << hi_log2);
  return uint64_t{1} << uniform(rng, lo_log2, hi_log2);
}

/// One draw of knob `k` as a word: the bounded windows above for the sizing
/// and geometry knobs, otherwise one of the range's ends, a small value or
/// any value of the range.
uint64_t draw(Xoshiro256& rng, const Knob& k) {
  const std::string name = k.name;
  if (name.ends_with(".size_bytes")) return uint64_t{1} << uniform(rng, 8, 16);
  if (name.ends_with(".ways")) return geometry(rng, 0, 4);
  if (name == "dram.row_bytes") return geometry(rng, 9, 13);
  if (name == "dram.channels" || name == "dram.banks_per_channel" ||
      name == "dg_tag_factor")
    return geometry(rng, 0, std::bit_width(static_cast<uint64_t>(k.hi)) - 1);
  if (k.type == KnobType::kBool) return rng.next() & 1;
  if (k.type == KnobType::kF64) {
    const double pick[] = {k.lo, 1.0, 3.2, 1e300};
    return std::bit_cast<uint64_t>(pick[uniform(rng, 0, 3)]);
  }
  if (k.type == KnobType::kI32) {  // avr.t1_override, over its whole range
    const auto span = static_cast<uint64_t>(k.hi - k.lo);
    return static_cast<uint64_t>(static_cast<int64_t>(k.lo + uniform(rng, 0, span)));
  }
  const auto lo = static_cast<uint64_t>(k.lo), hi = static_cast<uint64_t>(k.hi);
  const uint64_t small = uniform(rng, lo, std::min(hi, lo + 64));
  const uint64_t pick[] = {lo, hi, small, uniform(rng, lo, hi)};
  return pick[uniform(rng, 0, 3)];
}

TEST(ConfigFuzz, EveryDrawIsRefusedByNameOrSimulates) {
  const char* const kPatterns[] = {"chase", "zipf", "walk", "mixed"};
  size_t simulated = 0, refused = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Xoshiro256 rng(seed);
    SimConfig cfg;
    for (const Knob& k : config_table()) set_knob_word(cfg, k, draw(rng, k));
    const std::string label = "seed " + std::to_string(seed) + ": " + config_diff(cfg);
    try {
      validate_config(cfg);
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      bool names_a_knob = false;
      for (const Knob& k : config_table())
        names_a_knob |= what.find(std::string(k.name) + " = ") != std::string::npos;
      EXPECT_TRUE(names_a_knob) << what;
      ++refused;
      continue;
    }
    trace::GenParams p;
    p.records = 1500;
    p.regions = 3;
    p.region_bytes = 8192;
    p.seed = seed;
    const trace::Trace t = trace::make_synthetic_trace(kPatterns[seed % 4], p);
    for (Design d : ExperimentRunner::paper_designs()) {
      SCOPED_TRACE(label + " x " + to_string(d));
      System sys(d, cfg);
      auto wl = make_trace_workload("trace:fuzz", t);
      wl->run(sys);
      sys.finish();
      const RunMetrics m = sys.metrics();
      EXPECT_GT(m.instructions, 0u);
      // Fig. 11's split conserves bytes: every DRAM byte is approximate or other.
      EXPECT_EQ(m.dram_bytes_approx + m.dram_bytes_other, m.dram_bytes);
    }
    ++simulated;
  }
  // The windows keep both outcomes common.
  EXPECT_GE(simulated, 40u);
  EXPECT_GE(refused, 40u);
}

}  // namespace
}  // namespace avr
