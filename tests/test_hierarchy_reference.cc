// Differential test of the simulated private hierarchy (IntervalCore's MRU
// filter, MemoryHierarchy's L1 and L2) and the baseline LLC against
// ReferenceHierarchy (tests/reference_hierarchy.hh), a model written from
// the definitions of write-back, write-allocate, true-LRU caches.
//
// Configs are seeded draws of the knobs the hierarchy and the interval core
// read, drawn the way test_config_fuzz draws them: cache sizes are powers of
// two from 256 B to 64 KB, ways mostly powers of two, and the core's
// latencies, ROB size, dispatch width and ops per access one of the range's
// ends, a small value or any value of the range. So some draws have
// l1_latency > rob_size / dispatch_width, where the core sends every access
// down the full path instead of trying the MRU filter. A draw validate_config
// refuses is skipped.
//
// Each config replays the avr_trace_gen chase, zipf, walk and mixed streams
// through System for the baseline and Truncate designs. An access hook feeds
// every instrumented access to the reference as well. Before and after
// finish() both must agree on the L1 and L2 hits, misses, evictions and
// write-backs, the LLC requests and misses, and the DRAM reads and writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/config_table.hh"
#include "common/prng.hh"
#include "reference_hierarchy.hh"
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

/// test_config_fuzz's draw, for the knobs the hierarchy and the core read.
SimConfig draw_config(Xoshiro256& rng) {
  SimConfig cfg;
  for (const std::string cache : {"l1", "l2", "llc"}) {
    const uint64_t size = uint64_t{1} << uniform(rng, 8, 16);
    set_knob_word(cfg, *find_knob(cache + ".size_bytes"), size);
    set_knob_word(cfg, *find_knob(cache + ".ways"), geometry(rng, 0, 4));
  }
  for (const char* name : {"llc.latency", "core.l1_latency", "core.l2_latency",
                           "core.rob_size", "core.dispatch_width", "ops_per_access"}) {
    const Knob& k = *find_knob(name);
    const auto lo = static_cast<uint64_t>(k.lo), hi = static_cast<uint64_t>(k.hi);
    const uint64_t small = uniform(rng, lo, std::min(hi, lo + 64));
    const uint64_t pick[] = {lo, hi, small, uniform(rng, lo, hi)};
    set_knob_word(cfg, k, pick[uniform(rng, 0, 3)]);
  }
  return cfg;
}

void expect_same(const ReferenceHierarchy& ref, System& sys) {
  const MemoryHierarchy& hier = sys.hierarchy();
  const CacheCounters& l1 = hier.l1(0).counters();
  const CacheCounters& l2 = hier.l2(0).counters();
  EXPECT_EQ(l1.hits, ref.l1().counters().hits);
  EXPECT_EQ(l1.misses, ref.l1().counters().misses);
  EXPECT_EQ(l1.evictions, ref.l1().counters().evictions);
  EXPECT_EQ(l1.dirty_evictions, ref.l1().counters().dirty_evictions);
  EXPECT_EQ(l2.hits, ref.l2().counters().hits);
  EXPECT_EQ(l2.misses, ref.l2().counters().misses);
  EXPECT_EQ(l2.evictions, ref.l2().counters().evictions);
  EXPECT_EQ(l2.dirty_evictions, ref.l2().counters().dirty_evictions);
  EXPECT_EQ(hier.llc_requests(), ref.llc_requests());
  EXPECT_EQ(hier.llc_misses(), ref.llc_misses());
  EXPECT_EQ(sys.llc_system().dram().counters().reads, ref.dram_reads());
  EXPECT_EQ(sys.llc_system().dram().counters().writes, ref.dram_writes());
}

TEST(ReferenceHierarchy, SystemMatchesTheReferenceOnFuzzedConfigs) {
  const char* const kPatterns[] = {"chase", "zipf", "walk", "mixed"};
  const Design kDesigns[] = {Design::kBaseline, Design::kTruncate};
  uint64_t simulated = 0, filtered = 0, unfiltered = 0, accesses = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Xoshiro256 rng(seed);
    const SimConfig cfg = draw_config(rng);
    try {
      validate_config(cfg);
    } catch (const std::invalid_argument&) {
      continue;
    }
    const std::string label = "seed " + std::to_string(seed) + ": " + config_diff(cfg);
    const uint64_t hide = cfg.core.rob_size / cfg.core.dispatch_width;
    ++(cfg.core.l1_latency <= hide ? filtered : unfiltered);
    for (size_t i = 0; i < std::size(kPatterns); ++i) {
      trace::GenParams p;
      p.records = 3000;
      p.regions = 3;
      p.region_bytes = uint64_t{1} << uniform(rng, 12, 15);
      p.store_fraction = i % 2 ? 0.5 : 0.1;
      p.seed = seed * 8 + i;
      const trace::Trace t = trace::make_synthetic_trace(kPatterns[i], p);
      for (Design d : kDesigns) {
        SCOPED_TRACE(label + " x " + kPatterns[i] + " x " + to_string(d));
        System sys(d, cfg);
        ReferenceHierarchy ref(cfg);
        sys.set_access_hook([&](uint64_t addr, bool write) {
          ref.access(addr, write);
          ++accesses;
        });
        make_trace_workload("trace:reference", t)->run(sys);
        expect_same(ref, sys);
        sys.finish();
        ref.drain();
        expect_same(ref, sys);
      }
    }
    ++simulated;
  }
  // The draws cover both core paths and leave enough configs to matter.
  EXPECT_GE(simulated, 20u);
  EXPECT_GE(filtered, 5u);
  EXPECT_GE(unfiltered, 5u);
  EXPECT_GT(accesses, 0u);
}

}  // namespace
}  // namespace avr
