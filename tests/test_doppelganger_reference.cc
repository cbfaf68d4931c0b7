// Differential test of DoppelgangerSystem against ReferenceDoppelganger
// (tests/reference_doppelganger.hh), the straightforward model it must
// reproduce bit for bit.
//
// Configs are seeded draws of the knobs Doppelganger reads (LLC size and
// ways, dg_tag_factor, dg_avg_buckets, dg_range_buckets), drawn the way
// test_config_fuzz draws them; a draw validate_config refuses is skipped.
// Each config replays the avr_trace_gen chase, zipf, walk and mixed streams
// at 5% and 50% stores, plus the DoppelgangerChurn op mix, through both
// models in lockstep over two identically filled region registries. A store
// first writes new contents into its line (the core stored them), then
// reaches the LLC as a write request or as a writeback. Both models must
// agree on every request's latency and miss bit, and after drain on every
// DoppelgangerCounters field, the stats snapshot, every DRAM counter, the
// dedup factor and the backing-store bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "baselines/doppelganger_system.hh"
#include "common/config_table.hh"
#include "common/prng.hh"
#include "reference_doppelganger.hh"
#include "trace/trace_gen.hh"

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

/// test_config_fuzz's draw, for the knobs Doppelganger reads: cache sizes
/// are powers of two from 256 B to 64 KB, ways and dg_tag_factor mostly
/// powers of two, the bucket counts one of the range's ends, a small value
/// or any value of the range.
SimConfig draw_config(Xoshiro256& rng) {
  SimConfig cfg;
  for (const char* name : {"llc.size_bytes", "llc.ways", "dg_tag_factor",
                           "dg_avg_buckets", "dg_range_buckets"}) {
    const Knob& k = *find_knob(name);
    const std::string n = name;
    uint64_t v;
    if (n == "llc.size_bytes") {
      v = uint64_t{1} << uniform(rng, 8, 16);
    } else if (n == "llc.ways") {
      v = geometry(rng, 0, 4);
    } else if (n == "dg_tag_factor") {
      v = geometry(rng, 0, std::bit_width(static_cast<uint64_t>(k.hi)) - 1);
    } else {
      const auto lo = static_cast<uint64_t>(k.lo), hi = static_cast<uint64_t>(k.hi);
      const uint64_t small = uniform(rng, lo, std::min(hi, lo + 64));
      const uint64_t pick[] = {lo, hi, small, uniform(rng, lo, hi)};
      v = pick[uniform(rng, 0, 3)];
    }
    set_knob_word(cfg, k, v);
  }
  return cfg;
}

/// Writes 16 floats derived from `seed` into the line at `host`: two in
/// three lines hold one of 24 patterns (they deduplicate with each other),
/// the rest hold noise; one line in 64 carries a NaN or an infinity.
void fill_line(std::byte* host, uint64_t seed) {
  Xoshiro256 rng(seed);
  const bool patterned = rng.below(3) != 0;
  const float base = static_cast<float>(rng.below(24)) * 3.0f;
  float v[kValuesPerLine];
  for (uint32_t i = 0; i < kValuesPerLine; ++i)
    v[i] = patterned ? base + 0.01f * static_cast<float>(i)
                     : static_cast<float>(rng.uniform(-50, 50));
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (rng.below(64) == 0) v[rng.below(kValuesPerLine)] = rng.below(2) ? kNaN : -kInf;
  std::memcpy(host, v, sizeof(v));
}

struct Region {
  uint64_t bytes;
  bool approx;
};

enum class Kind { kRead, kWrite, kWriteback };

struct Op {
  Kind kind;
  uint32_t region;
  uint64_t offset;     // line-aligned offset within the region
  uint64_t fill_seed;  // nonzero: the line's new contents before the op
  uint64_t dt;         // cycles until the next op
};

struct Workload {
  std::string name;
  std::vector<Region> regions;
  std::vector<Op> ops;
};

/// One trace's records as LLC ops: a load reads its line, a store refills
/// its line, then writes it (seven in ten) or writes it back. Region 1 is
/// exact, every other region approximate.
Workload trace_workload(const std::string& pattern, double stores, uint64_t seed) {
  trace::GenParams p;
  p.records = 4000;
  p.regions = 4;
  p.region_bytes = 32 * 1024;
  p.store_fraction = stores;
  p.seed = seed;
  const trace::Trace t = trace::make_synthetic_trace(pattern, p);
  Workload w;
  w.name = pattern + "@" + std::to_string(static_cast<int>(stores * 100)) + "%";
  for (size_t i = 0; i < t.regions.size(); ++i)
    w.regions.push_back({t.regions[i].bytes, i != 1});
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (const trace::TraceRecord& rec : t.records) {
    const uint64_t offset = rec.offset & ~uint64_t{kCachelineBytes - 1};
    Op op{Kind::kRead, rec.region, offset, 0, 1 + rng.below(40)};
    if (rec.op == trace::Op::kStore) {
      op.kind = rng.below(10) < 7 ? Kind::kWrite : Kind::kWriteback;
      op.fill_seed = rng.next() | 1;
    }
    w.ops.push_back(op);
  }
  return w;
}

/// DoppelgangerChurn's op mix: reads, writes and writebacks over a hot set
/// and the rest of an approximate and an exact region, writes and a fifth
/// of the writebacks refilling their line first.
Workload churn_workload(uint64_t seed) {
  constexpr uint64_t kApLines = 2048, kExLines = 512, kHotLines = 192;
  Workload w;
  w.name = "churn";
  w.regions = {{kApLines * kCachelineBytes, true}, {kExLines * kCachelineBytes, false}};
  Xoshiro256 rng(seed);
  for (int i = 0; i < 6000; ++i) {
    const bool approx = rng.below(4) != 0;
    const uint64_t lines = approx ? kApLines : kExLines;
    const uint64_t idx = rng.below(2) ? rng.below(kHotLines) : rng.below(lines);
    const uint64_t kind = rng.below(10);
    Op op{Kind::kRead, approx ? 0u : 1u, idx * kCachelineBytes, 0, 1 + rng.below(40)};
    if (kind >= 6) op.kind = kind < 8 ? Kind::kWrite : Kind::kWriteback;
    if (kind >= 6 && kind != 9) op.fill_seed = rng.next() | 1;
    w.ops.push_back(op);
  }
  return w;
}

/// Allocates `w`'s regions in `regions` and fills every line from `seed`.
std::vector<uint64_t> build_regions(const Workload& w, uint64_t seed,
                                    RegionRegistry& regions) {
  std::vector<uint64_t> bases;
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < w.regions.size(); ++i) {
    const Region& r = w.regions[i];
    const uint64_t base = regions.allocate("r" + std::to_string(i), r.bytes, r.approx);
    for (uint64_t off = 0; off < r.bytes; off += kCachelineBytes)
      fill_line(regions.host_ptr(base + off), rng.next());
    bases.push_back(base);
  }
  return bases;
}

struct Totals {
  uint64_t dedup_hits = 0, unshares = 0, data_evictions = 0, tag_evictions = 0;
  uint64_t dram_writes = 0;
};

/// Replays `w` through both models under `cfg` and checks they agree.
void expect_same(const SimConfig& cfg, const Workload& w, uint64_t seed,
                 const std::string& label, Totals& totals) {
  SCOPED_TRACE(label + " x " + w.name);
  RegionRegistry ref_regions, fast_regions;
  const std::vector<uint64_t> bases = build_regions(w, seed, ref_regions);
  ASSERT_EQ(build_regions(w, seed, fast_regions), bases);
  ReferenceDoppelganger ref(cfg, ref_regions);
  DoppelgangerSystem fast(cfg, fast_regions);

  uint64_t now = 0;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const uint64_t line = bases[op.region] + op.offset;
    if (op.fill_seed) {
      fill_line(ref_regions.host_ptr(line), op.fill_seed);
      fill_line(fast_regions.host_ptr(line), op.fill_seed);
    }
    if (op.kind == Kind::kWriteback) {
      ref.writeback(now, line);
      fast.writeback(now, line);
    } else {
      const bool write = op.kind == Kind::kWrite;
      const uint64_t ref_lat = ref.request(now, line, write);
      const uint64_t fast_lat = fast.request(now, line, write);
      ASSERT_EQ(fast_lat, ref_lat) << "latency of op " << i;
      ASSERT_EQ(fast.last_was_miss(), ref.last_was_miss()) << "miss bit of op " << i;
    }
    now += op.dt;
  }
  ref.drain(now);
  fast.drain(now);

  const DoppelgangerCounters& a = ref.counters();
  const DoppelgangerCounters& b = fast.counters();
  EXPECT_EQ(b.requests, a.requests);
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.dedup_hits, a.dedup_hits);
  EXPECT_EQ(b.unshares, a.unshares);
  EXPECT_EQ(b.data_evictions, a.data_evictions);
  EXPECT_EQ(b.tag_evictions, a.tag_evictions);
  EXPECT_EQ(fast.stats().counters(), ref.stats().counters());
  EXPECT_EQ(fast.dedup_factor(), ref.dedup_factor());

  const DramCounters& ma = ref.dram().counters();
  const DramCounters& mb = fast.dram().counters();
  EXPECT_EQ(mb.reads, ma.reads);
  EXPECT_EQ(mb.writes, ma.writes);
  EXPECT_EQ(mb.bytes_read, ma.bytes_read);
  EXPECT_EQ(mb.bytes_written, ma.bytes_written);
  EXPECT_EQ(mb.activations, ma.activations);
  EXPECT_EQ(mb.row_hits, ma.row_hits);
  EXPECT_EQ(mb.row_conflicts, ma.row_conflicts);
  EXPECT_EQ(mb.read_latency_total, ma.read_latency_total);
  EXPECT_EQ(mb.write_latency_total, ma.write_latency_total);
  EXPECT_EQ(mb.approx_bytes, ma.approx_bytes);

  for (size_t i = 0; i < bases.size(); ++i) {
    const std::byte* fast_bytes = fast_regions.host_ptr(bases[i]);
    const std::byte* ref_bytes = ref_regions.host_ptr(bases[i]);
    const bool same = std::memcmp(fast_bytes, ref_bytes, w.regions[i].bytes) == 0;
    EXPECT_TRUE(same) << "backing store of region " << i;
  }

  totals.dedup_hits += a.dedup_hits;
  totals.unshares += a.unshares;
  totals.data_evictions += a.data_evictions;
  totals.tag_evictions += a.tag_evictions;
  totals.dram_writes += ma.writes;
}

TEST(DoppelgangerReference, FastModelMatchesReferenceOnSeededConfigsAndStreams) {
  std::vector<Workload> workloads;
  for (const char* pattern : {"chase", "zipf", "walk", "mixed"})
    for (double stores : {0.05, 0.5})
      workloads.push_back(trace_workload(pattern, stores, 7));
  workloads.push_back(churn_workload(0xD0ffe1));

  Totals totals;
  size_t configs = 0;
  for (uint64_t seed = 1; configs < 20 && seed <= 200; ++seed) {
    Xoshiro256 rng(seed);
    const SimConfig cfg = draw_config(rng);
    try {
      validate_config(cfg);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++configs;
    const std::string label = "seed " + std::to_string(seed) + ": " + config_diff(cfg);
    for (const Workload& w : workloads) {
      expect_same(cfg, w, seed, label, totals);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(configs, 20u);
  // The draws reach every path the two models could disagree on.
  EXPECT_GT(totals.dedup_hits, 0u);
  EXPECT_GT(totals.unshares, 0u);
  EXPECT_GT(totals.data_evictions, 0u);
  EXPECT_GT(totals.tag_evictions, 0u);
  EXPECT_GT(totals.dram_writes, 0u);
}

}  // namespace
}  // namespace avr
