#include "trace/trace_gen.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/prng.hh"
#include "common/types.hh"

namespace avr {
namespace trace {
namespace {

[[noreturn]] void bad_param(const char* field, const std::string& want,
                            const std::string& got) {
  throw std::invalid_argument(std::string("trace generator: ") + field + " must be " +
                              want + ", got " + got);
}

/// Rejects what no generator can honour as asked, rather than silently
/// substituting a value; the avr_trace_gen flag is named alongside.
/// `regions` is what the trace will really hold: mixed builds three region
/// groups from one request, so it passes its own total.
void check_params(const GenParams& p, uint64_t regions) {
  if (p.regions == 0 || p.regions > kMaxRegions)
    bad_param("regions (--regions)", "1.." + std::to_string(kMaxRegions),
              std::to_string(p.regions));
  // At least one cacheline so every pattern has room to move.
  if (p.region_bytes < kCachelineBytes || p.region_bytes % 4 != 0 ||
      p.region_bytes > kMaxRegionBytes)
    bad_param("region_bytes (--bytes)", "a multiple of 4 from 64 B to 1 GiB",
              std::to_string(p.region_bytes));
  if (regions * p.region_bytes > kMaxTraceFootprint)
    bad_param("footprint (--regions x --bytes)", "at most 256 MiB",
              std::to_string(regions * p.region_bytes));
  // Written so NaN fails too.
  if (!(p.store_fraction >= 0.0 && p.store_fraction <= 1.0)) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", p.store_fraction);
    bad_param("store_fraction (--stores)", "in [0, 1]", got);
  }
}

std::vector<TraceRegion> make_regions(const GenParams& p, const std::string& stem) {
  check_params(p, p.regions);
  std::vector<TraceRegion> regions;
  regions.reserve(p.regions);
  for (uint32_t i = 0; i < p.regions; ++i)
    regions.push_back({stem + std::to_string(i), p.region_bytes,
                       /*approx=*/true});
  return regions;
}

Op pick_op(Xoshiro256& rng, double store_fraction) {
  return rng.uniform() < store_fraction ? Op::kStore : Op::kLoad;
}

}  // namespace

Trace make_chase_trace(const GenParams& p) {
  Trace t;
  t.regions = make_regions(p, "chase");
  Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ull + 1);

  // One random cyclic permutation of cachelines per region (Sattolo's
  // algorithm: a single cycle, so the chain never gets stuck in a short
  // loop), chased line to line.
  const uint64_t lines = p.region_bytes / kCachelineBytes;
  std::vector<std::vector<uint32_t>> next(t.regions.size());
  for (auto& perm : next) {
    perm.resize(lines);
    for (uint64_t i = 0; i < lines; ++i) perm[i] = static_cast<uint32_t>(i);
    for (uint64_t i = lines - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.below(i)]);
  }
  std::vector<uint32_t> line(t.regions.size(), 0);

  t.records.reserve(p.records);
  for (uint64_t i = 0; i < p.records; ++i) {
    const uint16_t r = static_cast<uint16_t>(i % t.regions.size());
    const uint64_t word_in_line = rng.below(kCachelineBytes / 4);
    t.records.push_back({pick_op(rng, p.store_fraction), r, 4,
                         uint64_t{line[r]} * kCachelineBytes + word_in_line * 4});
    line[r] = next[r][line[r]];
  }
  return t;
}

Trace make_zipf_trace(const GenParams& p) {
  Trace t;
  t.regions = make_regions(p, "zipf");
  Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ull + 2);

  const uint64_t words = p.region_bytes / 4;
  t.records.reserve(p.records);
  for (uint64_t i = 0; i < p.records; ++i) {
    const uint16_t r = static_cast<uint16_t>(i % t.regions.size());
    // u^4 concentrates ~80 % of accesses on ~20 % of ranks without libm;
    // the multiplicative hash scatters hot ranks across the region so the
    // hot set is not one contiguous (trivially cacheable) range.
    const double u = rng.uniform();
    const double u4 = (u * u) * (u * u);
    const uint64_t rank = static_cast<uint64_t>(u4 * static_cast<double>(words));
    const uint64_t word = (rank * 2654435761ull) % words;
    t.records.push_back({pick_op(rng, p.store_fraction), r, 4, word * 4});
  }
  return t;
}

Trace make_walk_trace(const GenParams& p) {
  Trace t;
  t.regions = make_regions(p, "walk");
  Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ull + 3);

  const uint64_t words = p.region_bytes / 4;
  std::vector<uint64_t> pos(t.regions.size(), words / 2);
  t.records.reserve(p.records);
  for (uint64_t i = 0; i < p.records; ++i) {
    const uint16_t r = static_cast<uint16_t>(i % t.regions.size());
    if (rng.uniform() < 0.01) {
      pos[r] = rng.below(words);  // long jump
    } else {
      const int64_t step = static_cast<int64_t>(rng.below(33)) - 16;
      const int64_t p2 = static_cast<int64_t>(pos[r]) + step;
      pos[r] = static_cast<uint64_t>(std::clamp<int64_t>(
          p2, 0, static_cast<int64_t>(words) - 1));
    }
    // Mostly single words, sometimes a 16 B or 64 B burst (clamped to the
    // region end) — the variable-size path of the format.
    uint32_t size = 4;
    const double s = rng.uniform();
    if (s < 0.05)
      size = static_cast<uint32_t>(kCachelineBytes);
    else if (s < 0.20)
      size = 16;
    const uint64_t max_size = (words - pos[r]) * 4;
    size = static_cast<uint32_t>(std::min<uint64_t>(size, max_size));
    t.records.push_back({pick_op(rng, p.store_fraction), r, size, pos[r] * 4});
  }
  return t;
}

Trace make_mixed_trace(const GenParams& p) {
  // Each pattern gets its own region group; records interleave round-robin,
  // so the stream switches pattern (and region) every record.
  const uint32_t group_regions = std::max<uint32_t>(1, p.regions / 3);
  check_params(p, 3 * uint64_t{group_regions});
  GenParams sub = p;
  sub.regions = group_regions;
  sub.records = p.records / 3;
  const Trace parts[3] = {make_chase_trace(sub), make_zipf_trace(sub),
                          make_walk_trace(sub)};

  Trace t;
  uint16_t base[3];
  uint16_t next_region = 0;
  for (int g = 0; g < 3; ++g) {
    base[g] = next_region;
    for (const TraceRegion& r : parts[g].regions) {
      t.regions.push_back(r);
      ++next_region;
    }
  }
  t.records.reserve(3 * sub.records);
  for (uint64_t i = 0; i < sub.records; ++i)
    for (int g = 0; g < 3; ++g) {
      TraceRecord rec = parts[g].records[i];
      rec.region = static_cast<uint16_t>(rec.region + base[g]);
      t.records.push_back(rec);
    }
  return t;
}

Trace make_synthetic_trace(const std::string& pattern, const GenParams& p) {
  if (pattern == "chase") return make_chase_trace(p);
  if (pattern == "zipf") return make_zipf_trace(p);
  if (pattern == "walk") return make_walk_trace(p);
  if (pattern == "mixed") return make_mixed_trace(p);
  throw std::invalid_argument("unknown trace pattern: " + pattern +
                              " (want chase, zipf, walk or mixed)");
}

}  // namespace trace
}  // namespace avr
