// Micro-benchmarks of the decoupled AVR LLC model vs a conventional
// set-associative cache model, plus the Doppelganger miss path (simulator
// throughput, not hardware latency).
#include <benchmark/benchmark.h>

#include "avr/avr_llc.hh"
#include "baselines/doppelganger_system.hh"
#include "cache/set_assoc_cache.hh"
#include "common/prng.hh"

namespace {

using namespace avr;

void BM_ConventionalLookup(benchmark::State& state) {
  SetAssocCache c(1 << 20, 16);
  Xoshiro256 rng(1);
  for (int i = 0; i < 8192; ++i) {
    const uint64_t line = rng.below(1 << 14) * 64;
    const SetAssocCache::Slot slot = c.lookup(line, false);
    if (!slot.hit) c.fill(slot, line, false);
  }
  Xoshiro256 addr(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup(addr.below(1 << 14) * 64, false).hit);
  }
}
BENCHMARK(BM_ConventionalLookup);

// Every lookup misses and installs through its slot: a cyclic stream over
// twice the capacity evicts each line before it comes round again, so each
// iteration is one scan of a full 16-way set that picks the LRU victim, then
// the fill into that way.
void BM_SetAssocMissFill(benchmark::State& state) {
  constexpr uint64_t kBytes = 1 << 20;
  SetAssocCache c(kBytes, 16);
  const uint64_t lines = 2 * kBytes / kCachelineBytes;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t line = i * kCachelineBytes;
    const SetAssocCache::Slot slot = c.lookup(line, false);
    benchmark::DoNotOptimize(c.fill(slot, line, false));
    if (++i == lines) i = 0;
  }
  if (c.counters().hits != 0) state.SkipWithError("stream hit the cache");
}
BENCHMARK(BM_SetAssocMissFill);

void BM_AvrUclLookup(benchmark::State& state) {
  AvrLlc llc(CacheConfig{1 << 20, 16, 15});
  Xoshiro256 rng(1);
  std::vector<LlcVictim> v;
  for (int i = 0; i < 8192; ++i) {
    const uint64_t line = rng.below(1 << 14) * 64;
    if (!llc.ucl_present(line)) llc.ucl_insert(line, false, v);
    v.clear();
  }
  Xoshiro256 addr(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.ucl_access(addr.below(1 << 14) * 64, false));
  }
}
BENCHMARK(BM_AvrUclLookup);

void BM_AvrCmsInsertRemove(benchmark::State& state) {
  AvrLlc llc(CacheConfig{1 << 20, 16, 15});
  std::vector<LlcVictim> v;
  uint64_t block = 0;
  for (auto _ : state) {
    llc.cms_insert(block * kBlockBytes, 4, false, v);
    llc.cms_remove(block * kBlockBytes);
    v.clear();
    block = (block + 1) & 1023;
  }
}
BENCHMARK(BM_AvrCmsInsertRemove);

void BM_AvrUclInsertEvict(benchmark::State& state) {
  AvrLlc llc(CacheConfig{64 * 1024, 8, 15});
  Xoshiro256 rng(7);
  std::vector<LlcVictim> v;
  for (auto _ : state) {
    const uint64_t line = rng.below(1 << 16) * 64;
    if (!llc.ucl_present(line)) llc.ucl_insert(line, false, v);
    v.clear();
  }
}
BENCHMARK(BM_AvrUclInsertEvict);

// Doppelganger in steady state with its data array full: a cyclic stream
// over twice the data capacity of exact lines misses on every request, so
// each one evicts the data array's LRU entry (and its tag) before it
// installs. A victim search that scanned the array would make this O(N).
void BM_DoppelgangerMissStream(benchmark::State& state) {
  SimConfig cfg;
  cfg.llc = {1 << 20, 16, 15};
  RegionRegistry regions;
  DoppelgangerSystem sys(cfg, regions);
  const uint64_t lines = 2 * cfg.llc.size_bytes / kCachelineBytes;
  const uint64_t base =
      regions.allocate("stream", lines * kCachelineBytes, /*approx=*/false);
  uint64_t now = 0;
  for (uint64_t i = 0; i < lines; ++i, now += 100)
    sys.request(now, base + i * kCachelineBytes, false);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.request(now, base + i * kCachelineBytes, false));
    now += 100;
    if (++i == lines) i = 0;
  }
  if (sys.counters().hits != 0) state.SkipWithError("stream hit the LLC");
}
BENCHMARK(BM_DoppelgangerMissStream);

// Doppelganger's approximate miss path: a cyclic stream over four times the
// tag capacity of approximate lines misses on every read. Half the lines
// hold one of 256 repeated patterns, so a miss maps the line's key and
// often deduplicates onto a resident entry; the other half hold noise and
// take a data entry of their own, so the full data array evicts its LRU
// entry with all of its sharers and the tag array detaches its LRU tags
// (erasing their keys). Every eighth iteration also writes the line it just
// read, a hit that unshares it when it deduplicated.
void BM_DoppelgangerApproxMissStream(benchmark::State& state) {
  SimConfig cfg;
  cfg.llc = {64 * 1024, 16, 15};
  RegionRegistry regions;
  DoppelgangerSystem sys(cfg, regions);
  const uint64_t lines = 4 * cfg.dg_tag_factor * cfg.llc.size_bytes / kCachelineBytes;
  const uint64_t base =
      regions.allocate("stream", lines * kCachelineBytes, /*approx=*/true);
  Xoshiro256 rng(11);
  for (uint64_t i = 0; i < lines; ++i) {
    const bool patterned = rng.below(2) != 0;
    const float v0 = static_cast<float>(rng.below(256));
    for (uint32_t k = 0; k < kValuesPerLine; ++k)
      regions.store<float>(base + i * kCachelineBytes + k * 4,
                           patterned ? v0 + 0.25f * static_cast<float>(k)
                                     : static_cast<float>(rng.uniform(0, 256)));
  }
  uint64_t now = 0;
  const auto step = [&](uint64_t i) {
    const uint64_t line = base + i * kCachelineBytes;
    benchmark::DoNotOptimize(sys.request(now, line, false));
    if ((i & 7) == 0) benchmark::DoNotOptimize(sys.request(now, line, true));
    now += 100;
  };
  for (uint64_t i = 0; i < lines; ++i) step(i);  // reach steady state
  const DoppelgangerCounters& c = sys.counters();
  if (c.dedup_hits == 0 || c.unshares == 0 || c.data_evictions == 0 ||
      c.tag_evictions == 0)
    state.SkipWithError("the stream misses a Doppelganger path");
  uint64_t i = 0;
  for (auto _ : state) {
    step(i);
    if (++i == lines) i = 0;
  }
}
BENCHMARK(BM_DoppelgangerApproxMissStream);

}  // namespace

BENCHMARK_MAIN();
