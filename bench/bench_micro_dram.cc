// Micro-benchmarks of the DDR4 timing model: modeled latency (reported as
// the "latency" counter, CPU cycles) for the access patterns that matter to
// AVR, plus simulator throughput.
#include <benchmark/benchmark.h>

#include "common/prng.hh"
#include "dram/dram.hh"

namespace {

using namespace avr;

/// Modeled latency of an isolated 64 B line read.
void BM_LineReadLatency(benchmark::State& state) {
  uint64_t total = 0, n = 0;
  for (auto _ : state) {
    Dram d((DramConfig()));
    const uint64_t lat = d.read(0, 0x1000, 64, false);
    benchmark::DoNotOptimize(lat);
    total += lat;
    ++n;
  }
  state.counters["modeled_latency_cycles"] =
      static_cast<double>(total) / static_cast<double>(n);
}
BENCHMARK(BM_LineReadLatency);

/// Modeled latency of a whole compressed-block read (k consecutive lines).
void BM_BlockReadLatency(benchmark::State& state) {
  const uint32_t lines = static_cast<uint32_t>(state.range(0));
  uint64_t total = 0, n = 0;
  for (auto _ : state) {
    Dram d((DramConfig()));
    const uint64_t lat = d.read(0, 0x1000, lines * 64, false);
    benchmark::DoNotOptimize(lat);
    total += lat;
    ++n;
  }
  state.counters["modeled_latency_cycles"] =
      static_cast<double>(total) / static_cast<double>(n);
}
BENCHMARK(BM_BlockReadLatency)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Simulator throughput under a random-access stream.
void BM_RandomStreamThroughput(benchmark::State& state) {
  Dram d((DramConfig()));
  Xoshiro256 rng(3);
  uint64_t now = 0;
  for (auto _ : state) {
    now += d.read(now, rng.below(1 << 24) * 64, 64, false);
    benchmark::DoNotOptimize(now);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_RandomStreamThroughput);

}  // namespace

BENCHMARK_MAIN();
