// Micro-benchmarks of the end-to-end per-access simulation chain: what one
// instrumented workload load/store costs through System -> IntervalCore ->
// MemoryHierarchy -> (LLC subsystem), for the access mixes that dominate the
// paper sweep (L1-resident streaming, L1-hit re-reads, LLC-bound strides)
// plus a miniature Jacobi kernel as a workload-shaped composite.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/profile.hh"
#include "runtime/system.hh"
#include "trace/trace_format.hh"
#include "trace/trace_gen.hh"
#include "trace/trace_replay.hh"

namespace {

using namespace avr;

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.scale_caches(16);  // L1 4 kB, L2 16 kB, LLC 512 kB
  return cfg;
}

/// One instrumented load through the workload-facing access chain (the
/// RegionHandle API every workload programs against), streaming 4 B values
/// over an L1-resident window: the dominant access pattern of the paper's
/// kernels (16 consecutive hits per cacheline).
void BM_AccessChain(benchmark::State& state) {
  System sys(Design::kBaseline, small_cfg());
  const uint64_t bytes = 2048;  // half of the scaled L1
  const RegionHandle h = sys.alloc_region("bench.chain", bytes, /*approx=*/false);
  // Warm the window into the L1.
  for (uint64_t off = 0; off < bytes; off += 4) sys.load_f32(h, off);
  uint64_t off = 0;
  float acc = 0;
  for (auto _ : state) {
    acc += sys.load_f32(h, off);
    off = (off + 4) & (bytes - 1);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_AccessChain);

/// Same window driven through instrumented stores (write hits).
void BM_AccessChainStore(benchmark::State& state) {
  System sys(Design::kBaseline, small_cfg());
  const uint64_t bytes = 2048;
  const RegionHandle h = sys.alloc_region("bench.chain", bytes, /*approx=*/false);
  for (uint64_t off = 0; off < bytes; off += 4) sys.store_f32(h, off, 1.0f);
  uint64_t off = 0;
  for (auto _ : state) {
    sys.store_f32(h, off, 2.0f);
    off = (off + 4) & (bytes - 1);
  }
  benchmark::DoNotOptimize(off);
}
BENCHMARK(BM_AccessChainStore);

/// The address-based runtime API (kept for tests and non-ported callers):
/// same L1-resident stream as BM_AccessChain, always through the
/// RegionRegistry address translation.
void BM_AccessChainAddr(benchmark::State& state) {
  System sys(Design::kBaseline, small_cfg());
  const uint64_t bytes = 2048;
  const uint64_t a = sys.alloc("bench.chain", bytes, /*approx=*/false);
  for (uint64_t off = 0; off < bytes; off += 4) sys.load_f32(a + off);
  uint64_t off = 0;
  float acc = 0;
  for (auto _ : state) {
    acc += sys.load_f32(a + off);
    off = (off + 4) & (bytes - 1);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_AccessChainAddr);

/// Heat's stencil pattern: four lines of one L1 set read in turn (a column's
/// four rows, 1 kB apart in the scaled L1's 16 sets), so every access
/// changes its set's MRU line and the MRU filter misses each one, while
/// every access is an L1 hit.
void BM_AccessChainL1Rotate(benchmark::State& state) {
  System sys(Design::kBaseline, small_cfg());
  constexpr uint64_t kRow = 1024;
  const RegionHandle h = sys.alloc_region("bench.rotate", 4 * kRow, /*approx=*/false);
  for (uint64_t row = 0; row < 4; ++row) sys.load_f32(h, row * kRow);
  uint64_t i = 0;
  float acc = 0;
  for (auto _ : state) {
    // Rows turn every access; the word within the line every four.
    acc += sys.load_f32(h, (i & 3) * kRow + (i & 60));
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_AccessChainL1Rotate);

/// Line-stride reads over a window larger than the private caches but
/// LLC-resident: every access walks the full L1 -> L2 -> LLC dispatch.
void BM_AccessChainLlc(benchmark::State& state) {
  System sys(Design::kBaseline, small_cfg());
  const uint64_t bytes = 256 * 1024;  // > L2 (16 kB), within the 512 kB LLC
  const uint64_t a = sys.alloc("bench.llc", bytes, /*approx=*/false);
  for (uint64_t off = 0; off < bytes; off += kCachelineBytes)
    sys.load_f32(a + off);
  uint64_t off = 0;
  float acc = 0;
  for (auto _ : state) {
    acc += sys.load_f32(a + off);
    off = (off + kCachelineBytes) & (bytes - 1);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_AccessChainLlc);

/// Workload-shaped composite: one 5-point Jacobi sweep over a 64x64 grid
/// through the instrumented runtime API (the inner loop every stencil
/// workload in src/workloads/ executes millions of times).
void BM_WorkloadKernel(benchmark::State& state) {
  constexpr uint32_t kN = 64;
  System sys(Design::kBaseline, small_cfg());
  const uint64_t bytes = uint64_t{kN} * kN * sizeof(float);
  const RegionHandle src = sys.alloc_region("bench.src", bytes, /*approx=*/true);
  const RegionHandle dst = sys.alloc_region("bench.dst", bytes, /*approx=*/true);
  auto at = [](uint32_t r, uint32_t c) {
    return (uint64_t{r} * kN + c) * sizeof(float);
  };
  for (uint32_t r = 0; r < kN; ++r)
    for (uint32_t c = 0; c < kN; ++c)
      sys.store_f32(src, at(r, c), 1.0f + 0.01f * static_cast<float>(r + c));
  for (auto _ : state) {
    for (uint32_t r = 1; r + 1 < kN; ++r)
      for (uint32_t c = 1; c + 1 < kN; ++c) {
        const float up = sys.load_f32(src, at(r - 1, c));
        const float dn = sys.load_f32(src, at(r + 1, c));
        const float lf = sys.load_f32(src, at(r, c - 1));
        const float rt = sys.load_f32(src, at(r, c + 1));
        sys.store_f32(dst, at(r, c), 0.25f * (up + dn + lf + rt));
      }
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kN - 2} * (kN - 2) * 5);
}
BENCHMARK(BM_WorkloadKernel);

/// BM_WorkloadKernel with an active profile sink installed, as a sweep point
/// runs it: the delta against BM_WorkloadKernel is the always-on profiling
/// layer's overhead on real simulation work (acceptance bound: < 1%). Timers
/// fire per *phase*, never per access, so the sink merely being active costs
/// nothing on this path — the two benches should be within noise.
void BM_WorkloadKernelProfiled(benchmark::State& state) {
  constexpr uint32_t kN = 64;
  prof::Totals totals;
  prof::ScopedSink sink(&totals);
  System sys(Design::kBaseline, small_cfg());
  const uint64_t bytes = uint64_t{kN} * kN * sizeof(float);
  const RegionHandle src = sys.alloc_region("bench.src", bytes, /*approx=*/true);
  const RegionHandle dst = sys.alloc_region("bench.dst", bytes, /*approx=*/true);
  auto at = [](uint32_t r, uint32_t c) {
    return (uint64_t{r} * kN + c) * sizeof(float);
  };
  for (uint32_t r = 0; r < kN; ++r)
    for (uint32_t c = 0; c < kN; ++c)
      sys.store_f32(src, at(r, c), 1.0f + 0.01f * static_cast<float>(r + c));
  for (auto _ : state) {
    AVR_PROF_SCOPE(prof::Phase::kTiming);
    for (uint32_t r = 1; r + 1 < kN; ++r)
      for (uint32_t c = 1; c + 1 < kN; ++c) {
        const float up = sys.load_f32(src, at(r - 1, c));
        const float dn = sys.load_f32(src, at(r + 1, c));
        const float lf = sys.load_f32(src, at(r, c - 1));
        const float rt = sys.load_f32(src, at(r, c + 1));
        sys.store_f32(dst, at(r, c), 0.25f * (up + dn + lf + rt));
      }
  }
  benchmark::DoNotOptimize(totals);
  state.SetItemsProcessed(state.iterations() * int64_t{kN - 2} * (kN - 2) * 5);
}
BENCHMARK(BM_WorkloadKernelProfiled);

/// One ScopedTimer enter+exit with an installed sink: the marginal cost of
/// adding a profiled phase (two clock_gettime reads + the accumulate).
void BM_ProfileScopedTimer(benchmark::State& state) {
  prof::Totals totals;
  prof::ScopedSink sink(&totals);
  for (auto _ : state) {
    AVR_PROF_SCOPE(prof::Phase::kTiming);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(totals);
}
BENCHMARK(BM_ProfileScopedTimer);

/// The same scope with NO sink installed — what every timer in a
/// non-profiled context (a System run outside ExperimentRunner, as in tests and
/// examples) costs: a TLS load + branch.
void BM_ProfileScopedTimerIdle(benchmark::State& state) {
  for (auto _ : state) {
    AVR_PROF_SCOPE(prof::Phase::kTiming);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfileScopedTimerIdle);

/// Trace replay through the full instrumented chain: a pointer-chase stream
/// with no loop structure, the adversarial case for the L1 MRU line filter
/// (every access lands on a different cacheline). Items = replayed accesses.
void BM_TraceReplay(benchmark::State& state) {
  trace::GenParams p;
  p.records = 16384;
  p.regions = 2;
  p.region_bytes = 1 << 16;
  p.seed = 7;
  const trace::Trace t = trace::make_chase_trace(p);
  System sys(Design::kBaseline, small_cfg());
  std::vector<RegionHandle> handles;
  for (const auto& r : t.regions)
    handles.push_back(sys.alloc_region(r.name, r.bytes, r.approx));
  for (size_t i = 0; i < handles.size(); ++i)
    trace::init_region(sys, handles[i], 0x517EC0DE + i);
  for (auto _ : state) {
    trace::ReplayCursor cursor(t.regions.size());
    trace::replay(sys, t, handles, cursor);
    benchmark::DoNotOptimize(cursor.loads);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(t.access_count()));
}
BENCHMARK(BM_TraceReplay);

/// Same chain under a Zipf-skewed stream with variable record sizes mixed
/// in: hot-set hits dominate, so this bounds replay overhead when the L1
/// filter mostly works.
void BM_TraceReplayZipf(benchmark::State& state) {
  trace::GenParams p;
  p.records = 16384;
  p.regions = 1;
  p.region_bytes = 1 << 17;
  p.seed = 9;
  const trace::Trace t = trace::make_zipf_trace(p);
  System sys(Design::kBaseline, small_cfg());
  std::vector<RegionHandle> handles;
  for (const auto& r : t.regions)
    handles.push_back(sys.alloc_region(r.name, r.bytes, r.approx));
  trace::init_region(sys, handles[0], 0x517EC0DE);
  for (auto _ : state) {
    trace::ReplayCursor cursor(t.regions.size());
    trace::replay(sys, t, handles, cursor);
    benchmark::DoNotOptimize(cursor.loads);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(t.access_count()));
}
BENCHMARK(BM_TraceReplayZipf);

/// A 32768-record trace file in the system temp directory, removed when the
/// bench ends; what one trace-mix input holds.
struct TempTrace {
  std::string path;
  trace::Trace t;

  TempTrace() {
    const std::string name = "avr_bench_" + std::to_string(::getpid()) + ".trace";
    path = (std::filesystem::temp_directory_path() / name).string();
    trace::GenParams p;
    p.records = 32768;
    p.seed = 11;
    t = trace::make_chase_trace(p);
  }
  ~TempTrace() { std::filesystem::remove(path); }
};

/// Trace encode + validation + temp-file write and rename: the per-trace
/// cost of avr_trace_gen beyond generation. Items = records.
void BM_TraceWrite(benchmark::State& state) {
  TempTrace f;
  std::string err;
  for (auto _ : state)
    if (!trace::write_trace_file(f.path, f.t, &err)) state.SkipWithError(err.c_str());
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(f.t.records.size()));
}
BENCHMARK(BM_TraceWrite);

/// Trace file read + decode + validation under the tolerant-reader contract:
/// what a sweep pays per trace before its `[sweep]` header. Items = records.
void BM_TraceRead(benchmark::State& state) {
  TempTrace f;
  std::string err;
  if (!trace::write_trace_file(f.path, f.t, &err)) state.SkipWithError(err.c_str());
  for (auto _ : state) {
    trace::Trace back;
    if (!trace::read_trace_file(f.path, &back, &err)) state.SkipWithError(err.c_str());
    benchmark::DoNotOptimize(back.records.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(f.t.records.size()));
}
BENCHMARK(BM_TraceRead);

}  // namespace

BENCHMARK_MAIN();
