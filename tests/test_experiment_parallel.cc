// Parallel sweep tests: run_all must produce bit-identical results to serial
// run() calls, stay deterministic across repeated sweeps, and keep the
// result/golden caches and each config's first disk load race-free under
// concurrent points.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

const std::vector<std::string> kWorkloads = {"bscholes", "orbit", "kmeans"};
const std::vector<Design> kDesigns = {Design::kBaseline, Design::kTruncate,
                                      Design::kAvr};

void expect_same(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.m.cycles, b.m.cycles);
  EXPECT_EQ(a.m.instructions, b.m.instructions);
  EXPECT_EQ(a.m.llc_requests, b.m.llc_requests);
  EXPECT_EQ(a.m.llc_misses, b.m.llc_misses);
  EXPECT_EQ(a.m.dram_bytes, b.m.dram_bytes);
  EXPECT_EQ(a.m.dram_bytes_approx, b.m.dram_bytes_approx);
  EXPECT_EQ(a.m.metadata_bytes, b.m.metadata_bytes);
  EXPECT_EQ(a.m.footprint_bytes, b.m.footprint_bytes);
  EXPECT_EQ(a.m.approx_bytes, b.m.approx_bytes);
  EXPECT_DOUBLE_EQ(a.m.ipc, b.m.ipc);
  EXPECT_DOUBLE_EQ(a.m.amat, b.m.amat);
  EXPECT_DOUBLE_EQ(a.m.llc_mpki, b.m.llc_mpki);
  EXPECT_DOUBLE_EQ(a.m.compression_ratio, b.m.compression_ratio);
  EXPECT_DOUBLE_EQ(a.m.output_error, b.m.output_error);
  EXPECT_DOUBLE_EQ(a.m.energy.total(), b.m.energy.total());
  EXPECT_EQ(a.m.detail, b.m.detail);
}

TEST(ExperimentRunnerParallel, RunAllMatchesSerialRun) {
  ExperimentRunner serial({}, false, "");
  ExperimentRunner parallel({}, false, "");

  std::vector<ExperimentResult> want;
  for (const auto& w : kWorkloads)
    for (Design d : kDesigns) want.push_back(serial.run(w, d));

  const auto got = parallel.run_all(kWorkloads, kDesigns, 4);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) expect_same(got[i], want[i]);
}

TEST(ExperimentRunnerParallel, SingleThreadPoolMatchesSerial) {
  ExperimentRunner serial({}, false, "");
  ExperimentRunner pool1({}, false, "");
  const auto got = pool1.run_all({"bscholes"}, kDesigns, 1);
  ASSERT_EQ(got.size(), kDesigns.size());
  for (size_t i = 0; i < kDesigns.size(); ++i)
    expect_same(got[i], serial.run("bscholes", kDesigns[i]));
}

TEST(ExperimentRunnerParallel, RepeatedSweepIsCachedAndIdentical) {
  ExperimentRunner r({}, false, "");
  const auto first = r.run_all(kWorkloads, kDesigns, 4);
  // Second sweep must be pure cache lookup with identical values.
  const auto second = r.run_all(kWorkloads, kDesigns, 4);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) expect_same(first[i], second[i]);
}

TEST(ExperimentRunnerParallel, ResultsInWorkloadMajorOrder) {
  ExperimentRunner r({}, false, "");
  const auto got = r.run_all({"bscholes", "wrf"}, {Design::kBaseline, Design::kAvr}, 2);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].workload, "bscholes");
  EXPECT_EQ(got[0].design, Design::kBaseline);
  EXPECT_EQ(got[1].workload, "bscholes");
  EXPECT_EQ(got[1].design, Design::kAvr);
  EXPECT_EQ(got[2].workload, "wrf");
  EXPECT_EQ(got[2].design, Design::kBaseline);
  EXPECT_EQ(got[3].workload, "wrf");
  EXPECT_EQ(got[3].design, Design::kAvr);
}

TEST(ExperimentRunnerParallel, ConcurrentOverlappingRunsAreRaceFree) {
  // Many threads hammer run() on overlapping points (same workloads, same
  // designs) — the caches must stay consistent and every thread must observe
  // the same values. Run under TSan/ASan via -DAVR_SANITIZE=ON for the full
  // story; value equality catches torn results even without it.
  ExperimentRunner r({}, false, "");
  constexpr int kThreads = 8;
  std::vector<std::vector<ExperimentResult>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const auto& w : {std::string("bscholes"), std::string("wrf")})
        for (Design d : {Design::kBaseline, Design::kAvr})
          seen[t].push_back(r.run(w, d));
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), seen[0].size());
    for (size_t i = 0; i < seen[0].size(); ++i) expect_same(seen[t][i], seen[0][i]);
  }
}

TEST(ExperimentRunnerParallel, RacingFirstReadsLoadEachConfigOnce) {
  // Threads reach two configs' points for the first time together: each
  // config's records are read from the file exactly once, and every thread
  // sees them.
  const std::string cache = std::filesystem::temp_directory_path() /
                            "avr_test_racing_first_reads.csv";
  std::remove(cache.c_str());
  SimConfig t1;
  t1.avr.t1_override = 6;
  for (const SimConfig& cfg : {SimConfig{}, t1}) {
    ExperimentResult res;
    res.workload = "kmeans";
    res.design = Design::kAvr;
    res.config_hash = config_fingerprint(cfg);
    res.wall_seconds = 1.0 + cfg.avr.t1_override;  // tells the records apart
    ASSERT_TRUE(append_result_line(cache, res));
  }
  ExperimentRunner r({}, false, cache);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < 2; ++i) {
        const SimConfig& cfg = (t + i) % 2 ? t1 : SimConfig{};
        const sweep::VariantPoint vp{cfg, {"kmeans", Design::kAvr}};
        if (!r.cached(vp) || r.run(vp).wall_seconds != 1.0 + cfg.avr.t1_override)
          wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(r.profile_totals().phase_calls(prof::Phase::kCacheIo), 2u);
  EXPECT_EQ(r.profile_totals().count(prof::Counter::kPointsSimulated), 0u);
  std::remove(cache.c_str());
}

TEST(ExperimentRunnerParallel, UnknownWorkloadPropagatesException) {
  ExperimentRunner r({}, false, "");
  EXPECT_THROW(r.run_all({"bscholes", "nosuch"}, {Design::kBaseline}, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace avr
