// Trace replay as a first-class sweep point: deterministic replay, pinned
// golden digests for a bundled trace on every design, eager (startup-time)
// rejection of bad workload names and trace specs, the per-process trace
// and region-image memos, and cache integration.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "runtime/system.hh"
#include "trace/trace_gen.hh"
#include "trace/trace_replay.hh"
#include "workloads/trace.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

/// Bundled starter traces live in data/traces/; CTest injects the absolute
/// source path via AVR_TRACE_DIR (tests run with CWD=build).
std::string trace_dir() {
  if (const char* env = std::getenv("AVR_TRACE_DIR")) return env;
  for (const char* guess : {"data/traces", "../data/traces"}) {
    std::ifstream probe(std::string(guess) + "/zipf.trace");
    if (probe.good()) return guess;
  }
  return "data/traces";
}

std::string bundled(const std::string& file) { return trace_dir() + "/" + file; }

/// The per-workload config the ExperimentRunner simulates under
/// (ExperimentRunner::config_for with the default base).
SimConfig point_config(const Workload& wl) {
  SimConfig cfg;
  cfg.scale_caches(wl.cache_scale());
  cfg.llc.size_bytes = wl.llc_bytes();
  cfg.avr.t1_mantissa_msbit = wl.t1_msbit();
  return cfg;
}

uint64_t fnv1a(const std::vector<double>& out) {
  uint64_t h = 1469598103934665603ull;
  for (double d : out) {
    uint64_t v = std::bit_cast<uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (v & 0xFF)) * 1099511628211ull;
      v >>= 8;
    }
  }
  return h;
}

trace::Trace test_trace() {
  trace::GenParams p;
  p.records = 4096;
  p.regions = 3;
  p.region_bytes = 32768;
  p.seed = 21;
  return trace::make_mixed_trace(p);
}

// ---- replay determinism ----------------------------------------------------

TEST(TraceWorkload, ReplayIsBitDeterministic) {
  std::vector<double> outs[2];
  RunMetrics ms[2];
  for (int run = 0; run < 2; ++run) {
    auto wl = make_trace_workload("trace:mem", test_trace());
    System sys(Design::kAvr, point_config(*wl));
    wl->run(sys);
    sys.finish();
    outs[run] = wl->output(sys);
    ms[run] = sys.metrics();
  }
  ASSERT_FALSE(outs[0].empty());
  ASSERT_EQ(outs[0].size(), outs[1].size());
  for (size_t i = 0; i < outs[0].size(); ++i)
    EXPECT_EQ(std::bit_cast<uint64_t>(outs[0][i]),
              std::bit_cast<uint64_t>(outs[1][i]))
        << "output word " << i << " differs between identical replays";
  EXPECT_EQ(ms[0].cycles, ms[1].cycles);
  EXPECT_EQ(ms[0].dram_bytes, ms[1].dram_bytes);
  EXPECT_EQ(ms[0].llc_misses, ms[1].llc_misses);
  EXPECT_EQ(ms[0].compression_ratio, ms[1].compression_ratio);
}

TEST(TraceWorkload, FunctionalAndTimingRunsAgreeOnOutput) {
  // Same design, timing on vs off: the functional payload must not depend
  // on the timing machinery (this is what makes golden runs meaningful).
  auto wl_t = make_trace_workload("trace:mem", test_trace());
  System timing(Design::kBaseline, point_config(*wl_t));
  wl_t->run(timing);
  timing.finish();

  auto wl_f = make_trace_workload("trace:mem", test_trace());
  System functional(Design::kBaseline, point_config(*wl_f), 1, /*timing=*/false);
  wl_f->run(functional);

  const auto a = wl_t->output(timing);
  const auto b = wl_f->output(functional);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i])) << i;
}

// ---- pinned golden digests -------------------------------------------------

// FNV-1a digests of the trace:zipf.trace output vector on every design,
// captured when the trace frontend landed. Replay must stay bit-identical:
// any drift in the PRNG, generators, replay order, or store values shows up
// here as a digest mismatch.
const std::map<Design, uint64_t> kZipfDigests = {
    {Design::kBaseline, 0xe3b7b62cbba8352cull},
    {Design::kDoppelganger, 0xe3b7b62cbba8352cull},
    {Design::kTruncate, 0x98f5ba7fc2baf0e5ull},
    {Design::kZeroAvr, 0xe3b7b62cbba8352cull},
    {Design::kAvr, 0xd5b05d23366c51a2ull},
};

class TraceGoldenDigest : public ::testing::TestWithParam<Design> {};

TEST_P(TraceGoldenDigest, BundledZipfTraceIsPinned) {
  const Design d = GetParam();
  // Replay a memo hit: the first load parses, the second shares its trace.
  const std::string spec = "trace:" + bundled("zipf.trace");
  (void)make_workload(spec);
  const uint64_t parses = trace_file_parses();
  auto wl = make_workload(spec);
  EXPECT_EQ(trace_file_parses(), parses) << "an unchanged file was re-parsed";
  System sys(d, point_config(*wl));
  wl->run(sys);
  sys.finish();
  const uint64_t got = fnv1a(wl->output(sys));
  EXPECT_EQ(got, kZipfDigests.at(d))
      << to_string(d) << ": digest 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, TraceGoldenDigest,
                         ::testing::ValuesIn(ExperimentRunner::paper_designs()),
                         [](const auto& info) { return to_string(info.param); });

// ---- eager error paths (the make_workload silent-success fix) --------------

TEST(TraceWorkloadErrors, UnknownWorkloadNameListsAlternatives) {
  try {
    (void)make_workload("definitely_not_a_workload");
    FAIL() << "unknown name must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("known:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace:<path>"), std::string::npos) << msg;
  }
}

TEST(TraceWorkloadErrors, MissingTraceFileFailsAtMakeWorkloadTime) {
  try {
    (void)make_workload("trace:/no/such/file.trace");
    FAIL() << "missing trace file must throw eagerly";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace:/no/such/file.trace"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
  }
}

TEST(TraceWorkloadErrors, EmptyAndCacheHostilePathsAreRejected) {
  EXPECT_THROW((void)make_workload("trace:"), std::invalid_argument);
  // ',' and newlines would corrupt the result-cache CSV key space.
  EXPECT_THROW((void)make_workload("trace:a,b.trace"), std::invalid_argument);
  EXPECT_THROW((void)make_workload("trace:a\nb.trace"), std::invalid_argument);
}

TEST(TraceWorkloadErrors, CorruptTraceFileFailsAtMakeWorkloadTime) {
  const std::string path = ::testing::TempDir() + "corrupt.trace";
  std::ofstream(path, std::ios::binary) << "not a trace";
  EXPECT_THROW((void)make_workload("trace:" + path), std::invalid_argument);
}

TEST(TraceWorkloadErrors, ParseWorkloadListValidatesTraceSpecsEagerly) {
  EXPECT_THROW(sweep::parse_workload_list("heat,trace:/no/such/file.trace"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_workload_list("not_a_workload"),
               std::invalid_argument);
  const auto pts = sweep::parse_workload_list(
      "heat,trace:" + bundled("chase.trace"));
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0], "heat");
}

TEST(TraceWorkloadErrors, DuplicateRegistrationThrows) {
  // "heat" is taken by the built-in kernel at static-init time.
  EXPECT_THROW(register_workload("heat", nullptr), std::logic_error);
}

// ---- the per-process trace memo ------------------------------------------

/// Writes `t` to a fresh file under the test temp dir; returns its path.
std::string write_temp_trace(const std::string& file, const trace::Trace& t) {
  const std::string path = ::testing::TempDir() + file;
  std::string err;
  EXPECT_TRUE(trace::write_trace_file(path, t, &err)) << err;
  return path;
}

trace::Trace chase_trace(uint64_t records, uint64_t seed) {
  trace::GenParams p;
  p.records = records;
  p.regions = 2;
  p.region_bytes = 16384;
  p.seed = seed;
  return trace::make_chase_trace(p);
}

TEST(TraceMemo, UnchangedFileIsParsedOnce) {
  const std::string spec =
      "trace:" + write_temp_trace("memo_once.trace", chase_trace(1000, 1));
  const uint64_t before = trace_file_parses();
  auto a = make_workload(spec);
  auto b = make_workload(spec);
  EXPECT_EQ(trace_file_parses(), before + 1);
  EXPECT_EQ(a->access_estimate(), b->access_estimate());
  EXPECT_EQ(b->access_estimate(), chase_trace(1000, 1).access_count());
}

TEST(TraceMemo, RewrittenFileIsReparsed) {
  // write_trace_file lands by rename: the rewrite is a new inode of the
  // same size, so only the inode tells the versions apart.
  const trace::Trace first = chase_trace(1000, 1);
  const std::string path = write_temp_trace("memo_rewrite.trace", first);
  const std::string spec = "trace:" + path;
  auto wl1 = make_workload(spec);
  System s1(Design::kBaseline, point_config(*wl1), 1, /*timing=*/false);
  wl1->run(s1);
  const uint64_t before = trace_file_parses();

  const trace::Trace second = chase_trace(1000, 2);
  write_temp_trace("memo_rewrite.trace", second);
  auto wl2 = make_workload(spec);
  EXPECT_EQ(trace_file_parses(), before + 1);
  System s2(Design::kBaseline, point_config(*wl2), 1, /*timing=*/false);
  wl2->run(s2);
  auto fresh = make_trace_workload("trace:mem", second);
  System s3(Design::kBaseline, point_config(*fresh), 1, /*timing=*/false);
  fresh->run(s3);
  EXPECT_EQ(fnv1a(wl2->output(s2)), fnv1a(fresh->output(s3)))
      << "the rewritten file's contents were not replayed";
  EXPECT_NE(fnv1a(wl2->output(s2)), fnv1a(wl1->output(s1)));
}

TEST(TraceMemo, TruncatedFileThrowsNamingIt) {
  const std::string path = write_temp_trace("memo_truncate.trace", chase_trace(1000, 3));
  const std::string spec = "trace:" + path;
  (void)make_workload(spec);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  for (int call = 0; call < 2; ++call) {  // a failure is never cached
    try {
      (void)make_workload(spec);
      FAIL() << "a truncated trace must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
}

TEST(TraceMemo, DeletedFileThrowsAsMissing) {
  const std::string path = write_temp_trace("memo_delete.trace", chase_trace(1000, 4));
  const std::string spec = "trace:" + path;
  (void)make_workload(spec);
  std::filesystem::remove(path);
  try {
    (void)make_workload(spec);
    FAIL() << "a deleted trace must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(spec), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
  }
}

TEST(TraceMemo, ConcurrentLoadsOfOneFileAllSucceed) {
  const trace::Trace t = chase_trace(4000, 5);
  const std::string spec = "trace:" + write_temp_trace("memo_threads.trace", t);
  constexpr int kThreads = 8;
  std::vector<uint64_t> estimates(kThreads, 0);
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      auto wl = make_workload(spec);
      System sys(Design::kBaseline, point_config(*wl), 1, /*timing=*/false);
      wl->run(sys);
      estimates[i] = wl->access_estimate();
    });
  for (auto& th : pool) th.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(estimates[i], t.access_count()) << i;
}

// ---- region-image memo -----------------------------------------------------
//
// The memo is per process and keyed by (seed, padded bytes), so every test
// below asks for keys no other test uses: seeds far from the workload's
// 0x517EC0DE + region index, each test its own.

/// `bytes` of region contents as trace::init_region writes them.
std::vector<std::byte> generated(System& sys, uint64_t bytes, uint64_t seed) {
  std::vector<std::byte> buf(bytes);
  trace::init_region(sys, {buf.data(), 0, bytes}, seed);
  return buf;
}

/// `bytes` of region contents as fill_trace_region writes them.
std::vector<std::byte> filled(System& sys, uint64_t bytes, uint64_t seed) {
  std::vector<std::byte> buf(bytes);
  fill_trace_region(sys, {buf.data(), 0, bytes}, seed);
  return buf;
}

TEST(TraceImageMemo, CopiesEqualTheGeneratorsBytes) {
  System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
  // The regions of a 3-region mixed trace, under the workload's own seeds:
  // the first requests generate, the later ones copy the kept image.
  const trace::Trace t = test_trace();
  for (size_t i = 0; i < t.regions.size(); ++i) {
    const trace::TraceRegion& r = t.regions[i];
    const uint64_t seed = 0x517EC0DE + i;
    const std::vector<std::byte> ref = generated(sys, r.bytes, seed);
    for (int request = 0; request < 4; ++request) {
      const std::string name = r.name + "." + std::to_string(request);
      const RegionHandle h = sys.alloc_region(name, r.bytes, r.approx);
      fill_trace_region(sys, h, seed);
      EXPECT_EQ(std::memcmp(h.host, ref.data(), ref.size()), 0)
          << "region " << i << ", request " << request;
    }
  }
  // A region padded up to whole blocks: the image covers the padding too.
  // Its seed was kept at a smaller size first, which is another image.
  const uint64_t seed = 0xA11CE001, small = 2 * kBlockBytes;
  for (int request = 0; request < 4; ++request)
    EXPECT_EQ(filled(sys, small, seed), generated(sys, small, seed)) << request;
  const std::vector<std::byte> ref = generated(sys, 4 * kBlockBytes, seed);
  for (int request = 0; request < 4; ++request) {
    const std::string name = "padded." + std::to_string(request);
    const RegionHandle h = sys.alloc_region(name, 3 * kBlockBytes + 100, true);
    ASSERT_EQ(h.bytes, 4 * kBlockBytes);
    fill_trace_region(sys, h, seed);
    EXPECT_EQ(std::memcmp(h.host, ref.data(), ref.size()), 0) << request;
  }
  // And whole workload runs, the later ones served from the memo.
  std::vector<uint64_t> digests;
  for (int run = 0; run < 4; ++run) {
    auto wl = make_trace_workload("trace:mem", test_trace());
    System timed(Design::kAvr, point_config(*wl));
    wl->run(timed);
    digests.push_back(fnv1a(wl->output(timed)));
  }
  for (int run = 1; run < 4; ++run) EXPECT_EQ(digests[run], digests[0]) << run;
}

TEST(TraceImageMemo, KeepsAnImageFromItsThirdRequest) {
  System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
  const uint64_t seed = 0xA11CE002, bytes = 8 * kBlockBytes;
  const std::vector<std::byte> ref = generated(sys, bytes, seed);
  const uint64_t before = trace_image_memo_bytes();
  // A one-point process's golden run and point: nothing kept.
  EXPECT_EQ(filled(sys, bytes, seed), ref);
  EXPECT_EQ(filled(sys, bytes, seed), ref);
  EXPECT_EQ(trace_image_memo_bytes(), before);
  EXPECT_EQ(filled(sys, bytes, seed), ref);
  EXPECT_EQ(trace_image_memo_bytes(), before + bytes);
  EXPECT_EQ(filled(sys, bytes, seed), ref);
  EXPECT_EQ(trace_image_memo_bytes(), before + bytes);
}

TEST(TraceImageMemo, ConcurrentRequestsKeepOneImage) {
  System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
  const uint64_t seed = 0xA11CE003, bytes = 64 * kBlockBytes;
  const std::vector<std::byte> ref = generated(sys, bytes, seed);
  const uint64_t before = trace_image_memo_bytes();
  constexpr int kThreads = 4, kRequests = 3;
  std::vector<std::vector<std::byte>> got(kThreads * kRequests);
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      for (int r = 0; r < kRequests; ++r)
        got[i * kRequests + r] = filled(sys, bytes, seed);
    });
  for (auto& th : pool) th.join();
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], ref) << i;
  EXPECT_EQ(trace_image_memo_bytes(), before + bytes);
}

/// Fills the memo's budget, then checks that an image past it is still
/// generated bit-identically and not kept. Returns an exit status: 0 if
/// so, 2 if the budget did not fill, 3 if a request's bytes differ from
/// init_region's, 4 if the image was kept.
int fill_budget_and_check() {
  System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
  // One image takes every whole block of room the budget has left.
  const uint64_t left = kTraceImageMemoBudgetBytes - trace_image_memo_bytes();
  const uint64_t room = left / kBlockBytes * kBlockBytes;
  for (int r = 0; r < 3; ++r) filled(sys, room, 0xA11CE004);
  const uint64_t full = trace_image_memo_bytes();
  if (full + kBlockBytes <= kTraceImageMemoBudgetBytes) return 2;
  const uint64_t seed = 0xA11CE005, bytes = 2 * kBlockBytes;
  const std::vector<std::byte> ref = generated(sys, bytes, seed);
  for (int r = 0; r < 4; ++r) {
    if (filled(sys, bytes, seed) != ref) return 3;
  }
  return trace_image_memo_bytes() == full ? 0 : 4;
}

TEST(TraceImageMemo, AFullBudgetStillGeneratesEveryImage) {
  // A full memo would change what the other tests see, so this runs in a
  // child process of its own.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::exit(fill_budget_and_check()), ::testing::ExitedWithCode(0), "");
}

// ---- sweep-point integration ----------------------------------------------

TEST(TraceWorkloadSweep, AccessEstimateComesFromTheRecordStream) {
  auto wl = make_workload("trace:" + bundled("chase.trace"));
  EXPECT_EQ(wl->access_estimate(), 8192u);
  EXPECT_EQ(wl->name(), "trace:" + bundled("chase.trace"));
  // Built-in kernels keep the default "unknown" estimate.
  EXPECT_EQ(make_workload("heat")->access_estimate(), 0u);
}

TEST(TraceWorkloadSweep, RunnerCachesTracePointsAcrossProcessLifetimes) {
  const std::string cache = ::testing::TempDir() + "trace_point_cache.csv";
  std::remove(cache.c_str());
  const std::string point = "trace:" + bundled("chase.trace");

  ExperimentRunner r1({}, /*verbose=*/false, cache);
  EXPECT_FALSE(r1.cached(point, Design::kAvr));
  const ExperimentResult& fresh = r1.run(point, Design::kAvr);
  EXPECT_GE(fresh.m.output_error, 0.0);
  EXPECT_GT(fresh.m.llc_requests, 0u);
  EXPECT_TRUE(r1.cached(point, Design::kAvr));

  // A second runner on the same cache file must hit at construction and
  // reproduce the simulated metrics exactly.
  ExperimentRunner r2({}, /*verbose=*/false, cache);
  EXPECT_TRUE(r2.cached(point, Design::kAvr));
  const ExperimentResult& hit = r2.run(point, Design::kAvr);
  EXPECT_EQ(hit.m.cycles, fresh.m.cycles);
  EXPECT_EQ(hit.m.dram_bytes, fresh.m.dram_bytes);
  EXPECT_EQ(hit.m.output_error, fresh.m.output_error);
}

TEST(TraceWorkloadSweep, CostEstimateScalesWithRecordCountNotFootprint) {
  // Two traces over identical regions, 4x apart in record count: the
  // estimate must follow the record stream, not the (equal) footprint.
  // Large enough record counts to clear the estimate's 0.02s floor.
  auto write_chase = [](uint64_t records, const std::string& file) {
    trace::GenParams p;
    p.records = records;
    p.regions = 2;
    p.region_bytes = 65536;
    p.seed = 5;
    const std::string path = ::testing::TempDir() + file;
    std::string err;
    EXPECT_TRUE(trace::write_trace_file(path, trace::make_chase_trace(p), &err))
        << err;
    return path;
  };
  const std::string small = "trace:" + write_chase(200000, "cost_small.trace");
  const std::string large = "trace:" + write_chase(800000, "cost_large.trace");

  ExperimentRunner r({}, /*verbose=*/false, /*cache_path=*/"");
  const double s = r.cost_estimate(small, Design::kBaseline);
  const double l = r.cost_estimate(large, Design::kBaseline);
  EXPECT_GT(s, 0.0);
  EXPECT_NEAR(l / s, 4.0, 1e-9);
  // AVR simulates compression machinery per miss: costlier than baseline.
  EXPECT_GT(r.cost_estimate(large, Design::kAvr), l);
}

TEST(TraceWorkloadSweep, CaptureHookSeesEveryReplayedAccess) {
  const trace::Trace t = test_trace();
  auto wl = make_trace_workload("trace:mem", t);
  System sys(Design::kBaseline, point_config(*wl), 1, /*timing=*/false);
  uint64_t loads = 0, stores = 0;
  sys.set_access_hook([&](uint64_t, bool write) { ++(write ? stores : loads); });
  wl->run(sys);
  sys.set_access_hook(nullptr);
  EXPECT_EQ(loads + stores, t.access_count());
  EXPECT_GT(stores, 0u);
}

}  // namespace
}  // namespace avr
