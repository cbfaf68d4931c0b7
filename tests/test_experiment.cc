// Harness tests: the result cache round-trips, config_for applies the
// per-workload knobs, a point holds one workload image at a time, failures
// name their point, and the self-profile counts and shares are right.
#include "harness/experiment.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "trace/trace_format.hh"
#include "trace/trace_gen.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

/// Points AVR_SEED_COSTS somewhere for one test, restoring the previous
/// value on destruction (the override could otherwise leak into sibling
/// tests, or clobber a value the developer exported).
class ScopedSeedCosts {
 public:
  explicit ScopedSeedCosts(const std::string& path) {
    if (const char* prev = ::getenv("AVR_SEED_COSTS")) previous_ = prev;
    ::setenv("AVR_SEED_COSTS", path.c_str(), 1);
  }
  ~ScopedSeedCosts() {
    if (previous_)
      ::setenv("AVR_SEED_COSTS", previous_->c_str(), 1);
    else
      ::unsetenv("AVR_SEED_COSTS");
  }

 private:
  std::optional<std::string> previous_;
};

/// A workload that watches the harness: its instances count how many are
/// alive, and run() records the peak of that count and the design it ran
/// under. The golden is the run under Design::kBaseline, so probe points run
/// under other designs. Optionally its golden throws.
struct ProbeLog {
  std::mutex mu;
  int alive = 0;
  int peak = 0;
  std::vector<Design> runs;  // designs run() was called under, in order
  int golden_throws = 0;     // goldens still to throw

  void reset() {
    std::lock_guard<std::mutex> lk(mu);
    peak = 0;
    runs.clear();
    golden_throws = 0;
  }
  int goldens() {
    std::lock_guard<std::mutex> lk(mu);
    return static_cast<int>(std::count(runs.begin(), runs.end(), Design::kBaseline));
  }
};
ProbeLog probe_log;

class ProbeWorkload : public Workload {
 public:
  ProbeWorkload() {
    std::lock_guard<std::mutex> lk(probe_log.mu);
    ++probe_log.alive;
  }
  ~ProbeWorkload() override {
    std::lock_guard<std::mutex> lk(probe_log.mu);
    --probe_log.alive;
  }
  std::string name() const override { return "probe"; }

  void run(System& sys) override {
    {
      std::lock_guard<std::mutex> lk(probe_log.mu);
      probe_log.peak = std::max(probe_log.peak, probe_log.alive);
      probe_log.runs.push_back(sys.design());
      if (sys.design() == Design::kBaseline && probe_log.golden_throws > 0) {
        --probe_log.golden_throws;
        throw std::runtime_error("probe golden failed");
      }
    }
    data_ = sys.alloc_region("data", kCount * sizeof(float), /*approx=*/true);
    for (uint64_t i = 0; i < kCount; ++i)
      sys.store_f32(data_, i * sizeof(float), static_cast<float>(i) * 0.5f);
    for (uint64_t i = 1; i < kCount; ++i)
      sys.store_f32(data_, i * sizeof(float),
                    sys.load_f32(data_, i * sizeof(float)) +
                        sys.load_f32(data_, (i - 1) * sizeof(float)));
  }
  std::vector<double> output(const System& sys) const override {
    std::vector<double> out;
    for (uint64_t i = 0; i < kCount; i += 64)
      out.push_back(sys.peek_f32(data_, i * sizeof(float)));
    return out;
  }

 private:
  static constexpr uint64_t kCount = 4096;
  RegionHandle data_;
};

const bool probe_registered =
    register_workload("probe", [] { return std::make_unique<ProbeWorkload>(); });

TEST(ExperimentRunner, GoldenIsFreedBeforeTheTimedRun) {
  ASSERT_TRUE(probe_registered);
  probe_log.reset();
  ExperimentRunner r({}, false, "");
  (void)r.run("probe", Design::kAvr);
  EXPECT_EQ(probe_log.runs, (std::vector<Design>{Design::kBaseline, Design::kAvr}));
  // The golden's instance was destroyed before the timed one ran.
  EXPECT_EQ(probe_log.peak, 1);
  EXPECT_EQ(probe_log.alive, 0);
}

TEST(ExperimentRunner, ThrowingGoldenIsRetriedByTheNextRun) {
  probe_log.reset();
  probe_log.golden_throws = 1;
  ExperimentRunner r({}, false, "");
  try {
    (void)r.run("probe", Design::kAvr);
    ADD_FAILURE() << "the throwing golden did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "point probe x AVR failed: probe golden failed");
  }
  // Only the golden ran: the timed System is built after it.
  EXPECT_EQ(probe_log.runs, std::vector<Design>{Design::kBaseline});
  const ExperimentResult& res = r.run("probe", Design::kAvr);
  EXPECT_EQ(probe_log.goldens(), 2);
  EXPECT_GT(res.m.instructions, 0u);
  EXPECT_EQ(r.profile_totals().count(prof::Counter::kPointsSimulated), 1u);
}

TEST(ExperimentRunner, ConcurrentPointsShareOneGolden) {
  // Two designs of one workload on two threads: both complete, match a
  // serial run, and the golden runs once, before either timed run.
  probe_log.reset();
  const std::vector<Design> designs = {Design::kAvr, Design::kTruncate};
  const auto encoded = [](ExperimentResult res) {
    res.wall_seconds = 0;
    return encode_result_line(res);
  };
  std::vector<std::string> serial;
  {
    ExperimentRunner r({}, false, "");
    for (Design d : designs) serial.push_back(encoded(r.run("probe", d)));
  }
  probe_log.reset();
  ExperimentRunner r({}, false, "");
  std::vector<std::thread> ts;
  for (Design d : designs) ts.emplace_back([&r, d] { (void)r.run("probe", d); });
  for (auto& t : ts) t.join();
  EXPECT_EQ(probe_log.goldens(), 1);
  EXPECT_EQ(probe_log.runs.front(), Design::kBaseline);
  for (size_t i = 0; i < designs.size(); ++i)
    EXPECT_EQ(encoded(r.run("probe", designs[i])), serial[i]) << to_string(designs[i]);
}

TEST(ExperimentRunner, FailuresNameTheirPointAndConfig) {
  const auto failure = [](const SimConfig& cfg) -> std::string {
    ExperimentRunner r(cfg, false, "");
    try {
      (void)r.run("bscholes", Design::kBaseline);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "ran";
  };
  SimConfig ways;
  ways.l2.ways = 3;
  EXPECT_EQ(failure(ways).rfind("point bscholes x baseline [l2.ways=3] failed: ", 0), 0u)
      << failure(ways);
  // A size inside the knob's range as set, but not once divided by the
  // workload's cache_scale: the message names the scale and the scaled value.
  SimConfig l1;
  l1.l1.size_bytes = 64;
  EXPECT_EQ(failure(l1),
            "point bscholes x baseline [l1.size_bytes=64] failed: workload bscholes, "
            "whose cache_scale 16 divides l1 and l2: SimConfig: l1.size_bytes = 4 is "
            "outside 64..274877906944");
}

TEST(ExperimentRunner, ConfigForAppliesWorkloadKnobs) {
  ExperimentRunner r({}, false, "");
  auto lbm = make_workload("lbm");
  const SimConfig cfg = r.config_for(*lbm);
  EXPECT_EQ(cfg.llc.size_bytes, lbm->llc_bytes());
  EXPECT_EQ(cfg.avr.t1_mantissa_msbit, lbm->t1_msbit());
  EXPECT_EQ(cfg.l1.size_bytes, SimConfig{}.l1.size_bytes / lbm->cache_scale());
}

TEST(ExperimentRunner, DiskCacheRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "avr_test_cache.csv";
  std::remove(path.c_str());

  RunMetrics written;
  double written_wall = 0;
  {
    ExperimentRunner r({}, false, path);
    EXPECT_FALSE(r.cached("kmeans", Design::kBaseline));
    // Smallest workload x cheapest design to keep this test quick.
    const ExperimentResult& res = r.run("kmeans", Design::kBaseline);
    written = res.m;
    written_wall = res.wall_seconds;
    EXPECT_GT(written.cycles, 0u);
    EXPECT_GT(written_wall, 0.0);
    EXPECT_TRUE(r.cached("kmeans", Design::kBaseline));
  }
  {
    // A fresh runner must load the result instead of re-simulating; verify
    // by checking a few fields match bit-for-bit.
    ExperimentRunner r({}, false, path);
    EXPECT_TRUE(r.cached("kmeans", Design::kBaseline));
    const ExperimentResult& res = r.run("kmeans", Design::kBaseline);
    EXPECT_EQ(res.m.cycles, written.cycles);
    EXPECT_EQ(res.m.instructions, written.instructions);
    EXPECT_EQ(res.m.dram_bytes, written.dram_bytes);
    EXPECT_EQ(res.m.llc_misses, written.llc_misses);
    EXPECT_DOUBLE_EQ(res.m.output_error, written.output_error);
    EXPECT_EQ(res.m.detail.at("requests"), written.detail.at("requests"));
    // The wall-clock measurement is persisted too.
    EXPECT_DOUBLE_EQ(res.wall_seconds, written_wall);
  }
  std::remove(path.c_str());
}

TEST(ExperimentRunner, CostEstimateUsesSeedCostFileOnColdCache) {
  const std::string path =
      std::filesystem::temp_directory_path() / "avr_test_seed_costs.csv";
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "kmeans,baseline,7.25\n";
    out << "kmeans,AVR,31.5\n";
    out << "nosuchworkload,baseline,1.0\n";  // tolerated: never queried
    out << "kmeans,nosuchdesign,1.0\n";      // skipped: unknown design
    out << "malformed line without commas\n";
  }
  ScopedSeedCosts env(path);
  ExperimentRunner r({}, false, "");
  // Cold cache: the committed measurement wins over the heuristic.
  EXPECT_DOUBLE_EQ(r.cost_estimate("kmeans", Design::kBaseline), 7.25);
  EXPECT_DOUBLE_EQ(r.cost_estimate("kmeans", Design::kAvr), 31.5);
  // Unlisted points still fall back to the heuristic.
  EXPECT_GT(r.cost_estimate("lbm", Design::kAvr), 0.0);
  std::remove(path.c_str());
}

TEST(ExperimentRunner, CostEstimateIgnoresHeldResults) {
  const std::string seed_path =
      std::filesystem::temp_directory_path() / "avr_test_seed_costs2.csv";
  const std::string cache_path =
      std::filesystem::temp_directory_path() / "avr_test_seed_cache.csv";
  std::remove(cache_path.c_str());
  {
    std::ofstream out(seed_path);
    out << "kmeans,baseline,7.0\n";
  }
  // One held point per estimate tier: kmeans×baseline has a seed cost,
  // kmeans×AVR falls to the heuristic.
  for (Design d : {Design::kBaseline, Design::kAvr}) {
    ExperimentResult res;
    res.workload = "kmeans";
    res.design = d;
    // Records only warm a runner whose base-config fingerprint matches.
    res.config_hash = config_fingerprint(SimConfig{});
    res.wall_seconds = 42.0;
    ASSERT_TRUE(append_result_line(cache_path, res));
  }

  ScopedSeedCosts env(seed_path);
  ExperimentRunner warm({}, false, cache_path);
  ExperimentRunner cold({}, false, "");
  for (Design d : {Design::kBaseline, Design::kAvr}) {
    ASSERT_TRUE(warm.cached("kmeans", d));
    // A held point is a lookup: its measured time orders nothing, so the
    // estimate is the one a runner with no cache gives.
    EXPECT_DOUBLE_EQ(warm.cost_estimate("kmeans", d), cold.cost_estimate("kmeans", d))
        << to_string(d);
  }
  EXPECT_DOUBLE_EQ(warm.cost_estimate("kmeans", Design::kBaseline), 7.0);
  std::remove(seed_path.c_str());
  std::remove(cache_path.c_str());
}

TEST(ExperimentRunner, CostEstimateHeuristicOrdersDesignsByWork) {
  // With nothing cached the estimate falls back to the static heuristic:
  // compression designs cost more than the baseline on the same workload,
  // and a bigger-footprint workload costs more than a smaller one.
  // (Point AVR_SEED_COSTS at a nonexistent file in case the build tree ever
  // gains a data/seed_costs.csv relative to the test's working directory.)
  ScopedSeedCosts env("/nonexistent/avr_seed_costs.csv");
  ExperimentRunner r({}, false, "");
  EXPECT_GT(r.cost_estimate("kmeans", Design::kAvr),
            r.cost_estimate("kmeans", Design::kBaseline));
  auto big = make_workload("lbm");
  auto small = make_workload("kmeans");
  if (big->llc_bytes() > small->llc_bytes()) {
    EXPECT_GT(r.cost_estimate("lbm", Design::kAvr),
              r.cost_estimate("kmeans", Design::kAvr));
  }
}

using Points = std::vector<std::pair<std::string, Design>>;

/// The default-config grid of `points`, in the given order.
std::vector<sweep::VariantPoint> default_grid(const Points& points) {
  std::vector<sweep::VariantPoint> grid;
  for (const auto& p : points) grid.push_back({SimConfig{}, p});
  return grid;
}

/// run_grid over `points` without claims, on runner `r`.
sweep::StealOutcome run_local(ExperimentRunner& r, const Points& points, unsigned jobs) {
  return sweep::run_grid(default_grid(points), r, "", {}, jobs);
}

TEST(ExperimentRunner, RunGridHandlesArbitrarySlicesAndDuplicates) {
  ExperimentRunner r({}, false, "");
  // A non-cross-product list with a duplicate — the shape of a selection.
  const std::vector<std::pair<std::string, Design>> points = {
      {"kmeans", Design::kBaseline},
      {"bscholes", Design::kTruncate},
      {"kmeans", Design::kBaseline},
  };
  EXPECT_EQ(run_local(r, points, 2).simulated, points.size());
  std::vector<ExperimentResult> got;
  for (const auto& [w, d] : points) got.push_back(r.run(w, d));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].workload, "kmeans");
  EXPECT_EQ(got[1].workload, "bscholes");
  EXPECT_EQ(got[1].design, Design::kTruncate);
  EXPECT_EQ(got[2].m.cycles, got[0].m.cycles);
}

TEST(ExperimentRunner, ProfileCountsOneCacheHitPerWarmPoint) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "avr_test_cache_hits.csv";
  std::remove(path.c_str());
  const std::vector<std::pair<std::string, Design>> points = {
      {"kmeans", Design::kBaseline},
      {"bscholes", Design::kBaseline},
      {"bscholes", Design::kTruncate},
  };
  {
    // Cold: every point simulates and none is a hit, although run_grid
    // runs all of them here.
    ExperimentRunner r({}, false, path);
    ASSERT_EQ(run_local(r, points, 2).simulated, points.size());
    const prof::Totals t = r.profile_totals();
    EXPECT_EQ(t.count(prof::Counter::kPointsSimulated), points.size());
    EXPECT_EQ(t.count(prof::Counter::kCacheHits), 0u);
  }
  {
    // Warm rerun: exactly one hit per point, nothing simulated.
    ExperimentRunner r({}, false, path);
    ASSERT_EQ(run_local(r, points, 2).simulated, points.size());
    const prof::Totals t = r.profile_totals();
    EXPECT_EQ(t.count(prof::Counter::kPointsSimulated), 0u);
    EXPECT_EQ(t.count(prof::Counter::kCacheHits), points.size());
  }
  std::remove(path.c_str());
}

TEST(ExperimentRunner, SchedulerPreludeIsTimedAsSetup) {
  // In both modes the scheduler estimates every point's cost before any
  // worker starts; that prelude is setup time of the scheduler, not of any
  // point.
  const std::string path = std::filesystem::temp_directory_path() /
                           "avr_test_sched_prelude.csv";
  std::remove(path.c_str());
  {
    // Claim mode: the sidecar's aggregate starts from StealOutcome::sched,
    // which sees no point's sink.
    ExperimentRunner r({}, false, path);
    const auto grid = sweep::config_grid({}, {"bscholes"}, {Design::kBaseline});
    const sweep::StealOutcome out = sweep::run_grid(grid, r, path, {}, 1);
    EXPECT_EQ(out.simulated, 1u);
    EXPECT_EQ(out.sched.phase_calls(prof::Phase::kSetup), 1u);
  }
  {
    // run_all: one setup call more than the points' own.
    ExperimentRunner r({}, false, "");
    r.run_all({"bscholes"}, {Design::kBaseline}, 1);
    uint64_t point_calls = 0;
    for (const prof::PointProfile& p : r.profile_points())
      point_calls += p.totals.phase_calls(prof::Phase::kSetup);
    EXPECT_EQ(r.profile_totals().phase_calls(prof::Phase::kSetup), point_calls + 1);
  }
  std::remove(path.c_str());
}

TEST(ExperimentRunner, RunGridRecordsMatchWithAndWithoutClaims) {
  // One selection run twice, once without claims and once through a claim
  // cache: kernel points, a tiny seeded trace, a duplicate point and a
  // --set variant. Both runs must write identical records (wall-clock
  // aside) and simulate each distinct point exactly once.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tiny = dir / "avr_test_run_grid_modes.trace";
  trace::GenParams gp;
  gp.records = 256;
  gp.regions = 2;
  gp.region_bytes = 4096;
  gp.seed = 7;
  std::string err;
  ASSERT_TRUE(trace::write_trace_file(tiny, trace::make_zipf_trace(gp), &err)) << err;

  const Points points = {
      {"bscholes", Design::kAvr},
      {"kmeans", Design::kBaseline},
      {"trace:" + tiny, Design::kAvr},
      {"bscholes", Design::kAvr},  // duplicate
  };
  std::vector<sweep::VariantPoint> grid = default_grid(points);
  std::vector<sweep::SetAxis> axes;
  sweep::add_set_axis(axes, "avr.t1_override=6");
  for (const auto& vp : sweep::config_grid(axes, {"kmeans"}, {Design::kAvr}))
    grid.push_back(vp);
  const SimConfig variant = grid.back().config;
  const size_t distinct = grid.size() - 1;

  // Writes the selection's records to `cache`, claiming through it iff
  // `claim`, and returns them (default config, then the variant) encoded
  // with wall_seconds zeroed.
  const auto sweep_into = [&](const std::string& cache, bool claim) {
    std::remove(cache.c_str());
    ExperimentRunner r({}, false, cache);
    (void)sweep::run_grid(grid, r, claim ? cache : "", {}, 2);
    EXPECT_EQ(r.profile_totals().count(prof::Counter::kPointsSimulated), distinct)
        << (claim ? "claim" : "local");
    std::vector<std::string> lines;
    for (const SimConfig& cfg : {SimConfig{}, variant})
      for (auto [key, res] : load_result_cache(cache, config_fingerprint(cfg))) {
        res.wall_seconds = 0;
        lines.push_back(encode_result_line(res));
      }
    std::remove(cache.c_str());
    return lines;
  };
  const auto local = sweep_into(dir / "avr_test_run_grid_local.csv", false);
  const auto claimed = sweep_into(dir / "avr_test_run_grid_claim.csv", true);
  EXPECT_EQ(local.size(), distinct);
  EXPECT_EQ(local, claimed);
  std::remove(tiny.c_str());
}

TEST(ExperimentRunner, OneRunnerServesEveryConfigOfAGrid) {
  // A default + avr.t1_override=6 grid through one runner into a cache file;
  // a second runner over the file then reads the whole grid from it.
  const std::string cache =
      std::filesystem::temp_directory_path() / "avr_test_one_runner.csv";
  std::remove(cache.c_str());
  std::vector<sweep::SetAxis> axes;
  sweep::add_set_axis(axes, "avr.t1_override=-1,6");  // -1: the default config
  const auto grid = sweep::config_grid(axes, {"bscholes"}, {Design::kAvr});
  ASSERT_EQ(config_fingerprint(grid.front().config), config_fingerprint(SimConfig{}));
  {
    ExperimentRunner r({}, false, cache);
    EXPECT_EQ(sweep::run_grid(grid, r, "", {}, 2).simulated, grid.size());
  }

  ExperimentRunner warm({}, false, cache);
  (void)sweep::run_grid(grid, warm, "", {}, 2);
  const prof::Totals t = warm.profile_totals();
  EXPECT_EQ(t.count(prof::Counter::kPointsSimulated), 0u);
  EXPECT_EQ(t.count(prof::Counter::kCacheHits), grid.size());

  const auto encoded = [](ExperimentResult r, bool zero_wall) {
    if (zero_wall) r.wall_seconds = 0;
    return encode_result_line(r);
  };
  for (const auto& vp : grid) {
    const auto& [w, d] = vp.point;
    SCOPED_TRACE(config_diff(vp.config) + " " + w + " x " + to_string(d));
    // From the file, measured wall time included.
    const auto file = load_result_cache(cache, config_fingerprint(vp.config));
    ASSERT_TRUE(file.count(vp.point));
    EXPECT_EQ(encoded(warm.run(vp), false), encoded(file.at(vp.point), false));
    // What a runner built for that config alone simulates, output_error
    // against the config's own golden included.
    ExperimentRunner fresh(vp.config, false, "");
    EXPECT_EQ(encoded(warm.run(vp), true), encoded(fresh.run(w, d), true));
  }
  std::remove(cache.c_str());
}

TEST(ExperimentRunner, IdleClaimWorkerStopsWaitingWhenTheSweepEnds) {
  // Two workers, a kernel point and a tiny trace point: the worker done
  // with the trace finds the kernel reserved by the other and waits for the
  // poll interval — and must stop waiting once that point lands, not sleep
  // the interval out.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = dir / "avr_test_idle_worker.csv";
  const std::string tiny = dir / "avr_test_idle_worker.trace";
  std::remove(path.c_str());
  trace::GenParams p;
  p.records = 64;
  p.regions = 1;
  p.region_bytes = 4096;
  std::string err;
  ASSERT_TRUE(trace::write_trace_file(tiny, trace::make_chase_trace(p), &err)) << err;
  ExperimentRunner r({}, false, path);
  sweep::StealOptions opts;
  opts.poll_seconds = 120;
  const auto t0 = std::chrono::steady_clock::now();
  const sweep::StealOutcome out = sweep::run_grid(
      sweep::config_grid({}, {"bscholes", "trace:" + tiny}, {Design::kAvr}), r, path,
      opts, 2);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(out.simulated, 2u);
  EXPECT_LT(secs, 100.0);
  std::remove(tiny.c_str());
  std::remove(path.c_str());
}

TEST(ProfileReport, PointsNameTheirConfig) {
  // A runner stamps config_diff() of its base config on every point it
  // simulates; the summary and the sidecar both carry it.
  SimConfig cfg;
  cfg.avr.t1_override = 6;
  ExperimentRunner r(cfg, /*verbose=*/false, /*cache_path=*/"");
  (void)r.run("bscholes", Design::kAvr);
  prof::Report report;
  report.points = r.profile_points();
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.points[0].config, "avr.t1_override=6");

  char* buf = nullptr;
  size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  ASSERT_NE(f, nullptr);
  prof::print_summary(f, report);
  std::fclose(f);
  const std::string table(buf, len);
  std::free(buf);
  EXPECT_NE(table.find(", avr.t1_override=6)"), std::string::npos) << table;

  const std::string path =
      std::filesystem::temp_directory_path() / "avr_test_profile_config.json";
  ASSERT_TRUE(prof::write_profile_json(path, report));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"design\":\"AVR\",\"config\":\"avr.t1_override=6\","),
            std::string::npos)
      << json;
  std::remove(path.c_str());
}

TEST(ProfileReport, PhaseShareIsOfWallTimesJobs) {
  prof::Report report;
  report.owner = "w0";
  report.mode = "claim";
  report.simd = "scalar";
  report.wall_seconds = 2.0;
  report.jobs = 4;
  report.aggregate.add(prof::Phase::kTiming, 6'000'000'000);  // 6 thread-s

  char* buf = nullptr;
  size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  ASSERT_NE(f, nullptr);
  prof::print_summary(f, report);
  std::fclose(f);
  const std::string table(buf, len);
  std::free(buf);
  EXPECT_NE(table.find("2.00s wall x 4 jobs"), std::string::npos) << table;
  EXPECT_NE(table.find("% wall*jobs"), std::string::npos) << table;
  // 6 thread-seconds of a 2 s x 4-thread pool: 75 %, not 300 %.
  EXPECT_NE(table.find(" 75.0%"), std::string::npos) << table;
  EXPECT_EQ(table.find("300.0%"), std::string::npos) << table;

  // The sidecar carries the job count.
  const std::string path =
      std::filesystem::temp_directory_path() / "avr_test_profile.json";
  ASSERT_TRUE(prof::write_profile_json(path, report));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"schema\":\"avr-profile-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":2,\"jobs\":4,\"aggregate\":"),
            std::string::npos)
      << json;
  std::remove(path.c_str());
}

TEST(ExperimentRunner, PaperDesignsList) {
  const auto d = ExperimentRunner::paper_designs();
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d.front(), Design::kBaseline);
  EXPECT_EQ(d.back(), Design::kAvr);
}

}  // namespace
}  // namespace avr
