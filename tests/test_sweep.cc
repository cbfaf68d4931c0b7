// Sweep grid tests: canonical grid order, config-variant axes and list
// parsing, and the end-to-end acceptance paths — concurrent avr_sweep
// processes appending to one cache produce the same records as a single
// in-process sweep, with and without --claim.
#include "harness/sweep.hh"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

using sweep::Point;

TEST(Sweep, FullGridIsWorkloadMajor) {
  const auto grid = sweep::full_grid({"a", "b"}, {Design::kBaseline, Design::kAvr});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], Point("a", Design::kBaseline));
  EXPECT_EQ(grid[1], Point("a", Design::kAvr));
  EXPECT_EQ(grid[2], Point("b", Design::kBaseline));
  EXPECT_EQ(grid[3], Point("b", Design::kAvr));
}

TEST(Sweep, VariantGridIsT1MajorAndDefaultsToPlainGrid) {
  const auto grid = sweep::full_variant_grid({4, 6}, {"a", "b"},
                                             {Design::kBaseline, Design::kAvr});
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_EQ(grid[0], (sweep::VariantPoint{4, {"a", Design::kBaseline}}));
  EXPECT_EQ(grid[3], (sweep::VariantPoint{4, {"b", Design::kAvr}}));
  EXPECT_EQ(grid[4], (sweep::VariantPoint{6, {"a", Design::kBaseline}}));
  EXPECT_EQ(grid[7], (sweep::VariantPoint{6, {"b", Design::kAvr}}));

  // The default axis {-1} reproduces the historical grid point-for-point.
  const auto plain = sweep::full_grid(workload_names(),
                                      ExperimentRunner::paper_designs());
  const auto variant = sweep::full_variant_grid({-1}, workload_names(),
                                                ExperimentRunner::paper_designs());
  ASSERT_EQ(variant.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(variant[i].t1, -1);
    EXPECT_EQ(variant[i].point, plain[i]);
  }
}

TEST(Sweep, VariantConfigsHaveDistinctFingerprints) {
  // t1 == -1 must be THE default config (so existing caches keep working);
  // each forced threshold is a distinct cache key.
  EXPECT_EQ(config_fingerprint(sweep::variant_config(-1)),
            config_fingerprint(SimConfig{}));
  std::set<uint64_t> fps;
  for (int t1 : {-1, 0, 4, 6, 8, 22})
    fps.insert(config_fingerprint(sweep::variant_config(t1)));
  EXPECT_EQ(fps.size(), 6u);
}

TEST(Sweep, ParseT1List) {
  EXPECT_EQ(sweep::parse_t1_list(""), (std::vector<int>{-1}));
  EXPECT_EQ(sweep::parse_t1_list("4"), (std::vector<int>{4}));
  EXPECT_EQ(sweep::parse_t1_list("4,6,8"), (std::vector<int>{4, 6, 8}));
  for (const char* bad : {"x", "-1", "23", "4.5"})
    EXPECT_THROW(sweep::parse_t1_list(bad), std::invalid_argument) << bad;
}

TEST(Sweep, ParseMethodsList) {
  using namespace sweep;
  EXPECT_EQ(parse_methods_list(""), (std::vector<int>{kMethodsDefault}));
  EXPECT_EQ(parse_methods_list("1d"), (std::vector<int>{kMethods1D}));
  EXPECT_EQ(parse_methods_list("bdi"), (std::vector<int>{kMethodsBdi}));
  // "avr" is shorthand for the paper's full lossy table (1d+2d).
  EXPECT_EQ(parse_methods_list("avr"), (std::vector<int>{kMethods1D | kMethods2D}));
  EXPECT_EQ(parse_methods_list("avr+bdi"),
            (std::vector<int>{kMethods1D | kMethods2D | kMethodsBdi}));
  EXPECT_EQ(parse_methods_list("1d,avr+bdi"),
            (std::vector<int>{kMethods1D, kMethods1D | kMethods2D | kMethodsBdi}));
  // Empty CSV fields are skipped (same lenience as --t1), but an empty
  // '+'-joined token inside a selection is an error.
  EXPECT_EQ(parse_methods_list("1d,,2d"),
            (std::vector<int>{kMethods1D, kMethods2D}));
  for (const char* bad : {"x", "1d+", "+bdi", "1d++bdi", "3d", "bdi "})
    EXPECT_THROW(parse_methods_list(bad), std::invalid_argument) << bad;
}

TEST(Sweep, MethodSetName) {
  using namespace sweep;
  EXPECT_EQ(method_set_name(kMethodsDefault), "default");
  EXPECT_EQ(method_set_name(kMethods1D), "1d");
  EXPECT_EQ(method_set_name(kMethods1D | kMethods2D), "1d+2d");
  EXPECT_EQ(method_set_name(kMethods1D | kMethods2D | kMethodsBdi), "1d+2d+bdi");
}

TEST(Sweep, MethodsGridIsMethodsMajorOutsideT1) {
  using namespace sweep;
  const int avr_bdi = kMethods1D | kMethods2D | kMethodsBdi;
  const auto grid = full_variant_grid({4, 6}, {kMethodsDefault, avr_bdi}, {"a"},
                                      {Design::kAvr});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], (VariantPoint{4, {"a", Design::kAvr}, kMethodsDefault}));
  EXPECT_EQ(grid[1], (VariantPoint{6, {"a", Design::kAvr}, kMethodsDefault}));
  EXPECT_EQ(grid[2], (VariantPoint{4, {"a", Design::kAvr}, avr_bdi}));
  EXPECT_EQ(grid[3], (VariantPoint{6, {"a", Design::kAvr}, avr_bdi}));

  // The 3-arg overload is the {kMethodsDefault} slice of the 4-arg one.
  const auto legacy = full_variant_grid({4, 6}, {"a"}, {Design::kAvr});
  ASSERT_EQ(legacy.size(), 2u);
  for (size_t i = 0; i < legacy.size(); ++i) EXPECT_EQ(legacy[i], grid[i]);
}

TEST(Sweep, MethodsVariantConfigFingerprints) {
  using namespace sweep;
  // Explicitly selecting the paper's method set must reproduce the default
  // fingerprint bit-for-bit: "--methods avr" is not a new cache key.
  EXPECT_EQ(config_fingerprint(variant_config(-1, kMethods1D | kMethods2D)),
            config_fingerprint(SimConfig{}));
  // Every other selection is its own key, and the BDI bit composes with --t1.
  std::set<uint64_t> fps;
  for (int m : {kMethodsDefault, kMethods1D, kMethods2D, kMethods1D | kMethods2D,
                kMethods1D | kMethods2D | kMethodsBdi})
    for (int t1 : {-1, 6}) fps.insert(config_fingerprint(variant_config(t1, m)));
  // 5 masks x 2 thresholds, minus the two default==1d+2d collapses.
  EXPECT_EQ(fps.size(), 8u);

  const SimConfig bdi = variant_config(-1, kMethods1D | kMethods2D | kMethodsBdi);
  EXPECT_TRUE(bdi.avr.enable_1d);
  EXPECT_TRUE(bdi.avr.enable_2d);
  EXPECT_TRUE(bdi.avr.enable_bdi_hybrid);
  const SimConfig only_1d = variant_config(-1, kMethods1D);
  EXPECT_TRUE(only_1d.avr.enable_1d);
  EXPECT_FALSE(only_1d.avr.enable_2d);
  EXPECT_FALSE(only_1d.avr.enable_bdi_hybrid);
}

TEST(Sweep, DesignAndWorkloadListParsing) {
  EXPECT_EQ(sweep::design_from_name("AVR"), Design::kAvr);
  EXPECT_EQ(sweep::design_from_name("avr"), Design::kAvr);
  EXPECT_EQ(sweep::design_from_name("ZeroAVR"), Design::kZeroAvr);
  EXPECT_THROW(sweep::design_from_name("nosuch"), std::invalid_argument);

  EXPECT_EQ(sweep::parse_design_list(""), ExperimentRunner::paper_designs());
  const auto d = sweep::parse_design_list("baseline,AVR");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], Design::kBaseline);
  EXPECT_EQ(d[1], Design::kAvr);

  EXPECT_EQ(sweep::parse_workload_list(""), workload_names());
  EXPECT_EQ(sweep::parse_workload_list("kmeans,heat"),
            (std::vector<std::string>{"kmeans", "heat"}));
  EXPECT_THROW(sweep::parse_workload_list("kmeans,nosuch"), std::invalid_argument);
}

// ---- end-to-end: N processes, one cache ------------------------------------

std::string sweep_binary() {
  const char* bin = std::getenv("AVR_SWEEP_BIN");
  return bin ? bin : "";
}

/// Forks and execs `args`; a non-empty `stderr_path` receives the child's
/// stderr.
pid_t spawn_sweep(const std::vector<std::string>& args,
                  const std::string& stderr_path = "") {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  if (!stderr_path.empty()) {
    const int fd = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, STDERR_FILENO) < 0) _exit(126);
  }
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);  // exec failed
}

void wait_ok(const std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

TEST(Sweep, ThreeLocalProcessesMatchSingleProcessSweep) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_local_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  // A small but representative sub-grid (6 points across 2 workloads and 3
  // designs, including AVR), split into three disjoint --workloads/--designs
  // selections. The three processes run without --claim, concurrently
  // against ONE cache path — the writer contract the flock+O_APPEND records
  // exist for, whether or not anyone claims.
  const std::vector<std::pair<std::string, std::string>> selections = {
      {"kmeans", "baseline,truncate,AVR"},
      {"bscholes", "baseline,truncate"},
      {"bscholes", "AVR"}};
  std::vector<pid_t> pids;
  for (const auto& [workloads, designs] : selections)
    pids.push_back(spawn_sweep({bin, "--workloads", workloads, "--designs",
                                designs, "--cache", cache, "--profile-out",
                                "", "--jobs", "1", "--quiet"}));
  wait_ok(pids);

  const auto merged = load_result_cache(cache);
  const auto grid = sweep::full_grid({"kmeans", "bscholes"},
                                     {Design::kBaseline, Design::kTruncate,
                                      Design::kAvr});
  ASSERT_EQ(merged.size(), grid.size());

  // Values must be identical (wall-clock aside) to a single-process sweep.
  ExperimentRunner single({}, /*verbose=*/false, /*cache_path=*/"");
  for (const auto& [w, d] : grid) {
    ASSERT_TRUE(merged.count({w, d})) << w << " x " << to_string(d);
    ExperimentResult got = merged.at({w, d});
    ExperimentResult want = single.run(w, d);
    got.wall_seconds = 0;
    want.wall_seconds = 0;
    EXPECT_EQ(encode_result_line(got), encode_result_line(want))
        << w << " x " << to_string(d);
  }
  std::remove(cache.c_str());
}

TEST(Sweep, T1VariantClaimWorkersCoexistInOneCache) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_t1_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  // Two --t1 variants of one cheap AVR point, split by two concurrent
  // --claim workers appending to ONE cache file.
  std::vector<pid_t> pids;
  for (int i = 0; i < 2; ++i)
    pids.push_back(spawn_sweep({bin, "--claim", "--owner",
                                "t1-w" + std::to_string(i), "--t1", "4,6",
                                "--workloads", "bscholes", "--designs", "AVR",
                                "--cache", cache, "--profile-out", "",
                                "--jobs", "1", "--quiet"}));
  wait_ok(pids);

  // Each variant's record is keyed by its own config fingerprint, and both
  // match an in-process runner simulating under the same forced threshold.
  for (int t1 : {4, 6}) {
    const auto records =
        load_result_cache(cache, config_fingerprint(sweep::variant_config(t1)));
    ASSERT_EQ(records.size(), 1u) << "t1=" << t1;
    ASSERT_TRUE(records.count({"bscholes", Design::kAvr}));
    ExperimentRunner runner(sweep::variant_config(t1), /*verbose=*/false,
                            /*cache_path=*/"");
    ExperimentResult got = records.at({"bscholes", Design::kAvr});
    ExperimentResult want = runner.run("bscholes", Design::kAvr);
    got.wall_seconds = 0;
    want.wall_seconds = 0;
    EXPECT_EQ(encode_result_line(got), encode_result_line(want)) << "t1=" << t1;
  }
  // The default-config grid must see none of the variant records.
  EXPECT_TRUE(
      load_result_cache(cache, config_fingerprint(SimConfig{})).empty());
  std::remove(cache.c_str());
}

TEST(Sweep, BadNumericFlagValueIsNamed) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string err_path =
      (std::filesystem::temp_directory_path() /
       ("avr_badflag_" + std::to_string(::getpid()) + ".txt"))
          .string();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--jobs", "abc"},
      {"--jobs", "-1"},
      {"--claim-lease", "99999999999999999999"},
      {"--claim-lease", "0"}};
  for (const auto& [flag, v] : cases) {
    // --list: even a wrongly accepted value must not start a sweep.
    const pid_t pid = spawn_sweep({bin, flag, v, "--list"}, err_path);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag << " " << v;
    std::ifstream in(err_path);
    const std::string err{std::istreambuf_iterator<char>(in), {}};
    EXPECT_NE(err.find("bad " + flag + " value: " + v), std::string::npos)
        << err;
  }
  std::remove(err_path.c_str());
}

}  // namespace
}  // namespace avr
