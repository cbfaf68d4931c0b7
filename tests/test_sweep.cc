// Sweep grid tests: canonical grid order, --set config axes and list
// parsing, and the end-to-end acceptance paths — concurrent avr_sweep
// processes appending to one cache produce the same records as a single
// in-process sweep, with and without --claim, and avr_report over a
// complete cache is pure lookup.
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

/// The axes of `args`, each a --set argument, parsed in order.
std::vector<sweep::SetAxis> axes_of(const std::vector<std::string>& args) {
  std::vector<sweep::SetAxis> axes;
  for (const auto& a : args) sweep::add_set_axis(axes, a);
  return axes;
}

TEST(Sweep, ConfigGridIsFirstSetOutermost) {
  const auto axes = axes_of({"avr.t1_override=4,6", "avr.enable_bdi_hybrid=0,1"});
  const std::vector<Design> designs = {Design::kBaseline, Design::kAvr};
  const auto grid = sweep::config_grid(axes, {"kmeans", "lbm"}, designs);
  ASSERT_EQ(grid.size(), 16u);
  // First --set outermost, then the second, then workload-major points.
  EXPECT_EQ(config_diff(grid[0].config), "avr.t1_override=4");
  EXPECT_EQ(config_diff(grid[4].config), "avr.t1_override=4 avr.enable_bdi_hybrid=1");
  EXPECT_EQ(config_diff(grid[8].config), "avr.t1_override=6");
  EXPECT_EQ(config_diff(grid[12].config), "avr.t1_override=6 avr.enable_bdi_hybrid=1");
  const auto points = sweep::full_grid({"kmeans", "lbm"}, designs);
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(config_diff(grid[i].config), config_diff(grid[i / 4 * 4].config)) << i;
    EXPECT_EQ(grid[i].point, points[i % 4]) << i;
  }
}

TEST(Sweep, ConfigGridWithoutSetIsTheDefaultGrid) {
  const auto designs = ExperimentRunner::paper_designs();
  const auto plain = sweep::full_grid(workload_names(), designs);
  const auto grid = sweep::config_grid({}, workload_names(), designs);
  ASSERT_EQ(grid.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(config_diff(grid[i].config), "");
    EXPECT_EQ(grid[i].point, plain[i]);
  }
}

TEST(Sweep, SetKeysRecordsByTheConfigFingerprint) {
  const auto fp_of = [](const std::string& set) {
    const auto grid = sweep::config_grid(axes_of({set}), {"kmeans"}, {Design::kAvr});
    return config_fingerprint(grid.at(0).config);
  };
  SimConfig t1;
  t1.avr.t1_override = 6;
  SimConfig bdi;
  bdi.avr.enable_bdi_hybrid = true;
  EXPECT_EQ(fp_of("avr.t1_override=6"), config_fingerprint(t1));
  EXPECT_EQ(fp_of("avr.enable_bdi_hybrid=1"), config_fingerprint(bdi));
  // Setting a knob to its default is the default config, not a new key.
  EXPECT_EQ(fp_of("avr.enable_1d=1"), config_fingerprint(SimConfig{}));
  EXPECT_EQ(fp_of("avr.t1_override=-1"), config_fingerprint(SimConfig{}));
}

TEST(Sweep, ConfigGridRefusesAPairTheWorkloadCannotScale) {
  // 256 B of l1 in 4 ways is one set; kmeans divides it by 16.
  try {
    (void)sweep::config_grid(axes_of({"l1.size_bytes=256,65536"}), {"kmeans"},
                             {Design::kAvr});
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "bad --set value: l1.size_bytes=256 (workload kmeans, whose "
                 "cache_scale 16 divides l1 and l2: SimConfig: l1.size_bytes = 16 "
                 "is outside 64..274877906944)");
  }
}

// The double knob's value parsing is ConfigTable.ParseKnobValueDouble.
TEST(Sweep, ParseSetAxis) {
  const auto axes = axes_of({"avr.t1_override=0,22", "l2.ways=16"});
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_STREQ(axes[0].knob->name, "avr.t1_override");
  EXPECT_EQ(axes[0].values, (std::vector<uint64_t>{0, 22}));
  EXPECT_STREQ(axes[1].knob->name, "l2.ways");
  EXPECT_EQ(axes[1].values, (std::vector<uint64_t>{16}));
}

TEST(Sweep, BadSetArgumentsAreNamed) {
  const auto expect_bad = [](const std::string& arg) {
    std::vector<sweep::SetAxis> axes;
    try {
      sweep::add_set_axis(axes, arg);
      ADD_FAILURE() << "accepted " << arg;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad --set value: " + arg), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(axes.empty()) << arg;
  };
  // Malformed, unknown, refused because config_for overwrites it, or
  // refused because no model code reads it.
  for (const char* arg : {"avr.t1_override", "=4", "nosuch=1", "core=4", "AVR.x=1"})
    expect_bad(arg);
  for (const char* arg : {"llc.size_bytes=1024", "avr.t1_mantissa_msbit=6",
                          "core.freq_ghz=2.5", "l1.latency=1", "l2.latency=8"})
    expect_bad(arg);
  // Every value is parsed strictly and range-checked.
  for (const char* v : {"", "4,,6", "4,", "23", "-2", "4.5", " 4", "4 ", "six"})
    expect_bad(std::string("avr.t1_override=") + v);
  for (const char* v : {"0", "-1", "+4", "4294967296", "0x4"})
    expect_bad(std::string("core.dispatch_width=") + v);
  for (const char* v : {"2", "true", "-0"})
    expect_bad(std::string("avr.enable_pfe=") + v);
  // Each value once: a repeat would run its points twice.
  for (const char* arg : {"avr.enable_pfe=0,0", "avr.t1_override=4,6,4"})
    expect_bad(arg);
  // One axis per knob.
  std::vector<sweep::SetAxis> axes;
  sweep::add_set_axis(axes, "avr.enable_pfe=0");
  EXPECT_THROW(sweep::add_set_axis(axes, "avr.enable_pfe=1"), std::invalid_argument);
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

  // A name given twice is refused, naming it: it would count its points twice.
  const auto refusal = [](auto parse, const char* csv) -> std::string {
    try {
      (void)parse(csv);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(refusal(sweep::parse_design_list, "AVR,avr"), "repeated design: avr");
  EXPECT_EQ(refusal(sweep::parse_design_list, "baseline,AVR,baseline"),
            "repeated design: baseline");
  EXPECT_EQ(refusal(sweep::parse_workload_list, "kmeans,kmeans"),
            "repeated workload: kmeans");
  EXPECT_EQ(refusal(sweep::parse_workload_list, "kmeans,heat,kmeans"),
            "repeated workload: kmeans");
}

// ---- end-to-end: N processes, one cache ------------------------------------

std::string sweep_binary() {
  const char* bin = std::getenv("AVR_SWEEP_BIN");
  return bin ? bin : "";
}

/// Forks and execs `args`. Non-empty `stderr_path` and `stdout_path`
/// receive the child's stderr and stdout; a non-empty `result_cache`
/// becomes its AVR_RESULT_CACHE.
pid_t spawn_tool(const std::vector<std::string>& args,
                 const std::string& stderr_path = "",
                 const std::string& stdout_path = "",
                 const std::string& result_cache = "") {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const auto redirect = [](const std::string& path, int target) {
    if (path.empty()) return;
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, target) < 0) _exit(126);
  };
  redirect(stderr_path, STDERR_FILENO);
  redirect(stdout_path, STDOUT_FILENO);
  if (!result_cache.empty() && ::setenv("AVR_RESULT_CACHE", result_cache.c_str(), 1))
    _exit(126);
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
    pids.push_back(spawn_tool({bin, "--workloads", workloads, "--designs",
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

  // Two avr.t1_override variants of one cheap AVR point, split by two
  // concurrent --claim workers appending to ONE cache file.
  const std::string axis = "avr.t1_override=4,6";
  std::vector<pid_t> pids;
  for (int i = 0; i < 2; ++i)
    pids.push_back(spawn_tool({bin, "--claim", "--owner",
                               "t1-w" + std::to_string(i), "--set", axis,
                               "--workloads", "bscholes", "--designs", "AVR",
                               "--cache", cache, "--profile-out", "",
                               "--jobs", "1", "--quiet"}));
  wait_ok(pids);

  // Each variant's record is keyed by its own config fingerprint, and both
  // match an in-process runner simulating under the same forced threshold.
  for (int t1 : {4, 6}) {
    SimConfig cfg;
    cfg.avr.t1_override = t1;
    const auto records = load_result_cache(cache, config_fingerprint(cfg));
    ASSERT_EQ(records.size(), 1u) << "t1=" << t1;
    ASSERT_TRUE(records.count({"bscholes", Design::kAvr}));
    ExperimentRunner runner(cfg, /*verbose=*/false, /*cache_path=*/"");
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

TEST(Sweep, HeaderAndSidecarNameTheResolvedJobCount) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const std::string cache = (dir / ("avr_jobs_" + tag + ".csv")).string();
  const std::string sidecar = (dir / ("avr_jobs_" + tag + ".json")).string();
  const std::string err_path = (dir / ("avr_jobs_" + tag + ".txt")).string();
  std::remove(cache.c_str());

  // One point and no --jobs: however many cores the host has, the sweep
  // runs on one thread, and both the header and the sidecar say so.
  std::vector<std::string> args = {bin, "--workloads", "bscholes", "--designs", "AVR"};
  args.insert(args.end(), {"--cache", cache, "--profile-out", sidecar, "--quiet"});
  wait_ok({spawn_tool(args, err_path)});
  std::ifstream err_in(err_path);
  const std::string err{std::istreambuf_iterator<char>(err_in), {}};
  EXPECT_NE(err.find("[sweep] local mode: 1 grid points"), std::string::npos) << err;
  EXPECT_NE(err.find("1 variant(s)), 1 jobs, cache="), std::string::npos) << err;
  std::ifstream json_in(sidecar);
  const std::string json{std::istreambuf_iterator<char>(json_in), {}};
  EXPECT_NE(json.find("\"jobs\":1,"), std::string::npos) << json;
  for (const std::string& f : {cache, sidecar, err_path}) std::remove(f.c_str());
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
      {"--claim-lease", "0"},
      {"--set", "avr.t1_override=23"},
      {"--set", "avr.t1_override=six"},
      {"--set", "avr.nosuch=1"},
      {"--set", "llc.size_bytes=1024"},
      // Refused by the table: geometry (after the workload's cache_scale),
      // a power-of-two row, a range (memory-sized for DRAM and
      // Doppelganger, field-sized for the failure history), and a knob
      // nothing reads.
      {"--set", "l2.ways=3"},
      {"--set", "dram.channels=3"},
      {"--set", "dg_tag_factor=3"},
      {"--set", "dram.channels=2147483648"},
      {"--set", "dg_tag_factor=2147483648"},
      {"--set", "avr.max_failures=16"},
      {"--set", "avr.max_skips=4"},
      {"--set", "llc.ways=512"},
      {"--set", "l1.size_bytes=64"},
      {"--set", "core.freq_ghz=2"}};
  for (const auto& [flag, v] : cases) {
    // --list: even a wrongly accepted value must not start a sweep.
    const pid_t pid = spawn_tool({bin, flag, v, "--list"}, err_path);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag << " " << v;
    std::ifstream in(err_path);
    const std::string err{std::istreambuf_iterator<char>(in), {}};
    EXPECT_NE(err.find("bad " + flag + " value: " + v), std::string::npos)
        << err;
  }
  // A claim worker refuses a bad grid before its [sweep] header: no cache
  // file, so no dangling claim record.
  const std::string cache = err_path + ".csv";
  std::vector<std::string> args = {bin, "--claim", "--cache", cache};
  args.insert(args.end(), {"--workloads", "lbm", "--set", "l1.size_bytes=64"});
  const pid_t pid = spawn_tool(args, err_path);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::ifstream in(err_path);
  const std::string err{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(err.find("bad --set value: l1.size_bytes=64 (workload lbm, whose "
                     "cache_scale 16 divides l1 and l2: SimConfig: l1.size_bytes = 4 "
                     "is outside"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("[sweep]"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(cache));
  std::remove(err_path.c_str());
}

TEST(Sweep, CheckJudgesOnlyTheSelectedPointsClaims) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const std::string cache = (dir / ("avr_check_" + tag + ".csv")).string();
  const std::string out_path = (dir / ("avr_check_" + tag + ".out")).string();
  const std::string err_path = (dir / ("avr_check_" + tag + ".err")).string();

  // heat x baseline has a result and two claims on it (moot); kmeans x
  // baseline only a claim whose lease ran out long ago (a dead worker's).
  const uint64_t fp = config_fingerprint(SimConfig{});
  ExperimentResult heat;
  heat.workload = "heat";
  heat.design = Design::kBaseline;
  heat.config_hash = fp;
  auto claim = [fp](const std::string& wl, const std::string& owner) {
    ClaimRecord c;
    c.workload = wl;
    c.design = Design::kBaseline;
    c.config_hash = fp;
    c.owner = owner;
    c.claimed_at = 1;
    c.lease_seconds = 1;
    return encode_claim_line(c) + '\n';
  };
  {
    std::ofstream out(cache);
    out << claim("heat", "w0") << claim("heat", "w1");
    out << encode_result_line(heat) << '\n';
    out << claim("kmeans", "w-dead");
  }

  struct Run {
    int status = -1;
    std::string out, err;
  };
  auto check = [&](const std::string& workload) {
    const pid_t pid = spawn_tool({bin, "--check", "--cache", cache, "--workloads",
                                  workload, "--designs", "baseline"},
                                 err_path, out_path);
    Run run;
    int status = 0;
    if (waitpid(pid, &status, 0) == pid && WIFEXITED(status))
      run.status = WEXITSTATUS(status);
    std::ifstream out_in(out_path), err_in(err_path);
    run.out.assign(std::istreambuf_iterator<char>(out_in), {});
    run.err.assign(std::istreambuf_iterator<char>(err_in), {});
    return run;
  };

  // Selected: the finished point. The other point's dead claim is not its
  // business, and two claim records on one point count as one claimed point.
  const Run done = check("heat");
  EXPECT_EQ(done.status, 0) << done.err;
  EXPECT_EQ(done.out, cache + " covers all 1 points (1 claimed point(s), all moot)\n");
  EXPECT_EQ(done.err, "");

  // Selected: the point the dead worker left behind.
  const Run open = check("kmeans");
  EXPECT_EQ(open.status, 1);
  EXPECT_EQ(open.out, "");
  EXPECT_EQ(open.err,
            "dangling claim: kmeans x baseline by w-dead (expired)\n"
            "missing: kmeans x baseline\n" +
                cache + " covers 0/1 points (1 missing, 1 dangling claim(s))\n");
  for (const std::string& f : {cache, out_path, err_path}) std::remove(f.c_str());
}

TEST(Sweep, AssertSameJudgesOnlyTheSelectedPoints) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const std::string a = (dir / ("avr_same_a_" + tag + ".csv")).string();
  const std::string b = (dir / ("avr_same_b_" + tag + ".csv")).string();
  const std::string out_path = (dir / ("avr_same_" + tag + ".out")).string();
  const std::string err_path = (dir / ("avr_same_" + tag + ".err")).string();

  // Both files hold heat x baseline alike and kmeans x baseline with
  // different cycles; each also holds a point the other lacks.
  auto record = [](const std::string& wl, Design d, uint64_t cycles) {
    ExperimentResult r;
    r.workload = wl;
    r.design = d;
    r.config_hash = config_fingerprint(SimConfig{});
    r.m.cycles = cycles;
    return encode_result_line(r) + '\n';
  };
  {
    std::ofstream out(a);
    out << record("heat", Design::kBaseline, 7) << record("kmeans", Design::kBaseline, 8)
        << record("lbm", Design::kDoppelganger, 9);
  }
  {
    std::ofstream out(b);
    out << record("heat", Design::kBaseline, 7) << record("kmeans", Design::kBaseline, 80)
        << record("orbit", Design::kAvr, 9);
  }

  struct Run {
    int status = -1;
    std::string out, err;
  };
  auto same = [&](const std::string& workloads, const std::string& designs) {
    const pid_t pid = spawn_tool({bin, "--assert-same", b, "--cache", a, "--workloads",
                                  workloads, "--designs", designs},
                                 err_path, out_path);
    Run run;
    int status = 0;
    if (waitpid(pid, &status, 0) == pid && WIFEXITED(status))
      run.status = WEXITSTATUS(status);
    std::ifstream out_in(out_path), err_in(err_path);
    run.out.assign(std::istreambuf_iterator<char>(out_in), {});
    run.err.assign(std::istreambuf_iterator<char>(err_in), {});
    return run;
  };

  const std::string both = a + " and " + b;
  const std::string disagree = both + " disagree on 1 point(s)\n";

  // The differing and one-sided points lie outside the selection.
  const Run agree = same("heat", "baseline");
  EXPECT_EQ(agree.status, 0) << agree.err;
  EXPECT_EQ(agree.out, both + " agree on all 1 compared points\n");
  EXPECT_EQ(agree.err, "");

  // A selected point in neither file is skipped, and counted.
  const Run skipped = same("heat,wrf", "baseline");
  EXPECT_EQ(skipped.status, 0) << skipped.err;
  EXPECT_EQ(skipped.out, both + " agree on all 1 compared points" +
                             " (1 selected point(s) in neither)\n");

  // Selected: the point whose values differ.
  const Run differ = same("heat,kmeans", "baseline");
  EXPECT_EQ(differ.status, 1);
  EXPECT_EQ(differ.out, "");
  EXPECT_EQ(differ.err, "values differ: kmeans x baseline\n" + disagree);

  // Selected: a point only one file holds.
  const Run one_sided = same("lbm,orbit", "dganger");
  EXPECT_EQ(one_sided.status, 1);
  EXPECT_EQ(one_sided.err, "only in " + a + ": lbm x dganger\n" + disagree);

  // A selection neither file holds compares nothing, which is no agreement.
  const Run none = same("wrf", "baseline");
  EXPECT_EQ(none.status, 1);
  EXPECT_EQ(none.out, "");
  EXPECT_EQ(none.err, "avr_sweep: no selected point is in " + a + " or " + b + "\n");

  for (const std::string& f : {a, b, out_path, err_path}) std::remove(f.c_str());
}

// ---- end-to-end: avr_report ----------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

struct ToolRun {
  int status = -1;
  std::string out, err;
};

/// Runs avr_report with `names` over `cache` ("" inherits AVR_RESULT_CACHE).
ToolRun run_report(const std::vector<std::string>& names, const std::string& cache = "") {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const std::string out_path = (dir / ("avr_report_" + tag + ".out")).string();
  const std::string err_path = (dir / ("avr_report_" + tag + ".err")).string();
  std::vector<std::string> args = {std::getenv("AVR_REPORT_BIN")};
  args.insert(args.end(), names.begin(), names.end());
  const pid_t pid = spawn_tool(args, err_path, out_path, cache);
  ToolRun run;
  int status = 0;
  if (waitpid(pid, &status, 0) == pid && WIFEXITED(status))
    run.status = WEXITSTATUS(status);
  run.out = slurp(out_path);
  run.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return run;
}

bool has_run_line(const std::string& err) {
  return err.starts_with("[run]") || err.find("\n[run]") != std::string::npos;
}

// Structure only, never metric values: regenerating the reference with
// bench_e2e --write-reference must not break this test.
TEST(Report, DefaultConfigReportsOverTheReferenceArePureLookup) {
  const char* ref = std::getenv("AVR_REFERENCE_CACHE");
  if (!std::getenv("AVR_REPORT_BIN") || !ref)
    GTEST_SKIP() << "AVR_REPORT_BIN or AVR_REFERENCE_CACHE not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_report_ref_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::string before = slurp(ref);
  ASSERT_FALSE(before.empty()) << ref;
  std::ofstream(cache, std::ios::binary) << before;
  const std::vector<std::pair<std::string, std::string>> reports = {
      {"fig9", "Fig. 9: Execution time"},
      {"fig10", "Fig. 10: Total energy"},
      {"fig12", "Fig. 12: AMAT"},
      {"fig13", "Fig. 13: LLC MPKI"},
      {"fig14", "Fig. 14: AVR LLC requests"},
      {"fig15", "Fig. 15: AVR LLC evictions"},
      {"table3", "Table 3: Application output error"}};
  for (const auto& [name, title] : reports) {
    const ToolRun run = run_report({name}, cache);
    EXPECT_EQ(run.status, 0) << name << "\n" << run.err;
    EXPECT_NE(run.out.find(title), std::string::npos) << name << "\n" << run.out;
    EXPECT_FALSE(has_run_line(run.err)) << name << " simulated:\n" << run.err;
    EXPECT_EQ(slurp(cache), before) << name << " changed the cache";
  }
  std::remove(cache.c_str());
}

TEST(Report, UnknownNameExits2ListingTheNames) {
  if (!std::getenv("AVR_REPORT_BIN")) GTEST_SKIP() << "AVR_REPORT_BIN not set";
  const ToolRun run = run_report({"fig99"});
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.err.find("fig99"), std::string::npos) << run.err;
  for (const char* name : {"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                           "fig15", "table3", "table4", "overheads", "ablation"})
    EXPECT_NE(run.err.find(std::string("  ") + name + " "), std::string::npos)
        << name << "\n" << run.err;
  EXPECT_EQ(run_report({}).status, 2);
}

TEST(Report, OverheadsExitsZero) {
  if (!std::getenv("AVR_REPORT_BIN")) GTEST_SKIP() << "AVR_REPORT_BIN not set";
  const ToolRun run = run_report({"overheads"});
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_NE(run.out.find("CMT 23-bit encoding round-trip: ok"), std::string::npos)
      << run.out;
}

}  // namespace
}  // namespace avr
