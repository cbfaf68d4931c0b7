// Claim-based work-stealing tests: the v4 claim-record grammar, the
// try_claim_point state machine (fresh / busy / expired / done), the
// makespan advantage over static round-robin shards on the committed seed
// costs, and the end-to-end acceptance paths — three concurrent --claim
// processes produce a cache identical to a single-process sweep, including
// after one of them is SIGKILLed mid-run and its claims expire.
#include "harness/result_cache.hh"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

ClaimRecord claim(const std::string& wl, Design d, const std::string& owner,
                  uint64_t at, uint64_t lease, uint64_t cfg = 7) {
  ClaimRecord c;
  c.workload = wl;
  c.design = d;
  c.config_hash = cfg;
  c.owner = owner;
  c.claimed_at = at;
  c.lease_seconds = lease;
  return c;
}

TEST(ClaimRecordCodec, RoundTrips) {
  const ClaimRecord c = claim("kmeans", Design::kAvr, "host-42", 1700000000, 60);
  const std::string line = encode_claim_line(c);
  ClaimRecord back;
  ASSERT_TRUE(decode_claim_line(line, &back)) << line;
  EXPECT_EQ(back.workload, "kmeans");
  EXPECT_EQ(back.design, Design::kAvr);
  EXPECT_EQ(back.config_hash, 7u);
  EXPECT_EQ(back.owner, "host-42");
  EXPECT_EQ(back.claimed_at, 1700000000u);
  EXPECT_EQ(back.lease_seconds, 60u);
}

TEST(ClaimRecordCodec, ExpiryIsInclusiveOfLeaseEnd) {
  const ClaimRecord c = claim("kmeans", Design::kAvr, "o", 100, 30);
  EXPECT_FALSE(c.expired(100));
  EXPECT_FALSE(c.expired(129));
  EXPECT_TRUE(c.expired(130));
  EXPECT_TRUE(c.expired(1000));
}

TEST(ClaimRecordCodec, RejectsTornAndForeignLines) {
  const std::string line =
      encode_claim_line(claim("kmeans", Design::kAvr, "o", 5, 6));
  ClaimRecord c;
  // Every strict prefix is torn; none may decode.
  for (size_t cut = 0; cut < line.size(); ++cut)
    EXPECT_FALSE(decode_claim_line(line.substr(0, cut), &c)) << cut;
  EXPECT_FALSE(decode_claim_line("", &c));
  EXPECT_FALSE(decode_claim_line(line + ",extra", &c));
  // A result line is not a claim, and vice versa.
  ExperimentResult r;
  r.workload = "kmeans";
  EXPECT_FALSE(decode_claim_line(encode_result_line(r), &c));
  EXPECT_FALSE(decode_result_line(line, &r));
  // Claims are current-version-only transient state.
  std::string old = line;
  old[0] = '3';
  EXPECT_FALSE(decode_claim_line(old, &c));
}

TEST(ClaimRecordCodec, ResultLoaderSkipsClaims) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("avr_claims_skip_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ExperimentResult r;
  r.workload = "kmeans";
  r.design = Design::kAvr;
  r.config_hash = 7;
  ASSERT_TRUE(append_result_line(path, r));
  {
    std::ofstream out(path, std::ios::app);
    out << encode_claim_line(claim("heat", Design::kAvr, "o", 1, 2)) << "\n";
  }
  const auto results = load_result_cache(path, uint64_t{7});
  EXPECT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.count({"kmeans", Design::kAvr}));
  const auto claims = load_claims(path, uint64_t{7});
  EXPECT_EQ(claims.size(), 1u);
  EXPECT_TRUE(claims.count({"heat", Design::kAvr}));
  std::remove(path.c_str());
}

TEST(ClaimRecordCodec, LastClaimWinsAndConfigFilters) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("avr_claims_last_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(path);
    out << encode_claim_line(claim("kmeans", Design::kAvr, "first", 1, 2)) << "\n"
        << encode_claim_line(claim("kmeans", Design::kAvr, "second", 3, 4)) << "\n"
        << encode_claim_line(claim("kmeans", Design::kAvr, "other-cfg", 5, 6, 99))
        << "\n";
  }
  const auto claims = load_claims(path, uint64_t{7});
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims.at({"kmeans", Design::kAvr}).owner, "second");
  EXPECT_EQ(load_claims(path, uint64_t{99}).at({"kmeans", Design::kAvr}).owner,
            "other-cfg");
  std::remove(path.c_str());
}

TEST(TryClaimPoint, StateMachine) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("avr_claim_sm_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(path.c_str());
  const ClaimRecord a = claim("kmeans", Design::kAvr, "A", 0, 30);
  const ClaimRecord b = claim("kmeans", Design::kAvr, "B", 0, 30);

  // Fresh point: A wins; B is locked out while A's lease is live; A's own
  // retry stays kClaimed without appending a duplicate record.
  EXPECT_EQ(try_claim_point(path, a, 100), ClaimOutcome::kClaimed);
  EXPECT_EQ(try_claim_point(path, b, 110), ClaimOutcome::kBusy);
  EXPECT_EQ(try_claim_point(path, a, 110), ClaimOutcome::kClaimed);
  {
    std::ifstream in(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, 1u) << "own live claim must not be re-appended";
  }

  // Lease expiry: B supersedes A's stale claim, and now A is the one busy.
  EXPECT_EQ(try_claim_point(path, b, 131), ClaimOutcome::kReclaimed);
  EXPECT_EQ(try_claim_point(path, a, 140), ClaimOutcome::kBusy);

  // A result ends the game for everyone, live claims notwithstanding.
  ExperimentResult r;
  r.workload = "kmeans";
  r.design = Design::kAvr;
  r.config_hash = 7;
  ASSERT_TRUE(append_result_line(path, r));
  EXPECT_EQ(try_claim_point(path, a, 141), ClaimOutcome::kDone);
  EXPECT_EQ(try_claim_point(path, b, 141), ClaimOutcome::kDone);

  // A different config_hash is a different point: claimable independently.
  ClaimRecord other = claim("kmeans", Design::kAvr, "A", 0, 30, 99);
  EXPECT_EQ(try_claim_point(path, other, 141), ClaimOutcome::kClaimed);
  std::remove(path.c_str());
}

// ---- scheduling quality ----------------------------------------------------

// Work stealing drains points longest-first into whichever worker is free —
// the classic LPT schedule. On the committed seed-cost mix its makespan must
// beat a static round-robin split (computed here), which pins each point to
// a process no matter how the costs land. This is the deterministic case
// for claiming points instead of splitting the grid up front.
TEST(WorkStealing, LptBeatsStaticShardsOnSeedCosts) {
  ExperimentRunner runner({}, /*verbose=*/false, /*cache_path=*/"");
  const auto grid =
      sweep::full_grid(workload_names(), ExperimentRunner::paper_designs());
  std::vector<double> cost;
  for (const auto& [w, d] : grid) cost.push_back(runner.cost_estimate(w, d));
  // The seed file must actually be loaded (AVR_SEED_COSTS points at the
  // committed data/seed_costs.csv): estimates then span a wide cost mix.
  ASSERT_GT(*std::max_element(cost.begin(), cost.end()),
            4 * *std::min_element(cost.begin(), cost.end()))
      << "seed costs not loaded? AVR_SEED_COSTS=" << std::getenv("AVR_SEED_COSTS");

  constexpr unsigned kShards = 3;
  // Static: shard i owns points with canonical index == i (mod N).
  double static_makespan = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    double sum = 0;
    for (size_t i = s; i < cost.size(); i += kShards) sum += cost[i];
    static_makespan = std::max(static_makespan, sum);
  }
  // Stealing: longest-first greedy onto the least-loaded worker.
  std::vector<size_t> order(cost.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost[a] > cost[b]; });
  std::vector<double> load(kShards, 0.0);
  for (size_t i : order)
    *std::min_element(load.begin(), load.end()) += cost[i];
  const double steal_makespan = *std::max_element(load.begin(), load.end());

  EXPECT_LT(steal_makespan, static_makespan);
  // And it must be close to the lower bound (perfect balance), not just
  // marginally better: LPT is within 4/3 of optimal, the static slices are
  // not.
  const double ideal =
      std::accumulate(cost.begin(), cost.end(), 0.0) / kShards;
  EXPECT_LT(steal_makespan, 1.34 * ideal);
}

// ---- end-to-end: concurrent --claim processes, one cache -------------------

std::string sweep_binary() {
  const char* bin = std::getenv("AVR_SWEEP_BIN");
  return bin ? bin : "";
}

pid_t spawn_sweep(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);  // exec failed
}

void assert_matches_single_process_sweep(const std::string& cache,
                                         const std::vector<sweep::Point>& grid) {
  const auto merged = load_result_cache(cache);
  ASSERT_EQ(merged.size(), grid.size());
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
}

TEST(WorkStealing, ThreeClaimProcessesMatchSingleProcessSweep) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_claim_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  // Same sub-grid as test_sweep's concurrent-writer e2e (6 points, AVR
  // included): all three workers race for the whole grid through claims.
  const std::string workloads = "kmeans,bscholes";
  const std::string designs = "baseline,truncate,AVR";
  std::vector<pid_t> pids;
  for (int i = 0; i < 3; ++i)
    pids.push_back(spawn_sweep(
        {bin, "--claim", "--owner", "w" + std::to_string(i), "--workloads",
         workloads, "--designs", designs, "--cache", cache, "--profile-out",
         cache + ".w" + std::to_string(i) + ".json", "--jobs", "1", "--quiet"}));
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  assert_matches_single_process_sweep(
      cache, sweep::full_grid({"kmeans", "bscholes"},
                              {Design::kBaseline, Design::kTruncate,
                               Design::kAvr}));

  // Every worker emitted its profile sidecar.
  for (int i = 0; i < 3; ++i) {
    const std::string sidecar = cache + ".w" + std::to_string(i) + ".json";
    std::ifstream in(sidecar);
    ASSERT_TRUE(in.good()) << sidecar;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"schema\":\"avr-profile-v1\""), std::string::npos);
    EXPECT_NE(text.find("\"mode\":\"claim\""), std::string::npos);
    // The sidecar records which kernel dispatch level produced the numbers.
    const std::string simd =
        std::string("\"simd\":\"") + simd_level_name(simd_level()) + "\"";
    EXPECT_NE(text.find(simd), std::string::npos);
    EXPECT_NE(text.find("\"jobs\":1,"), std::string::npos);
    std::remove(sidecar.c_str());
  }
  std::remove(cache.c_str());
}

TEST(WorkStealing, SurvivorReclaimsPointsOfSigkilledWorker) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_claim_kill_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  const std::string workloads = "kmeans,bscholes";
  const std::string designs = "baseline,truncate,AVR";

  // Worker A starts alone (one thread, 1s leases), so its first move is to
  // claim the most expensive open point and start simulating it.
  const pid_t a = spawn_sweep({bin, "--claim", "--owner", "victim",
                               "--claim-lease", "1", "--workloads", workloads,
                               "--designs", designs, "--cache", cache, "--jobs",
                               "1", "--quiet"});

  // SIGKILL it the moment its first claim record lands — mid-simulation,
  // before the point's result. The kernel drops the flock with the process.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool claimed = false;
  while (!claimed && std::chrono::steady_clock::now() < deadline) {
    if (!load_claims(cache).empty()) {
      claimed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(claimed) << "worker never staked a claim";
  ASSERT_EQ(kill(a, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(a, &status, 0), a);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The victim must leave at least one dangling claim (claimed, no result)
  // for the survivor to reclaim.
  std::set<ResultKey> dangling;
  {
    const auto results = load_result_cache(cache);
    for (const auto& [key, c] : load_claims(cache))
      if (!results.count(key)) dangling.insert(key);
  }
  ASSERT_FALSE(dangling.empty()) << "victim finished before SIGKILL landed";

  // The survivor sweeps the whole grid: the victim's dangling claims expire
  // (1s lease) and are reclaimed; everything else is claimed fresh.
  const pid_t b = spawn_sweep({bin, "--claim", "--owner", "survivor",
                               "--workloads", workloads, "--designs", designs,
                               "--cache", cache, "--quiet"});
  ASSERT_EQ(waitpid(b, &status, 0), b);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Full coverage — explicitly including every point the victim had claimed
  // but not finished — with values identical to a single-process sweep.
  const auto results = load_result_cache(cache);
  for (const ResultKey& key : dangling)
    EXPECT_TRUE(results.count(key))
        << "dangling claim not reclaimed: " << key.first << " x "
        << to_string(key.second);
  assert_matches_single_process_sweep(
      cache, sweep::full_grid({"kmeans", "bscholes"},
                              {Design::kBaseline, Design::kTruncate,
                               Design::kAvr}));
  // The reclaim trail is visible in the journal: the survivor's superseding
  // claim for a dangling key.
  const auto final_claims = load_claims(cache);
  bool superseded = false;
  for (const ResultKey& key : dangling) {
    auto it = final_claims.find(key);
    if (it != final_claims.end() && it->second.owner == "survivor")
      superseded = true;
  }
  EXPECT_TRUE(superseded) << "no dangling claim was superseded by the survivor";
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace avr
