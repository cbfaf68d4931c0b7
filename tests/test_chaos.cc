// Chaos end-to-end: three forked --claim workers run the sweep under a
// deterministic fault schedule that SIGKILLs each of them at a different
// site — mid-result-append (torn line), right after a claim lands (dangling
// intact claim), and after simulation but before the append (lost work).
// The test then audits the wreckage with fsck, repairs it, lets a clean
// finisher worker complete the grid, and asserts the final cache is
// bit-identical (wall-clock excluded) to a fault-free single-process sweep.
//
// This is the capstone for the whole robustness stack: fault injection,
// v5 checksummed records, quarantining loads, claim leases, fsck/repair and
// work stealing all have to cooperate for the final --assert-same to pass.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_inject.hh"
#include "harness/fsck.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"

namespace avr {
namespace {

std::string sweep_binary() {
  const char* bin = std::getenv("AVR_SWEEP_BIN");
  return bin ? bin : "";
}

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("avr_chaos_" + tag + "_" + std::to_string(::getpid()) + ".csv"))
      .string();
}

/// fork/exec one avr_sweep with AVR_FAULTS set (or cleared) in the child.
pid_t spawn_sweep(const std::vector<std::string>& args,
                  const std::string& faults) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  if (faults.empty())
    unsetenv("AVR_FAULTS");
  else
    setenv("AVR_FAULTS", faults.c_str(), 1);
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);  // exec failed
}

TEST(Chaos, CrashedWorkersFsckRepairThenFinishBitIdentical) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";
#if !AVR_FAULT_INJECT
  GTEST_SKIP() << "built with AVR_FAULT_INJECT=OFF";
#endif

  const std::string cache = temp_path("e2e");
  const std::string ref = temp_path("ref");
  std::remove(cache.c_str());
  std::remove(ref.c_str());

  // The same 6-point sub-grid the work-stealing e2e uses.
  const std::string workloads = "kmeans,bscholes";
  const std::string designs = "baseline,truncate,AVR";
  const std::vector<std::string> grid_args = {
      "--workloads", workloads, "--designs", designs, "--jobs", "1", "--quiet"};
  auto worker_args = [&](const std::string& owner) {
    std::vector<std::string> a = {bin,       "--claim",       "--owner",
                                  owner,     "--claim-lease", "1",
                                  "--cache", cache};
    a.insert(a.end(), grid_args.begin(), grid_args.end());
    return a;
  };

  // The chaos schedule, seed logged by each worker's "[fault] armed" line.
  // Every death is deterministic: with 6 points and the other two workers
  // dying after at most one landed result each, open points always remain,
  // so each worker's nth trigger is guaranteed to be reached.
  //   w0 dies halfway through its FIRST result append  -> a torn line;
  //   w1 rides an EINTR storm on appends, then dies just AFTER its SECOND
  //      claim lands                                    -> a dangling claim
  //      (its first point's result is the one record that survives);
  //   w2 dies after simulating its first point, before the append
  //                                                     -> lost work.
  const std::vector<std::string> schedules = {
      "1913:cache.append=kill@n1",
      "1913:cache.append=eintr@0.5,claim.stake=kill@n2",
      "1913:point.complete=kill@n1",
  };
  std::vector<pid_t> pids;
  for (size_t i = 0; i < schedules.size(); ++i)
    pids.push_back(
        spawn_sweep(worker_args("w" + std::to_string(i)), schedules[i]));
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "worker exited instead of dying";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
  }

  // Let the dead workers' 1-second leases run out, so their dangling claims
  // audit as EXPIRED (crashed worker) rather than live (healthy mid-sweep).
  std::this_thread::sleep_for(std::chrono::milliseconds(2100));

  // The wreckage: one valid result (w1's first point), a torn line, and
  // expired dangling claims from all three corpses.
  const uint64_t now = static_cast<uint64_t>(std::time(nullptr));
  const FsckReport wreck = fsck_cache(cache, now);
  EXPECT_TRUE(wreck.has_issues());
  EXPECT_GE(wreck.corrupt.size(), 1u) << "w0's torn append is missing";
  EXPECT_GE(wreck.dangling_expired, 1u) << "no crashed-worker claims";
  ASSERT_GE(wreck.results, 1u) << "w1's surviving result is missing";
  // The quarantining loader must shrug the torn line off already.
  const size_t valid_before = load_result_cache(cache).size();
  EXPECT_GE(valid_before, 1u);

  // Repair: drops the torn line and the expired claims, keeps the results.
  std::string error;
  ASSERT_TRUE(repair_cache(cache, now, &error)) << error;
  const FsckReport post = fsck_cache(cache, now);
  EXPECT_FALSE(post.has_issues());
  EXPECT_FALSE(post.needs_repair());
  EXPECT_EQ(load_result_cache(cache).size(), valid_before);

  // A clean finisher claims and completes the remaining points.
  const pid_t fin = spawn_sweep(worker_args("finisher"), "");
  int status = 0;
  ASSERT_EQ(waitpid(fin, &status, 0), fin);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Coverage + claim audit through the CLI: zero missing, zero dangling.
  {
    std::vector<std::string> a = {bin, "--check", "--cache", cache};
    a.insert(a.end(), grid_args.begin(), grid_args.end());
    const pid_t chk = spawn_sweep(a, "");
    ASSERT_EQ(waitpid(chk, &status, 0), chk);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "--check failed after finish";
  }

  // The acceptance bar: value-identity with a fault-free single-process
  // sweep of the same grid, via the CLI's own comparator.
  {
    std::vector<std::string> a = {bin, "--cache", ref, "--profile-out", ""};
    a.insert(a.end(), grid_args.begin(), grid_args.end());
    const pid_t run = spawn_sweep(a, "");
    ASSERT_EQ(waitpid(run, &status, 0), run);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }
  {
    std::vector<std::string> a = {bin, "--assert-same", ref, "--cache", cache};
    a.insert(a.end(), grid_args.begin(), grid_args.end());
    const pid_t cmp = spawn_sweep(a, "");
    ASSERT_EQ(waitpid(cmp, &status, 0), cmp);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "chaos-built cache differs from the fault-free sweep";
  }

  for (const std::string& p : {cache, ref}) {
    // Profile sidecars of the dead workers may or may not exist; sweep them.
    std::remove(p.c_str());
    for (int i = 0; i < 3; ++i)
      std::remove((p + ".w" + std::to_string(i) + ".profile.json").c_str());
    std::remove((p + ".finisher.profile.json").c_str());
  }
}

TEST(Chaos, SweepSurvivesTransientFaultStormWithCorrectResults) {
  // Non-lethal chaos: EIO on some appends (ridden out by the bounded
  // retries) and EINTR storms on lock acquisition. The sweep must still
  // exit 0 with a complete, fault-free-identical cache — the injected
  // faults are transient, so no retry budget is ever exhausted.
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";
#if !AVR_FAULT_INJECT
  GTEST_SKIP() << "built with AVR_FAULT_INJECT=OFF";
#endif

  const std::string cache = temp_path("storm");
  const std::string ref = temp_path("stormref");
  std::remove(cache.c_str());
  std::remove(ref.c_str());
  const std::vector<std::string> grid_args = {
      "--workloads", "kmeans", "--designs", "baseline,AVR", "--jobs", "1",
      "--quiet"};

  std::vector<std::string> a = {bin, "--claim", "--owner", "stormy",
                                "--cache", cache};
  a.insert(a.end(), grid_args.begin(), grid_args.end());
  // p=0.3 EIO per append attempt: P(5 consecutive failures) ~ 0.24% per
  // record; with 2 records the run is overwhelmingly likely to stay inside
  // the retry budget, and the seed makes any surprise replayable.
  const pid_t pid =
      spawn_sweep(a, "7:cache.append=eio@0.3,lock.acquire=eintr@0.9");
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::vector<std::string> r = {bin, "--cache", ref, "--profile-out", ""};
  r.insert(r.end(), grid_args.begin(), grid_args.end());
  const pid_t rp = spawn_sweep(r, "");
  ASSERT_EQ(waitpid(rp, &status, 0), rp);
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::vector<std::string> c = {bin, "--assert-same", ref, "--cache", cache};
  c.insert(c.end(), grid_args.begin(), grid_args.end());
  const pid_t cp = spawn_sweep(c, "");
  ASSERT_EQ(waitpid(cp, &status, 0), cp);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const FsckReport audit =
      fsck_cache(cache, static_cast<uint64_t>(std::time(nullptr)));
  EXPECT_FALSE(audit.has_issues());

  for (const std::string& p : {cache, ref}) {
    std::remove(p.c_str());
    std::remove((p + ".stormy.profile.json").c_str());
  }
}

}  // namespace
}  // namespace avr
