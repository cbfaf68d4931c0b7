// avr_sweep: command-line driver for the paper's (workload x design)
// sweep. Without --claim an invocation runs its whole selection in-process;
// with --claim it runs whatever points it wins by work stealing, so a full
// reproduction splits across processes (or CI jobs). Results go to a
// writer-safe CSV cache, and caches merge by concatenation. Every run also
// emits a per-phase profile sidecar (docs/OPERATIONS.md documents both the
// claim protocol and the profile schema).
//
//   avr_sweep --claim --cache sweep.csv &          three cooperating
//   avr_sweep --claim --cache sweep.csv &          workers splitting the
//   avr_sweep --claim --cache sweep.csv            grid by work stealing
//   avr_sweep --workloads lbm --cache lbm.csv      one selection, in-process
//   avr_sweep --set avr.t1_override=4,6 --cache t1.csv   a config axis
//   avr_sweep --check --cache merged.csv           assert full-grid coverage
//   avr_sweep --assert-same other.csv --cache a.csv   compare two caches
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config_table.hh"
#include "common/profile.hh"
#include "common/simd.hh"
#include "harness/experiment.hh"
#include "harness/fsck.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"

namespace {

constexpr const char* kUsage = R"(usage: avr_sweep [options]

Runs the selected (workload x design) sweep and appends results to the
shared CSV cache. Exits nonzero if any point fails.

  --claim            work-stealing mode: claim points one at a time through
                     the shared cache file until the whole grid has results;
                     any number of concurrent --claim processes cooperate
                     (requires a cache)
  --claim-lease s    fixed claim lease in seconds (default 0 = adaptive:
                     max(30, 20 x estimated point cost))
  --owner name       claim-owner token, unique per process, comma-free
                     (default <hostname>-<pid>)
  --jobs n           thread-pool size (default 0 = hardware concurrency)
  --workloads a,b    comma-separated workload subset (default: all seven)
  --designs x,y      comma-separated design subset, names as printed in the
                     tables: baseline,dganger,truncate,ZeroAVR,AVR
                     (default: all five)
  --set name=v[,v...]
                     config axis: sweep config knob `name` (a SimConfig path
                     such as avr.t1_override or avr.enable_bdi_hybrid, as
                     listed in src/common/config_table.cc) over the given
                     values, each range-checked. Repeatable: the
                     grid is the cross product of every --set, the first
                     outermost. Records carry each config's fingerprint, so
                     variants coexist in one cache file. Default: the
                     default config only. Refused: llc.size_bytes and
                     avr.t1_mantissa_msbit (set per workload), core.freq_ghz,
                     l1.latency, l2.latency (read by nothing). A grid with a
                     config invalid for a workload (its cache_scale divides
                     l1 and l2) exits 2 before running or writing anything.
  --cache path       result cache file (default: avr_results_cache.csv or
                     $AVR_RESULT_CACHE); "" disables persistence
  --profile          print the per-phase profile summary table on exit
  --profile-out p    profile sidecar JSON path (default
                     <cache>.<owner>.profile.json; "" disables the sidecar)
  --list             print the selected points and exit (runs nothing)
  --check            verify the cache already covers the selected points and
                     audit its claim records; exit 1 listing any missing
                     point (runs nothing)
  --assert-same p    verify the cache and cache file `p` hold identical
                     metric values (wall-clock timing excluded) for the
                     selected points: a selected point in only one file is
                     a difference, one in neither is skipped, and points
                     outside the selection are not compared; exit 1 on any
                     difference (runs nothing)
  --fsck             audit every line of the cache file — checksum failures,
                     torn appends, duplicate/conflicting results, stale and
                     dangling claims, foreign record versions — and print the
                     accounting; exit 1 if the cache needs attention (runs
                     nothing)
  --repair           with --fsck: rewrite the cache as a clean current-version
                     file (atomically, under the cache flock), keeping the
                     last valid result per point and any live dangling claims;
                     exits by the post-repair audit
  --quiet            suppress per-point progress lines
  --help             this text
)";

struct Options {
  bool claim = false;
  uint64_t claim_lease = 0;
  std::string owner = avr::prof::default_owner();
  unsigned jobs = 0;
  std::vector<std::string> workloads;
  std::vector<avr::Design> designs;
  std::vector<avr::sweep::SetAxis> axes;
  std::string cache_path = avr::ExperimentRunner::default_cache_path();
  std::string assert_same_path;
  std::string profile_out;
  bool profile_out_set = false;
  bool profile = false;
  bool list = false;
  bool check = false;
  bool assert_same = false;
  bool fsck = false;
  bool repair = false;
  bool quiet = false;
};

/// Strict integer value of `flag`: digits only, within [lo, hi]. Anything
/// else (junk, a sign, overflow) throws "bad <flag> value: <v>".
uint64_t parse_uint(const std::string& v, const char* flag, uint64_t lo,
                    uint64_t hi) {
  size_t pos = 0;
  uint64_t n = 0;
  try {
    if (!v.empty() && std::isdigit(static_cast<unsigned char>(v[0])))
      n = std::stoull(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != v.size() || n < lo || n > hi)
    throw std::invalid_argument(std::string("bad ") + flag + " value: " + v);
  return n;
}

Options parse_args(int argc, char** argv) {
  Options o;
  o.workloads = avr::workload_names();
  o.designs = avr::ExperimentRunner::paper_designs();
  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--claim") {
      o.claim = true;
    } else if (a == "--claim-lease") {
      o.claim_lease = parse_uint(value(i, "--claim-lease"), "--claim-lease", 1,
                                 std::numeric_limits<int64_t>::max());
    } else if (a == "--owner") {
      o.owner = value(i, "--owner");
      if (o.owner.empty() || o.owner.find(',') != std::string::npos ||
          o.owner.find('\n') != std::string::npos)
        throw std::invalid_argument("--owner must be a non-empty comma-free token");
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--profile-out") {
      o.profile_out = value(i, "--profile-out");
      o.profile_out_set = true;
    } else if (a == "--jobs") {
      o.jobs = static_cast<unsigned>(parse_uint(
          value(i, "--jobs"), "--jobs", 0, std::numeric_limits<int>::max()));
    } else if (a == "--workloads") {
      o.workloads = avr::sweep::parse_workload_list(value(i, "--workloads"));
    } else if (a == "--designs") {
      o.designs = avr::sweep::parse_design_list(value(i, "--designs"));
    } else if (a == "--set") {
      avr::sweep::add_set_axis(o.axes, value(i, "--set"));
    } else if (a == "--cache") {
      o.cache_path = value(i, "--cache");
    } else if (a == "--assert-same") {
      o.assert_same = true;
      o.assert_same_path = value(i, "--assert-same");
    } else if (a == "--list") {
      o.list = true;
    } else if (a == "--check") {
      o.check = true;
    } else if (a == "--fsck") {
      o.fsck = true;
    } else if (a == "--repair") {
      o.repair = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  if (o.claim && o.cache_path.empty())
    throw std::invalid_argument("--claim needs a cache file (claims live in it)");
  if (o.repair && !o.fsck)
    throw std::invalid_argument("--repair only makes sense with --fsck");
  if (o.fsck && o.cache_path.empty())
    throw std::invalid_argument("--fsck needs a cache file");
  return o;
}

/// --fsck [--repair]: audit (and optionally rewrite) the cache, exit by the
/// final audit's verdict. Unlike --check this is grid-agnostic — it judges
/// the file itself, not its coverage of any particular selection.
int run_fsck(const Options& o) {
  const uint64_t now = static_cast<uint64_t>(std::time(nullptr));
  avr::FsckReport report = avr::fsck_cache(o.cache_path, now);
  avr::print_fsck_report(stdout, o.cache_path, report);
  if (!o.repair) return report.has_issues() ? 1 : 0;
  if (!report.needs_repair()) {
    std::printf("nothing to repair\n");
    return 0;
  }
  std::string error;
  if (!avr::repair_cache(o.cache_path, now, &error)) {
    std::fprintf(stderr, "avr_sweep: repair failed: %s (original untouched)\n",
                 error.c_str());
    return 1;
  }
  std::printf("repaired %s; re-auditing:\n", o.cache_path.c_str());
  report = avr::fsck_cache(o.cache_path, now);
  avr::print_fsck_report(stdout, o.cache_path, report);
  return report.has_issues() ? 1 : 0;
}

using Grid = std::vector<avr::sweep::VariantPoint>;

/// The grid's config fingerprints, each once, in order of first appearance.
/// Identity checks must see only records simulated under the config being
/// checked: the shared cache file may hold records for the same (workload,
/// design) keys under other fingerprints (ablation or --set variants), which
/// would otherwise shadow the grid's records in the loaded map.
std::vector<uint64_t> distinct_fingerprints(const Grid& grid) {
  std::vector<uint64_t> out;
  for (const auto& vp : grid) {
    const uint64_t fp = avr::config_fingerprint(vp.config);
    if (std::find(out.begin(), out.end(), fp) == out.end()) out.push_back(fp);
  }
  return out;
}

/// --check: "is the sweep done?" for the selected points only. A selected
/// point without a result is missing; if a claim governs it, the claim is
/// dangling (live: a sweep is still running; expired: a worker died). Claims
/// on points outside the selection are --fsck's business.
int check_coverage(const Options& o, const Grid& grid) {
  avr::CacheScan scan;
  scan.load(o.cache_path);
  const uint64_t now = static_cast<uint64_t>(std::time(nullptr));
  size_t missing = 0, dangling = 0, claimed = 0;
  for (const auto& [config, p] : grid) {
    const auto& st =
        scan.state(p.first, p.second, avr::config_fingerprint(config));
    if (st.governing) ++claimed;
    if (st.done) continue;
    ++missing;
    const std::string name = avr::config_diff(config);
    const std::string suffix = name.empty() ? "" : " (" + name + ")";
    if (st.governing) {
      ++dangling;
      std::fprintf(stderr, "dangling claim: %s x %s%s by %s (%s)\n",
                   p.first.c_str(), avr::to_string(p.second), suffix.c_str(),
                   st.governing->owner.c_str(),
                   st.governing->expired(now) ? "expired" : "live");
    }
    std::fprintf(stderr, "missing: %s x %s%s\n", p.first.c_str(),
                 avr::to_string(p.second), suffix.c_str());
  }
  const size_t total = grid.size();
  if (missing) {
    std::fprintf(stderr,
                 "%s covers %zu/%zu points (%zu missing, %zu dangling "
                 "claim(s))\n",
                 o.cache_path.c_str(), total - missing, total, missing, dangling);
    return 1;
  }
  std::printf("%s covers all %zu points (%zu claimed point(s), all moot)\n",
              o.cache_path.c_str(), total, claimed);
  return 0;
}

/// The results `scan` holds under config `fp`, by (workload, design).
std::map<avr::ResultKey, const avr::ExperimentResult*> results_under(
    const avr::CacheScan& scan, uint64_t fp) {
  std::map<avr::ResultKey, const avr::ExperimentResult*> out;
  for (const auto& [key, p] : scan.points()) {
    const auto& [workload, design, config_hash] = key;
    if (config_hash == fp && p.result)
      out.emplace(avr::ResultKey{workload, design}, &*p.result);
  }
  return out;
}

/// --assert-same: do the two caches hold the same results for the selected
/// points? A selected point in only one file is a difference; a selected
/// point in neither is skipped, as a --set selection need not cover every
/// workload. Points outside the selection are not compared. A file with no
/// record under a selected config, or a selection with no point in either
/// file, fails: a path typo must not pass vacuously.
int check_same(const Options& o, const Grid& grid) {
  using Results = std::map<avr::ResultKey, const avr::ExperimentResult*>;
  avr::CacheScan scan_a, scan_b;
  scan_a.load(o.cache_path);
  scan_b.load(o.assert_same_path);
  std::map<uint64_t, std::pair<Results, Results>> by_config;
  for (const uint64_t fp : distinct_fingerprints(grid)) {
    Results a = results_under(scan_a, fp), b = results_under(scan_b, fp);
    if (a.empty() || b.empty()) {
      std::fprintf(stderr, "avr_sweep: no valid records in %s\n",
                   a.empty() ? o.cache_path.c_str() : o.assert_same_path.c_str());
      return 1;
    }
    by_config.emplace(fp, std::make_pair(std::move(a), std::move(b)));
  }
  size_t differences = 0, compared = 0, in_neither = 0;
  for (const auto& [config, p] : grid) {
    const auto& [a, b] = by_config.at(avr::config_fingerprint(config));
    const auto ra = a.find(p), rb = b.find(p);
    const bool in_a = ra != a.end(), in_b = rb != b.end();
    if (!in_a && !in_b) {
      ++in_neither;
      continue;
    }
    const std::string name = avr::config_diff(config);
    const std::string suffix = name.empty() ? "" : " (" + name + ")";
    if (in_a != in_b) {
      std::fprintf(stderr, "only in %s: %s x %s%s\n",
                   in_a ? o.cache_path.c_str() : o.assert_same_path.c_str(),
                   p.first.c_str(), avr::to_string(p.second), suffix.c_str());
      ++differences;
      continue;
    }
    ++compared;
    if (!avr::same_metrics(*ra->second, *rb->second)) {
      std::fprintf(stderr, "values differ: %s x %s%s\n", p.first.c_str(),
                   avr::to_string(p.second), suffix.c_str());
      ++differences;
    }
  }
  if (differences) {
    std::fprintf(stderr, "%s and %s disagree on %zu point(s)\n",
                 o.cache_path.c_str(), o.assert_same_path.c_str(), differences);
    return 1;
  }
  if (compared == 0) {
    std::fprintf(stderr, "avr_sweep: no selected point is in %s or %s\n",
                 o.cache_path.c_str(), o.assert_same_path.c_str());
    return 1;
  }
  std::printf("%s and %s agree on all %zu compared points", o.cache_path.c_str(),
              o.assert_same_path.c_str(), compared);
  if (in_neither) std::printf(" (%zu selected point(s) in neither)", in_neither);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace avr;
  // The (config x workload x design) grid; without --set it is exactly the
  // default-config (workload x design) grid. In claim mode every process
  // works the full grid — the claims do the splitting. Building it judges
  // every (config, workload) pair, so a bad grid exits here, in every mode.
  Options o;
  Grid grid;
  try {
    o = parse_args(argc, argv);
    grid = sweep::config_grid(o.axes, o.workloads, o.designs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avr_sweep: %s\n%s", e.what(), kUsage);
    return 2;
  }

  if (o.list) {
    for (const auto& [config, p] : grid) {
      if (!o.axes.empty()) std::printf("%s,", config_diff(config).c_str());
      std::printf("%s,%s\n", p.first.c_str(), to_string(p.second));
    }
    return 0;
  }
  if (o.check) return check_coverage(o, grid);
  if (o.assert_same) return check_same(o, grid);
  if (o.fsck) return run_fsck(o);

  // One runner for every config in the grid: it loads each config's records
  // the first time it sees the config (here, counting the warm points) and
  // stamps each record with its config's fingerprint, so all variants share
  // the one cache file.
  ExperimentRunner runner({}, !o.quiet, o.cache_path);
  size_t warm = 0;
  for (const auto& vp : grid)
    if (runner.cached(vp)) ++warm;

  // Never more threads than points (the scheduler clamps the same way).
  const unsigned wanted = o.jobs ? o.jobs : std::thread::hardware_concurrency();
  const unsigned jobs = static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(wanted, grid.size())));
  const std::string mode = o.claim ? "claim mode (owner " + o.owner + ")" : "local mode";
  std::fprintf(stderr,
               "[sweep] %s: %zu grid points (%zu cached, %zu variant(s)), %u "
               "jobs, cache=%s\n",
               mode.c_str(), grid.size(), warm, distinct_fingerprints(grid).size(), jobs,
               o.cache_path.empty() ? "<disabled>" : o.cache_path.c_str());

  const auto t0 = std::chrono::steady_clock::now();
  size_t write_failures = 0;
  sweep::StealOutcome steal;
  try {
    sweep::StealOptions so;
    so.owner = o.owner;
    so.lease_seconds = o.claim_lease;
    steal = sweep::run_grid(grid, runner, o.claim ? o.cache_path : "", so, jobs);
    write_failures = runner.disk_write_failures();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avr_sweep: %s\n", e.what());
    return 1;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // The cache IS this process's output: results that only exist in
  // memory are lost when it exits, so persistence failures are fatal here
  // (unlike in avr_report, which still prints its tables).
  if (!o.cache_path.empty() && write_failures > 0) {
    std::fprintf(stderr, "avr_sweep: %zu result(s) could not be appended to %s\n",
                 write_failures, o.cache_path.c_str());
    return 1;
  }

  // Per-phase profile: aggregate of the runner and the scheduler (its
  // cost-estimate prelude and, in claim mode, its claim I/O), one slice per
  // simulated point. The sidecar is written unconditionally — it documents
  // what this process did even when nobody asked for the table.
  prof::Report report;
  report.owner = o.owner;
  report.mode = o.claim ? "claim" : "local";
  report.simd = simd_level_name(simd_level());
  report.wall_seconds = secs;
  report.jobs = jobs;
  report.aggregate = steal.sched;
  report.aggregate.merge(runner.profile_totals());
  report.points = runner.profile_points();
  std::string profile_path = o.profile_out;
  if (!o.profile_out_set && !o.cache_path.empty())
    profile_path = o.cache_path + "." + o.owner + ".profile.json";
  if (!profile_path.empty() &&
      !prof::write_profile_json(profile_path, report))
    std::fprintf(stderr, "avr_sweep: WARNING: could not write profile %s\n",
                 profile_path.c_str());
  if (o.profile) prof::print_summary(stdout, report);

  if (steal.degraded)
    std::fprintf(stderr,
                 "[sweep] WARNING: %zu point(s) ran without a claim (cache "
                 "I/O kept failing); results are correct but duplicate work "
                 "was possible — consider avr_sweep --fsck on %s\n",
                 steal.claim_errors, o.cache_path.c_str());
  // The points simulated here, whichever mode: a warm point has no slice.
  const size_t simulated = report.points.size();
  std::printf(
      "[sweep] %s done: %zu simulated (%zu reclaimed), %zu already done, in %.1fs\n",
      mode.c_str(), simulated, steal.reclaimed, grid.size() - simulated, secs);
  return 0;
}
