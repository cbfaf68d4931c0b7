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
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
  --t1 N[,N...]      config axis: sweep with the T1 error threshold forced
                     to mantissa-MSbit index N for every workload (records
                     carry each variant's config fingerprint, so variants
                     coexist in one cache file). Default: the per-workload
                     paper thresholds only.
  --methods m[,m...] config axis: sweep method selections, each a '+'-joined
                     set of 1d, 2d, bdi or the alias avr (= 1d+2d): e.g.
                     "avr,avr+bdi" compares the paper's lossy pair against
                     the BDI-hybrid fallback. Like --t1, each selection is a
                     config-fingerprint variant in the shared cache.
                     Default: the default method set (1d+2d, BDI off).
  --cache path       result cache file (default: avr_results_cache.csv or
                     $AVR_RESULT_CACHE); "" disables persistence
  --profile          print the per-phase profile summary table on exit
  --profile-out p    profile sidecar JSON path (default
                     <cache>.<owner>.profile.json; "" disables the sidecar)
  --list             print the selected points and exit (runs nothing)
  --check            verify the cache already covers the selected points and
                     audit its claim records; exit 1 listing any missing
                     point (runs nothing)
  --assert-same p    verify the cache and cache file `p` contain the same
                     point set with identical metric values (wall-clock
                     timing excluded); exit 1 on any difference (runs nothing)
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
  std::vector<int> t1_values{-1};
  std::vector<int> methods_values{avr::sweep::kMethodsDefault};
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
    } else if (a == "--t1") {
      o.t1_values = avr::sweep::parse_t1_list(value(i, "--t1"));
    } else if (a == "--methods") {
      o.methods_values = avr::sweep::parse_methods_list(value(i, "--methods"));
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

/// Metric-value identity between two results: every simulated field, but not
/// wall_seconds (machine-dependent by design). Encoded-line comparison keeps
/// this in lockstep with the cache schema.
bool same_metrics(avr::ExperimentResult a, avr::ExperimentResult b) {
  a.wall_seconds = 0;
  b.wall_seconds = 0;
  return avr::encode_result_line(a) == avr::encode_result_line(b);
}

/// A (t1, methods) config variant — the key every per-variant structure
/// (runner map, coverage groups) is indexed by.
using Variant = std::pair<int, int>;

/// Coverage and identity checks must see only records simulated under the
/// variant being checked: the shared cache file may hold records for the
/// same (workload, design) keys under other fingerprints (ablation, --t1
/// or --methods variants), which would otherwise shadow the grid's records
/// in the loaded map. (-1, -1) is the default configuration.
uint64_t variant_fingerprint(Variant v) {
  return avr::config_fingerprint(avr::sweep::variant_config(v.first, v.second));
}

/// "(t1=6, methods=avr+bdi)" suffix for diagnostics; "" for the default
/// variant, matching the historical message format.
std::string variant_suffix(Variant v) {
  std::string s;
  if (v.first >= 0) s += " t1=" + std::to_string(v.first);
  if (v.second >= 0) s += " methods=" + avr::sweep::method_set_name(v.second);
  return s.empty() ? s : " (" + s.substr(1) + ")";
}

/// The grid grouped by (t1, methods) variant, preserving point order
/// within a group.
std::map<Variant, std::vector<avr::sweep::Point>> by_variant(
    const std::vector<avr::sweep::VariantPoint>& grid) {
  std::map<Variant, std::vector<avr::sweep::Point>> groups;
  for (const auto& vp : grid)
    groups[{vp.t1, vp.methods}].push_back(vp.point);
  return groups;
}

int check_coverage(const Options& o,
                   const std::vector<avr::sweep::VariantPoint>& grid) {
  size_t missing = 0;
  // Claim audit alongside coverage: a claim is *moot* once its point has a
  // result, *dangling* otherwise (its point is also missing, so dangling
  // claims imply a nonzero exit — "zero unclaimed points" in CI is exactly
  // this check passing).
  size_t claims = 0, dangling = 0;
  const uint64_t now = static_cast<uint64_t>(std::time(nullptr));
  for (const auto& [variant, points] : by_variant(grid)) {
    const uint64_t fp = variant_fingerprint(variant);
    const auto cache = avr::load_result_cache(o.cache_path, fp);
    for (const auto& [key, c] : avr::load_claims(o.cache_path, fp)) {
      ++claims;
      if (cache.count(key)) continue;
      ++dangling;
      std::fprintf(stderr, "dangling claim: %s x %s by %s (%s)\n",
                   key.first.c_str(), avr::to_string(key.second),
                   c.owner.c_str(), c.expired(now) ? "expired" : "live");
    }
    for (const auto& p : points) {
      if (!cache.count(p)) {
        std::fprintf(stderr, "missing: %s x %s%s\n", p.first.c_str(),
                     avr::to_string(p.second), variant_suffix(variant).c_str());
        ++missing;
      }
    }
  }
  if (missing || dangling) {
    std::fprintf(stderr,
                 "%s covers %zu/%zu points (%zu missing, %zu dangling "
                 "claim(s))\n",
                 o.cache_path.c_str(), grid.size() - missing, grid.size(),
                 missing, dangling);
    return 1;
  }
  std::printf("%s covers all %zu points (%zu claim record(s), all moot)\n",
              o.cache_path.c_str(), grid.size(), claims);
  return 0;
}

int check_same(const Options& o) {
  size_t differences = 0, compared = 0;
  std::vector<Variant> variants;
  for (int methods : o.methods_values)
    for (int t1 : o.t1_values) variants.push_back({t1, methods});
  for (const Variant& variant : variants) {
    const uint64_t fp = variant_fingerprint(variant);
    const auto a = avr::load_result_cache(o.cache_path, fp);
    const auto b = avr::load_result_cache(o.assert_same_path, fp);
    // A missing or record-free file would make the comparison vacuously
    // true — exactly what a path typo in a verification command must not do.
    if (a.empty() || b.empty()) {
      std::fprintf(stderr, "avr_sweep: no valid records in %s\n",
                   a.empty() ? o.cache_path.c_str() : o.assert_same_path.c_str());
      return 1;
    }
    compared += a.size();
    for (const auto& [key, ra] : a) {
      auto it = b.find(key);
      if (it == b.end()) {
        std::fprintf(stderr, "only in %s: %s x %s\n", o.cache_path.c_str(),
                     key.first.c_str(), avr::to_string(key.second));
        ++differences;
      } else if (!same_metrics(ra, it->second)) {
        std::fprintf(stderr, "values differ: %s x %s\n", key.first.c_str(),
                     avr::to_string(key.second));
        ++differences;
      }
    }
    for (const auto& [key, rb] : b) {
      if (!a.count(key)) {
        std::fprintf(stderr, "only in %s: %s x %s\n",
                     o.assert_same_path.c_str(), key.first.c_str(),
                     avr::to_string(key.second));
        ++differences;
      }
    }
  }
  if (differences) {
    std::fprintf(stderr, "%s and %s disagree on %zu point(s)\n",
                 o.cache_path.c_str(), o.assert_same_path.c_str(), differences);
    return 1;
  }
  std::printf("%s and %s agree on all %zu points\n", o.cache_path.c_str(),
              o.assert_same_path.c_str(), compared);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace avr;
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avr_sweep: %s\n%s", e.what(), kUsage);
    return 2;
  }

  // The (methods x t1 x workload x design) variant grid; the default --t1
  // and --methods lists ({-1} each) make it exactly the historical
  // (workload x design) grid. In claim mode every process works the full
  // grid — the claims do the splitting.
  const auto grid = sweep::full_variant_grid(o.t1_values, o.methods_values,
                                             o.workloads, o.designs);
  const bool t1_axis = o.t1_values.size() > 1 || o.t1_values[0] >= 0;
  const bool methods_axis =
      o.methods_values.size() > 1 || o.methods_values[0] >= 0;

  if (o.list) {
    for (const auto& [t1, p, methods] : grid) {
      if (methods_axis)
        std::printf("%s,", sweep::method_set_name(methods).c_str());
      if (t1_axis || methods_axis) std::printf("%d,", t1);
      std::printf("%s,%s\n", p.first.c_str(), to_string(p.second));
    }
    return 0;
  }
  if (o.check) return check_coverage(o, grid);
  if (o.assert_same) return check_same(o);
  if (o.fsck) return run_fsck(o);

  // One runner per (t1, methods) variant in the grid: each loads and
  // appends only records carrying its own config fingerprint, so all
  // variants share the one cache file.
  const auto groups = by_variant(grid);
  size_t warm = 0;
  std::vector<std::pair<Variant, std::unique_ptr<ExperimentRunner>>> runners;
  for (const auto& [variant, points] : groups) {
    runners.emplace_back(
        variant, std::make_unique<ExperimentRunner>(
                     sweep::variant_config(variant.first, variant.second),
                     /*verbose=*/!o.quiet, o.cache_path));
    for (const auto& [w, d] : points)
      if (runners.back().second->cached(w, d)) ++warm;
  }

  if (o.claim)
    std::fprintf(stderr,
                 "[sweep] claim mode (owner %s): %zu grid points (%zu cached, "
                 "%zu variant(s)), %u jobs, cache=%s\n",
                 o.owner.c_str(), grid.size(), warm, groups.size(), o.jobs,
                 o.cache_path.c_str());
  else
    std::fprintf(stderr,
                 "[sweep] %zu grid points (%zu cached, %zu variant(s)), %u "
                 "jobs, cache=%s\n",
                 grid.size(), warm, groups.size(), o.jobs,
                 o.cache_path.empty() ? "<disabled>" : o.cache_path.c_str());

  const auto t0 = std::chrono::steady_clock::now();
  size_t write_failures = 0;
  sweep::StealOutcome steal;
  try {
    if (o.claim) {
      std::map<Variant, ExperimentRunner*> rmap;
      for (auto& [variant, runner] : runners) rmap[variant] = runner.get();
      sweep::StealOptions so;
      so.owner = o.owner;
      so.lease_seconds = o.claim_lease;
      steal = sweep::run_work_stealing(
          grid,
          [&](const sweep::VariantPoint& vp) -> ExperimentRunner& {
            return *rmap.at({vp.t1, vp.methods});
          },
          o.cache_path, so, o.jobs);
      for (auto& [variant, runner] : runners)
        write_failures += runner->disk_write_failures();
    } else {
      for (auto& [variant, runner] : runners) {
        runner->run_points(groups.at(variant), o.jobs);
        write_failures += runner->disk_write_failures();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avr_sweep: point failed: %s\n", e.what());
    return 1;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // The cache IS this process's output: results that only exist in
  // memory are lost when it exits, so persistence failures are fatal here
  // (unlike in the figure benches, which still print their tables).
  if (!o.cache_path.empty() && write_failures > 0) {
    std::fprintf(stderr, "avr_sweep: %zu result(s) could not be appended to %s\n",
                 write_failures, o.cache_path.c_str());
    return 1;
  }

  // Per-phase profile: aggregate of every runner (and, in claim mode, the
  // scheduler's claim I/O), one slice per simulated point. The sidecar is
  // written unconditionally — it documents what this process did even when
  // nobody asked for the table.
  prof::Report report;
  report.owner = o.owner;
  report.mode = o.claim ? "claim" : "local";
  report.simd = simd_level_name(simd_level());
  report.wall_seconds = secs;
  // As the pools size themselves: never more threads than points.
  const unsigned jobs = o.jobs ? o.jobs : std::thread::hardware_concurrency();
  report.jobs = static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(jobs, grid.size())));
  report.aggregate = steal.sched;
  for (auto& [variant, runner] : runners) {
    report.aggregate.merge(runner->profile_totals());
    auto pts = runner->profile_points();
    report.points.insert(report.points.end(),
                         std::make_move_iterator(pts.begin()),
                         std::make_move_iterator(pts.end()));
  }
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
  if (o.claim)
    std::printf(
        "[sweep] claim done (owner %s): %zu simulated (%zu reclaimed), "
        "%zu already done, in %.1fs\n",
        o.owner.c_str(), steal.simulated, steal.reclaimed, steal.done_elsewhere,
        secs);
  else
    std::printf("[sweep] done: %zu points (%zu simulated) in %.1fs\n",
                grid.size(), grid.size() - warm, secs);
  return 0;
}
