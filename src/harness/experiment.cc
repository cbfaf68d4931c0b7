#include "harness/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/config_table.hh"
#include "common/fault_inject.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

/// Static cost heuristic, used for points with no seed cost: simulation
/// time scales with the workload's footprint (tracked by its LLC size,
/// which preserves the paper's footprint-to-LLC ratio) times how much work
/// the design adds per access. Normalized to rough seconds so the values
/// are comparable with the seed costs' measured seconds. The factors are the
/// geomean per-point cost ratios over baseline across the seven kernels,
/// measured once Doppelganger's data-array LRU became O(1); Doppelganger
/// and AVR land within run-to-run noise of each other (1.5-1.7x).
double design_cost_factor(Design d) {
  switch (d) {
    case Design::kBaseline: return 1.0;
    case Design::kTruncate: return 1.07;
    case Design::kZeroAvr: return 1.14;
    case Design::kDoppelganger: return 1.53;
    case Design::kAvr: return 1.65;
  }
  return 1.0;
}

/// Rethrows the exception in flight with `label` in front of its message;
/// a std::invalid_argument (a bad config or workload name) stays one.
[[noreturn]] void rethrow_with(const std::string& label) {
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(label + e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(label + e.what());
  }
}

}  // namespace

std::string ExperimentRunner::default_cache_path() {
  if (const char* p = std::getenv("AVR_RESULT_CACHE")) return p;
  return "avr_results_cache.csv";
}

std::string ExperimentRunner::default_seed_cost_path() {
  if (const char* p = std::getenv("AVR_SEED_COSTS")) return p;
  return "data/seed_costs.csv";
}

ExperimentRunner::ExperimentRunner(SimConfig base, bool verbose,
                                   std::string cache_path)
    : base_(base), verbose_(verbose), cache_path_(std::move(cache_path)) {
  load_seed_costs();
}

prof::Totals ExperimentRunner::profile_totals() {
  std::lock_guard<std::mutex> lk(mu_);
  return prof_totals_;
}

std::vector<prof::PointProfile> ExperimentRunner::profile_points() {
  std::lock_guard<std::mutex> lk(mu_);
  return prof_points_;
}

ExperimentRunner::Config& ExperimentRunner::config(const SimConfig& cfg) {
  const uint64_t fp = config_fingerprint(cfg);
  Config* c;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, fresh] = configs_.try_emplace(fp);
    c = &it->second;
    if (fresh) {
      c->base = cfg;
      c->fingerprint = fp;
      c->name = config_diff(cfg);
    }
  }
  // Workers racing on a config's first points wait for one load.
  c->loaded.run([&] { load_disk_cache(*c); });
  return *c;
}

void ExperimentRunner::load_disk_cache(Config& c) {
  if (cache_path_.empty()) return;
  // Only records simulated under this config: every config shares the file.
  prof::Totals io;
  std::map<sweep::Point, ExperimentResult> loaded;
  {
    prof::ScopedSink sink(&io);
    loaded = load_result_cache(cache_path_, c.fingerprint);
  }
  const size_t n = loaded.size();
  {
    // Nothing can have reached c.results yet: config() returns c only once
    // this load is done.
    std::lock_guard<std::mutex> lk(mu_);
    prof_totals_.merge(io);
    c.results = std::move(loaded);
  }
  if (verbose_ && n > 0)
    std::fprintf(stderr, "[cache] loaded %zu results from %s\n", n,
                 cache_path_.c_str());
}

void ExperimentRunner::load_seed_costs() {
  // Format: "workload,design_name,seconds", one point per line; '#' starts a
  // comment. Unknown workloads/designs and malformed lines are skipped, so a
  // stale seed file can never break a sweep — it only degrades scheduling.
  // The path is CWD-relative by default, so a binary launched outside the
  // repo root simply runs without the seed; the "[cost] loaded" line below
  // (mirroring "[cache] loaded") is how to tell which case you're in.
  std::ifstream in(default_seed_cost_path());
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string wl, design, secs;
    if (!std::getline(ls, wl, ',') || !std::getline(ls, design, ',') ||
        !std::getline(ls, secs))
      continue;
    try {
      const double v = std::stod(secs);
      if (v > 0) seed_costs_[{wl, sweep::design_from_name(design)}] = v;
    } catch (const std::exception&) {
      continue;
    }
  }
  if (verbose_ && !seed_costs_.empty())
    std::fprintf(stderr, "[cost] loaded %zu seed cost estimates from %s\n",
                 seed_costs_.size(), default_seed_cost_path().c_str());
}

SimConfig workload_config(const SimConfig& base, const Workload& wl) {
  SimConfig cfg = base;
  cfg.scale_caches(wl.cache_scale());
  cfg.llc.size_bytes = wl.llc_bytes();
  // avr.t1_override forces one threshold across all workloads; the default
  // (-1) keeps the paper's per-application thresholds.
  cfg.avr.t1_mantissa_msbit = base.avr.t1_override >= 0
                                  ? static_cast<uint32_t>(base.avr.t1_override)
                                  : wl.t1_msbit();
  try {
    validate_config(cfg);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("workload " + wl.name() + ", whose cache_scale " +
                                std::to_string(wl.cache_scale()) +
                                " divides l1 and l2: " + e.what());
  }
  return cfg;
}

SimConfig ExperimentRunner::config_for(const Workload& wl) const {
  return workload_config(base_, wl);
}

const std::vector<double>& ExperimentRunner::golden(Config& c,
                                                    const std::string& name) {
  // One golden run per (config, workload) even when several design points
  // of the same workload start concurrently: every other thread waits for
  // (not duplicates) the computation.
  Once* once;
  {
    std::lock_guard<std::mutex> lk(mu_);
    once = &c.golden_once[name];
  }
  once->run([&] {
    // The workload and its System are destroyed before this returns: their
    // memory is free before the caller builds its timed System.
    auto wl = make_workload(name);
    System sys(Design::kBaseline, workload_config(c.base, *wl), 1,
               /*timing=*/false);
    wl->run(sys);
    std::vector<double> out = wl->output(sys);
    std::lock_guard<std::mutex> lk(mu_);
    c.golden[name] = std::move(out);
  });
  std::lock_guard<std::mutex> lk(mu_);
  return c.golden.at(name);
}

bool ExperimentRunner::cached(const sweep::VariantPoint& vp) {
  Config& c = config(vp.config);
  std::lock_guard<std::mutex> lk(mu_);
  return c.results.count(vp.point) != 0;
}

double ExperimentRunner::cost_estimate(const sweep::VariantPoint& vp) {
  const auto& [wl, d] = vp.point;
  // The committed seed costs (measured on the default config) order points
  // far better than the footprint heuristic below. A point the runner
  // already holds a result for is a lookup, so its cost never matters.
  if (auto it = seed_costs_.find(vp.point); it != seed_costs_.end())
    return it->second;
  uint64_t footprint = 64 * 1024;
  uint64_t accesses = 0;
  try {
    auto w = make_workload(wl);
    footprint = w->llc_bytes();
    accesses = w->access_estimate();
  } catch (const std::exception&) {
    // Unknown workload: keep the default; run() will surface the error.
  }
  // Replayed workloads declare their access count up front (counted once,
  // when the per-process trace memo parses the file, so an estimate per
  // design neither re-reads the trace nor walks its records), and their cost
  // scales with records, not footprint: ~2e6 replayed accesses per second
  // on the baseline design (measured on the bundled data/traces/ set after
  // the PR-5 fast path; dominated by per-point System construction for
  // short traces, hence the floor).
  if (accesses > 0)
    return std::max(0.02, static_cast<double>(accesses) *
                              design_cost_factor(d) / 2e6);
  // ~5e5 footprint-bytes per simulated second (median fit from the default
  // sweep re-measured after the PR-5 access-chain fast path).
  return static_cast<double>(footprint) * design_cost_factor(d) / 5e5;
}

const ExperimentResult& ExperimentRunner::run(const sweep::VariantPoint& vp) {
  const auto& [name, d] = vp.point;
  Config& c = config(vp.config);
  // Per-point Once: concurrent callers of the same uncached point wait for
  // one simulation instead of each running a duplicate. A throwing run
  // leaves the point undone, so a later call retries.
  Once* once;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = c.results.find(vp.point);
    if (it != c.results.end()) {
      prof_totals_.bump(prof::Counter::kCacheHits);
      return it->second;
    }
    once = &c.run_once[vp.point];
  }
  auto simulate = [&] {
    if (verbose_)
      std::fprintf(stderr, "[run] %-8s x %-8s ...\n", name.c_str(), to_string(d));
    const auto t0 = std::chrono::steady_clock::now();

    // Everything the point does on this thread — setup, the runs, the
    // compressor sub-spans, the cache append — accumulates into one
    // per-point Totals, merged into the runner aggregate at the end.
    prof::Totals pt;
    ExperimentResult res;
    {
      prof::ScopedSink sink(&pt);

      // The golden first, freed before the timed System is built, so the
      // point holds one workload image at a time.
      const std::vector<double>* gold;
      {
        AVR_PROF_SCOPE(prof::Phase::kFunctional);
        gold = &golden(c, name);
      }
      auto wl = [&] {
        AVR_PROF_SCOPE(prof::Phase::kSetup);
        return make_workload(name);
      }();
      System sys = [&] {
        AVR_PROF_SCOPE(prof::Phase::kSetup);
        return System(d, workload_config(c.base, *wl));
      }();
      std::vector<double> out;
      {
        AVR_PROF_SCOPE(prof::Phase::kTiming);
        wl->run(sys);
        // Output is collected before the drain: it reflects the values the
        // application observes at the end of execution (docs/ARCHITECTURE.md,
        // "AVR request and eviction flows").
        out = wl->output(sys);
        sys.finish();
      }

      res.workload = name;
      res.design = d;
      res.config_hash = c.fingerprint;
      res.m = sys.metrics();
      {
        AVR_PROF_SCOPE(prof::Phase::kFunctional);
        res.m.output_error = mean_relative_error(out, *gold);
      }
      res.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      prof::count(prof::Counter::kPointsSimulated);

      // "point.complete": the crash window between a finished simulation
      // and its result append — a kill here loses the work and leaves this
      // process's claim dangling until the lease expires (the chaos test's
      // favorite wound).
      if (fault::fire(fault::Site::kPointComplete) == fault::Kind::kKill)
        fault::kill_now(fault::Site::kPointComplete);

      // Append before taking mu_: the cross-process flock inside can block on
      // another shard's writer, and stalling this process's other workers on
      // mu_ for that would serialize point completion across processes.
      if (!cache_path_.empty() && !append_result_line(cache_path_, res)) {
        disk_write_failures_.fetch_add(1);
        std::fprintf(stderr,
                     "[cache] WARNING: could not append %s x %s to %s; "
                     "keeping the result in memory only\n",
                     name.c_str(), to_string(d), cache_path_.c_str());
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    prof_totals_.merge(pt);
    prof_points_.push_back({name, to_string(d), c.name, res.wall_seconds, pt});
    c.results.emplace(vp.point, std::move(res));
  };
  try {
    once->run(simulate);
  } catch (...) {
    rethrow_with("point " + name + " x " + to_string(d) +
                 (c.name.empty() ? "" : " [" + c.name + "]") + " failed: ");
  }
  std::lock_guard<std::mutex> lk(mu_);
  return c.results.at(vp.point);
}

std::vector<ExperimentResult> ExperimentRunner::run_all(
    const std::vector<std::string>& workloads, const std::vector<Design>& designs,
    unsigned n_threads) {
  // sweep::full_grid is the single definition of the canonical order.
  const auto points = sweep::full_grid(workloads, designs);
  std::vector<sweep::VariantPoint> grid;
  grid.reserve(points.size());
  for (const auto& p : points) grid.push_back({base_, p});
  const sweep::StealOutcome outcome = sweep::run_grid(grid, *this, "", {}, n_threads);

  // Every point is cached now. Collect by plain lookup, not run(): the
  // scheduler already counted each warm point as one cache hit.
  Config& c = config(base_);
  std::vector<ExperimentResult> out;
  out.reserve(points.size());
  std::lock_guard<std::mutex> lk(mu_);
  prof_totals_.merge(outcome.sched);  // the scheduler's cost-estimate prelude
  for (const auto& p : points) out.push_back(c.results.at(p));
  return out;
}

}  // namespace avr
