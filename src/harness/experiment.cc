#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/fault_inject.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

/// Static cost heuristic, used for points with no persisted measurement:
/// simulation time scales with the workload's footprint (tracked by its LLC
/// size, which preserves the paper's footprint-to-LLC ratio) times how much
/// work the design adds per access. Normalized to rough seconds so the
/// values are comparable with measured wall_seconds. The factors are the
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
    : base_(base),
      cfg_hash_(config_fingerprint(base)),
      verbose_(verbose),
      cache_path_(std::move(cache_path)) {
  load_disk_cache();
  load_seed_costs();
}

ExperimentRunner::~ExperimentRunner() {
  const char* out = std::getenv("AVR_PROFILE_OUT");
  if (!out || !*out) return;
  prof::Report report;
  report.owner = prof::default_owner();
  report.mode = "runner";
  report.aggregate = profile_totals();
  report.points = profile_points();
  for (const prof::PointProfile& p : report.points)
    report.wall_seconds += p.wall_seconds;
  if (!report.aggregate.empty() && !prof::write_profile_json(out, report))
    std::fprintf(stderr, "[profile] WARNING: could not write %s\n", out);
}

prof::Totals ExperimentRunner::profile_totals() {
  std::lock_guard<std::mutex> lk(mu_);
  return prof_totals_;
}

std::vector<prof::PointProfile> ExperimentRunner::profile_points() {
  std::lock_guard<std::mutex> lk(mu_);
  return prof_points_;
}

void ExperimentRunner::load_disk_cache() {
  if (cache_path_.empty()) return;
  // Construction is single-threaded: route the load's cache-io time into
  // the aggregate without taking mu_.
  prof::ScopedSink sink(&prof_totals_);
  // Only records simulated under this runner's configuration: ablation
  // variants and the default grid can share one cache file.
  auto loaded = load_result_cache(cache_path_, cfg_hash_);
  for (auto& [key, r] : loaded) cache_[key] = std::move(r);
  if (verbose_ && !cache_.empty())
    std::fprintf(stderr, "[cache] loaded %zu results from %s\n", cache_.size(),
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

SimConfig ExperimentRunner::config_for(const Workload& wl) const {
  SimConfig cfg = base_;
  cfg.scale_caches(wl.cache_scale());
  cfg.llc.size_bytes = wl.llc_bytes();
  // The --t1 sweep axis forces one threshold across all workloads; the
  // default (-1) keeps the paper's per-application thresholds.
  cfg.avr.t1_mantissa_msbit = base_.avr.t1_override >= 0
                                  ? static_cast<uint32_t>(base_.avr.t1_override)
                                  : wl.t1_msbit();
  return cfg;
}

const std::vector<double>& ExperimentRunner::golden(const std::string& name) {
  // One golden run per workload even when several design points of the same
  // workload start concurrently: the per-workload once_flag makes every other
  // thread wait for (not duplicate) the computation.
  std::once_flag* flag;
  {
    std::lock_guard<std::mutex> lk(mu_);
    flag = &golden_once_[name];
  }
  std::call_once(*flag, [&] {
    auto wl = make_workload(name);
    System sys(Design::kBaseline, config_for(*wl), 1, /*timing=*/false);
    wl->run(sys);
    std::vector<double> out = wl->output(sys);
    std::lock_guard<std::mutex> lk(mu_);
    golden_[name] = std::move(out);
  });
  std::lock_guard<std::mutex> lk(mu_);
  return golden_.at(name);
}

bool ExperimentRunner::cached(const std::string& wl, Design d) {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.count({wl, d}) != 0;
}

double ExperimentRunner::cost_estimate(const std::string& wl, Design d) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find({wl, d});
    if (it != cache_.end() && it->second.wall_seconds > 0)
      return it->second.wall_seconds;
  }
  // Cold cache: the committed seed costs (measured on the default config)
  // still order points far better than the footprint heuristic below.
  if (auto it = seed_costs_.find({wl, d}); it != seed_costs_.end())
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
  // Replayed workloads declare their access count up front, and their cost
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

const ExperimentResult& ExperimentRunner::run(const std::string& name, Design d) {
  const auto key = std::make_pair(name, d);
  // Per-point once_flag: concurrent callers of the same uncached point wait
  // for one simulation instead of each running a duplicate. A throwing run
  // leaves the flag unset, so a later call retries.
  std::once_flag* flag;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      prof_totals_.bump(prof::Counter::kCacheHits);
      return it->second;
    }
    flag = &run_once_[key];
  }
  std::call_once(*flag, [&] {
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

      auto wl = [&] {
        AVR_PROF_SCOPE(prof::Phase::kSetup);
        return make_workload(name);
      }();
      System sys = [&] {
        AVR_PROF_SCOPE(prof::Phase::kSetup);
        return System(d, config_for(*wl));
      }();
      std::vector<double> out;
      {
        AVR_PROF_SCOPE(prof::Phase::kTiming);
        wl->run(sys);
        // Output is collected before the drain: it reflects the values the
        // application observes at the end of execution (see DESIGN.md).
        out = wl->output(sys);
        sys.finish();
      }

      res.workload = name;
      res.design = d;
      res.config_hash = cfg_hash_;
      res.m = sys.metrics();
      {
        AVR_PROF_SCOPE(prof::Phase::kFunctional);
        res.m.output_error = mean_relative_error(out, golden(name));
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
    prof_points_.push_back({name, to_string(d), base_.avr.t1_override,
                            res.wall_seconds, pt});
    cache_.emplace(key, std::move(res));
  });
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.at(key);
}

std::vector<ExperimentResult> ExperimentRunner::run_all(
    const std::vector<std::string>& workloads, const std::vector<Design>& designs,
    unsigned n_threads) {
  // sweep::full_grid is the single definition of the canonical order.
  return run_points(sweep::full_grid(workloads, designs), n_threads);
}

std::vector<ExperimentResult> ExperimentRunner::run_points(
    const std::vector<std::pair<std::string, Design>>& points,
    unsigned n_threads) {
  // Longest-first: the pool drains points in descending estimated cost, so a
  // ~30x-cost outlier starts immediately instead of serializing the tail of
  // the sweep. Already-cached points are skipped by the workers (run() on
  // them is a pure lookup), so only fresh work is ordered and reported.
  std::vector<size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> est(points.size());
  std::vector<char> warm(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    est[i] = cost_estimate(points[i].first, points[i].second);
    warm[i] = cached(points[i].first, points[i].second) ? 1 : 0;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return est[a] > est[b]; });
  const size_t fresh_total = static_cast<size_t>(
      std::count(warm.begin(), warm.end(), static_cast<char>(0)));

  if (n_threads == 0) n_threads = std::thread::hardware_concurrency();
  n_threads = std::max(1u, std::min<unsigned>(n_threads, points.size()));

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < order.size(); i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;  // don't start new points
      const auto& [w, d] = points[order[i]];
      try {
        const ExperimentResult& r = run(w, d);
        if (!warm[order[i]] && verbose_) {
          const size_t k = done.fetch_add(1) + 1;
          std::fprintf(stderr, "[sweep %3zu/%zu] %-8s x %-8s %7.2fs\n", k,
                       fresh_total, w.c_str(), to_string(d), r.wall_seconds);
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(n_threads - 1);
  for (unsigned t = 1; t < n_threads; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is part of the pool
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  // Every point is cached now. Collect by plain lookup, not run(): the
  // workers already counted each warm point as one cache hit.
  std::vector<ExperimentResult> out;
  out.reserve(points.size());
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [w, d] : points) out.push_back(cache_.at({w, d}));
  return out;
}

void print_normalized_table(
    ExperimentRunner& r, const std::string& title,
    const std::vector<std::string>& workloads, const std::vector<Design>& designs,
    const std::function<double(const RunMetrics&)>& metric, bool include_geomean) {
  std::printf("\n== %s (normalized to baseline) ==\n", title.c_str());
  std::printf("%-10s", "design");
  for (const auto& w : workloads) std::printf(" %9s", w.c_str());
  if (include_geomean) std::printf(" %9s", "geomean");
  std::printf("\n");
  for (Design d : designs) {
    std::printf("%-10s", to_string(d));
    double logsum = 0;
    int n = 0;
    for (const auto& w : workloads) {
      const double base = metric(r.run(w, Design::kBaseline).m);
      const double val = metric(r.run(w, d).m);
      const double norm = base > 0 ? val / base : 0.0;
      std::printf(" %9.3f", norm);
      if (norm > 0) {
        logsum += std::log(norm);
        ++n;
      }
    }
    if (include_geomean) std::printf(" %9.3f", n ? std::exp(logsum / n) : 0.0);
    std::printf("\n");
  }
}

void print_value_table(
    ExperimentRunner& r, const std::string& title,
    const std::vector<std::string>& workloads, const std::vector<Design>& designs,
    const std::function<double(const RunMetrics&)>& metric, const std::string& unit) {
  std::printf("\n== %s (%s) ==\n", title.c_str(), unit.c_str());
  std::printf("%-10s", "design");
  for (const auto& w : workloads) std::printf(" %9s", w.c_str());
  std::printf("\n");
  for (Design d : designs) {
    std::printf("%-10s", to_string(d));
    for (const auto& w : workloads) std::printf(" %9.3f", metric(r.run(w, d).m));
    std::printf("\n");
  }
}

}  // namespace avr
