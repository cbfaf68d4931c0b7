// Experiment driver: runs (config x workload x design) points and computes
// application output error against a golden functional run. avr_report
// prints the paper's tables from its results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/profile.hh"
#include "common/types.hh"
#include "harness/sweep.hh"
#include "runtime/system.hh"
#include "workloads/workload.hh"

namespace avr {

struct ExperimentResult {
  std::string workload;
  Design design = Design::kBaseline;
  RunMetrics m;
  /// config_fingerprint() of the base SimConfig the point was simulated
  /// under. Persisted (result-cache format v3+) so caches can hold points
  /// from several configurations — the ablation sweeps — side by side.
  uint64_t config_hash = 0;
  /// Wall-clock seconds the point took to simulate. Persisted in the disk
  /// cache and reported in the profile sidecar; NOT part of the simulated
  /// result (shard caches produced on different machines differ here while
  /// agreeing on every metric).
  double wall_seconds = 0;
};

/// `base` with l1 and l2 divided by Workload::cache_scale and the workload's
/// LLC size and T1 threshold. Throws std::invalid_argument naming the
/// workload and its cache_scale if that fails validate_config.
SimConfig workload_config(const SimConfig& base, const Workload& wl);

class ExperimentRunner {
 public:
  /// One runner serves every config: results, goldens and run-once flags
  /// are held per (config fingerprint, workload, design). `base` is the
  /// config of the (workload, design) forms below. `cache_path`: optional
  /// CSV file persisting results across avr_report and sweep processes.
  /// Appends are safe against concurrent writer *processes* — see
  /// harness/result_cache.hh for the format and locking contract. Records
  /// carry their config's fingerprint (format v3+), so every config shares
  /// one file: the first time the runner sees a config it loads that
  /// config's records, once. Pass "" to disable caching entirely. The
  /// environment variable AVR_RESULT_CACHE overrides the default path.
  explicit ExperimentRunner(SimConfig base = {}, bool verbose = true,
                            std::string cache_path = default_cache_path());

  static std::string default_cache_path();
  /// Committed per-point cost seed (see data/seed_costs.csv): measured
  /// wall_seconds for the default-config grid, so even the very first
  /// cold-cache sweep schedules longest-first instead of falling back to the
  /// footprint x design heuristic. The environment variable AVR_SEED_COSTS
  /// overrides the path; a missing file just disables the seed.
  static std::string default_seed_cost_path();

  /// Run one point under vp.config. Golden outputs are computed once per
  /// (config, workload) and cached; results are cached too, so table
  /// printers can share runs. The golden runs before the timed System is
  /// built and is freed first, so a point holds one workload image at a
  /// time. Thread-safe: concurrent calls on distinct points proceed in
  /// parallel, each with its own System; the caches are mutex-guarded and
  /// returned references stay valid for the runner's lifetime. A failure
  /// is rethrown naming the point ("point W x D [config] failed: ..."),
  /// std::invalid_argument kept as such.
  const ExperimentResult& run(const sweep::VariantPoint& vp);
  const ExperimentResult& run(const std::string& wl, Design d) {
    return run({base_, {wl, d}});
  }

  /// True if the point is already in the in-memory cache (loaded from disk,
  /// or simulated earlier in this process).
  bool cached(const sweep::VariantPoint& vp);
  bool cached(const std::string& wl, Design d) { return cached({base_, {wl, d}}); }

  /// Run the full (workload x design) sweep under the base config through
  /// sweep::run_grid without claims: independent points run concurrently
  /// on `n_threads` workers (0 = hardware concurrency), longest first.
  /// Warms the same result cache `run()` uses, so subsequent table printing
  /// is pure lookup. Returns the results in workload-major, design-minor
  /// order — identical values to calling `run()` serially in that order.
  std::vector<ExperimentResult> run_all(const std::vector<std::string>& workloads,
                                        const std::vector<Design>& designs,
                                        unsigned n_threads = 0);

  /// Estimated cost of a point, in arbitrary but mutually comparable units:
  /// the committed seed-cost file's measurement, else a static heuristic
  /// scaling the workload's footprint by a per-design factor. A point the
  /// runner already holds a result for is a lookup, so its estimate only
  /// places it in the schedule and never orders a simulation.
  double cost_estimate(const sweep::VariantPoint& vp);
  double cost_estimate(const std::string& wl, Design d) {
    return cost_estimate({base_, {wl, d}});
  }

  /// All four comparison designs of Sec. 4 plus the baseline.
  static std::vector<Design> paper_designs() {
    return {Design::kBaseline, Design::kDoppelganger, Design::kTruncate,
            Design::kZeroAvr, Design::kAvr};
  }

  /// workload_config under the base config.
  SimConfig config_for(const Workload& wl) const;

  /// Number of results that could not be appended to the disk cache (disk
  /// full, permissions, ...). Simulation carries on from the in-memory
  /// cache — each failure warns on stderr — but a persistence-critical
  /// caller (avr_sweep: the cache IS its output) must check this and
  /// fail loudly.
  size_t disk_write_failures() const { return disk_write_failures_.load(); }

  /// Aggregate profile of everything this runner did: per-phase time of all
  /// simulated points plus the runner's own cache I/O, and the counters
  /// (points simulated, cache hits, appends). Snapshot — safe to call
  /// concurrently with run().
  prof::Totals profile_totals();

  /// One PointProfile per point this runner *simulated* (cache hits carry
  /// no profile), in completion order, each with its per-phase breakdown
  /// and the config_diff of its config.
  std::vector<prof::PointProfile> profile_points();

 private:
  /// Runs a callable once across threads: concurrent callers wait for the
  /// running one, and a callable that throws leaves the work undone, so the
  /// next caller (or a waiter) runs it again. std::call_once promises the
  /// same, but libstdc++'s leaves its flag wedged after a throw under TSan.
  class Once {
   public:
    template <class F>
    void run(F&& f) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return !running_; });
      if (done_) return;
      running_ = true;
      lk.unlock();
      try {
        f();
      } catch (...) {
        lk.lock();
        running_ = false;
        cv_.notify_all();
        throw;
      }
      lk.lock();
      running_ = false;
      done_ = true;
      cv_.notify_all();
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool running_ = false;
    bool done_ = false;
  };

  /// Everything the runner holds for one config. `base`, `fingerprint` and
  /// `name` are set when the entry is created and never change.
  struct Config {
    SimConfig base;
    uint64_t fingerprint = 0;
    std::string name;  // config_diff(base), stamped on profile points
    Once loaded;       // the config's disk records, read on first sight
    std::map<std::string, std::vector<double>> golden;
    std::map<std::string, Once> golden_once;
    std::map<sweep::Point, ExperimentResult> results;
    std::map<sweep::Point, Once> run_once;
  };

  /// The entry for `cfg`, created and loaded from disk on first sight.
  Config& config(const SimConfig& cfg);
  const std::vector<double>& golden(Config& c, const std::string& wl);
  void load_disk_cache(Config& c);
  void load_seed_costs();

  SimConfig base_;
  bool verbose_;
  std::string cache_path_;
  // Immutable after construction; read without mu_.
  std::map<sweep::Point, double> seed_costs_;
  std::atomic<size_t> disk_write_failures_{0};
  // mu_ guards configs_ and every map inside its entries. All maps are
  // node-based, so references handed out stay valid across concurrent
  // inserts; nothing is ever erased.
  std::mutex mu_;
  std::map<uint64_t, Config> configs_;  // by config_fingerprint
  // Profile accumulation (guarded by mu_): the merged totals and the
  // per-point slices, appended as each simulated point completes.
  prof::Totals prof_totals_;
  std::vector<prof::PointProfile> prof_points_;
};

}  // namespace avr
