// Experiment driver: runs (workload x design) points and computes
// application output error against a golden functional run. avr_report
// prints the paper's tables from its results.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/profile.hh"
#include "common/types.hh"
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
  /// cache and fed back as the cost estimate for longest-first scheduling;
  /// NOT part of the simulated result (shard caches produced on different
  /// machines differ here while agreeing on every metric).
  double wall_seconds = 0;
};

class ExperimentRunner {
 public:
  /// `cache_path`: optional CSV file persisting results across avr_report
  /// and sweep shards (they all share one default-config sweep).
  /// Appends are safe against concurrent writer *processes* — see
  /// harness/result_cache.hh for the format and locking contract. Records
  /// carry the base config's fingerprint (format v3+), so runners with
  /// different configurations — the avr_report ablation variants — share one
  /// file safely: each loads only its own records. Pass "" to disable
  /// caching entirely. The environment variable AVR_RESULT_CACHE overrides
  /// the default path.
  explicit ExperimentRunner(SimConfig base = {}, bool verbose = true,
                            std::string cache_path = default_cache_path());

  static std::string default_cache_path();
  /// Committed per-point cost seed (see data/seed_costs.csv): measured
  /// wall_seconds for the default-config grid, so even the very first
  /// cold-cache sweep schedules longest-first instead of falling back to the
  /// footprint x design heuristic. The environment variable AVR_SEED_COSTS
  /// overrides the path; a missing file just disables the seed.
  static std::string default_seed_cost_path();

  /// Run one (workload, design) point. Golden outputs are computed once per
  /// workload and cached; results are cached too, so table printers can
  /// share runs. Thread-safe: concurrent calls on distinct points proceed in
  /// parallel, each with its own System; the caches are mutex-guarded and
  /// returned references stay valid for the runner's lifetime.
  const ExperimentResult& run(const std::string& wl, Design d);

  /// True if the point is already in the in-memory cache (hit at
  /// construction from disk, or simulated earlier in this process).
  bool cached(const std::string& wl, Design d);

  /// Run the full (workload x design) sweep through sweep::run_grid without
  /// claims: independent points run concurrently on `n_threads` workers (0 =
  /// hardware concurrency), longest first. Warms the same result cache
  /// `run()` uses, so subsequent table printing is pure lookup. Returns the
  /// results in workload-major, design-minor order — identical values to
  /// calling `run()` serially in that order.
  std::vector<ExperimentResult> run_all(const std::vector<std::string>& workloads,
                                        const std::vector<Design>& designs,
                                        unsigned n_threads = 0);

  /// Estimated cost of a point, in arbitrary but mutually comparable units.
  /// A persisted wall_seconds measurement (loaded from the disk cache or
  /// observed this process) wins, then the committed seed-cost file, then a
  /// static heuristic scaling the workload's footprint by a per-design
  /// factor.
  double cost_estimate(const std::string& wl, Design d);

  /// All four comparison designs of Sec. 4 plus the baseline.
  static std::vector<Design> paper_designs() {
    return {Design::kBaseline, Design::kDoppelganger, Design::kTruncate,
            Design::kZeroAvr, Design::kAvr};
  }

  const SimConfig& base_config() const { return base_; }
  /// Fingerprint identifying base_config() in persisted cache records: the
  /// runner loads only records carrying it and stamps it on new results.
  uint64_t config_hash() const { return cfg_hash_; }
  /// Per-workload config (cache hierarchy scaled per Workload::cache_scale).
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
  /// no profile), in completion order, each with its per-phase breakdown.
  std::vector<prof::PointProfile> profile_points();

 private:
  const std::vector<double>& golden(const std::string& wl);
  void load_disk_cache();
  void load_seed_costs();

  SimConfig base_;
  uint64_t cfg_hash_;
  std::string cfg_diff_;  // config_diff(base_), stamped on profile points
  bool verbose_;
  std::string cache_path_;
  // Immutable after construction; read without mu_.
  std::map<std::pair<std::string, Design>, double> seed_costs_;
  std::atomic<size_t> disk_write_failures_{0};
  // mu_ guards golden_, golden_once_ and cache_. Both maps are node-based,
  // so references handed out stay valid across concurrent inserts; nothing
  // is ever erased.
  std::mutex mu_;
  std::map<std::string, std::vector<double>> golden_;
  std::map<std::string, std::once_flag> golden_once_;
  std::map<std::pair<std::string, Design>, ExperimentResult> cache_;
  std::map<std::pair<std::string, Design>, std::once_flag> run_once_;
  // Profile accumulation (guarded by mu_): the merged totals and the
  // per-point slices, appended as each simulated point completes.
  prof::Totals prof_totals_;
  std::vector<prof::PointProfile> prof_points_;
};

}  // namespace avr
