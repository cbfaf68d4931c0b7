// Grid enumeration and the sweep scheduler.
//
// The canonical grid order is workload-major, design-minor — the same order
// run_all() returns. One scheduler, run_grid below, runs every sweep:
// run_all, avr_report, a local avr_sweep and avr_sweep --claim. Without
// a claim path every point is this process's own. To split a sweep across
// processes, every process runs with --claim: each sees the full grid and
// claims points one at a time by appending claim records through the
// flock'd cache file (protocol in harness/result_cache.hh and
// docs/OPERATIONS.md). Stragglers rebalance automatically, a killed
// process's claims expire and get reclaimed, and no coordination is needed
// up front.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/config_table.hh"
#include "common/profile.hh"
#include "common/types.hh"

namespace avr {

class ExperimentRunner;

namespace sweep {

using Point = std::pair<std::string, Design>;

/// One point of a (config x workload x design) grid. Records of different
/// configs carry different config fingerprints, so one cache file holds
/// the whole variant grid.
struct VariantPoint {
  SimConfig config;
  Point point;
};

/// One --set axis: a config knob and the values it sweeps, in order.
struct SetAxis {
  const Knob* knob = nullptr;
  std::vector<uint64_t> values;  // knob words (see knob_word)
};

/// Full cross product in canonical (workload-major) order.
std::vector<Point> full_grid(const std::vector<std::string>& workloads,
                             const std::vector<Design>& designs);

/// The (axis x ... x workload x design) grid: every combination of the
/// axes' values applied to the default config, first axis outermost, then
/// the canonical workload-major order within each config. With no axes it
/// is full_grid under the default config. Throws std::invalid_argument
/// ("bad --set value: <config> (<reason>)") if workload_config refuses any
/// (config, workload) pair, so a bad grid fails before any point runs.
std::vector<VariantPoint> config_grid(const std::vector<SetAxis>& axes,
                                      const std::vector<std::string>& workloads,
                                      const std::vector<Design>& designs);

/// Parses one --set argument, "name=v[,v...]" — a knob of the config table
/// (common/config_table.hh) and the values it sweeps, each parsed strictly
/// and range-checked — and appends it to `axes`. Throws
/// std::invalid_argument("bad --set value: <arg> (<reason>)") for an unknown
/// or unsettable knob, a knob already in `axes`, a bad value or a repeated
/// one.
void add_set_axis(std::vector<SetAxis>& axes, const std::string& arg);

/// Parses one design name as printed by to_string(Design) —
/// "baseline", "dganger", "truncate", "ZeroAVR", "AVR" — case-insensitively.
/// Throws std::invalid_argument for unknown names.
Design design_from_name(const std::string& name);

/// Comma-separated design names; "" yields ExperimentRunner::paper_designs().
/// Throws std::invalid_argument for unknown names and for a design named
/// twice ("AVR,avr").
std::vector<Design> parse_design_list(const std::string& csv);

/// Comma-separated workload names — built-in kernels and/or trace specs
/// ("trace:<path>", whose file is loaded and validated here, eagerly); ""
/// yields workload_names(). Throws std::invalid_argument for unknown names,
/// for missing/corrupt trace files and for a name given twice.
std::vector<std::string> parse_workload_list(const std::string& csv);

// ---- the scheduler ---------------------------------------------------------

/// Knobs for run_grid.
struct StealOptions {
  /// Claim-owner token (comma-free; "" uses prof::default_owner()).
  std::string owner;
  /// Fixed lease in seconds for every claim; 0 picks an adaptive lease of
  /// max(30, 20 x cost_estimate) seconds per point — generous enough that a
  /// live worker never loses a point it is still simulating, short enough
  /// that a killed worker's points come back within a minute.
  uint64_t lease_seconds = 0;
  /// Wait between rescans when every remaining point is claimed by a live
  /// foreign owner or simulating on another thread here (waiting for their
  /// results — or the foreign leases — to land). The wait ends early once
  /// every point is done or one has failed.
  double poll_seconds = 0.5;
};

/// What one process's run_grid did, for logs and --profile.
struct StealOutcome {
  size_t simulated = 0;       // points this process claimed and ran (without
                              // claims: every point, a warm one as a lookup)
  size_t reclaimed = 0;       // of those, won by superseding an expired claim
  size_t done_elsewhere = 0;  // points another owner completed
  size_t claim_errors = 0;    // points whose claim I/O failed even after the
                              // bounded retries (each ran uncoordinated)
  bool degraded = false;      // true once any point ran without a claim:
                              // waste (duplicate work) became possible, but
                              // results stay correct — points are
                              // deterministic and loads duplicate-tolerant
  prof::Totals sched;         // scheduler-side cache I/O + claim counters
};

/// Runs `grid` to completion on `n_threads` workers (0 = hardware
/// concurrency, capped at the grid size). Each worker repeatedly scans the
/// remaining points in descending cost_estimate order (longest first:
/// points vary ~30x in cost) and runs the points it wins on `runner`, each
/// under its own config. Throws the first simulation error.
///
/// An empty `cache_path` means no claims: every point a worker reserves is
/// its own and no claim I/O happens. Otherwise the runner must write to
/// `cache_path`, and a worker stakes a claim through its flock
/// (result_cache.hh) before running a point, cooperating with any number of
/// concurrent processes sharing the file. It returns once *every* point has
/// a result, whether produced here or by another process; a process that
/// finishes early keeps polling (poll_seconds) and reclaims expired claims,
/// so a SIGKILLed peer's points are picked up automatically. Cache I/O
/// failure does NOT abort the sweep: a claim that still fails after bounded
/// backoff retries degrades that point to uncoordinated simulation with a
/// loud warning (waste over wrongness — see StealOutcome::degraded).
StealOutcome run_grid(const std::vector<VariantPoint>& grid, ExperimentRunner& runner,
                      const std::string& cache_path, const StealOptions& opts,
                      unsigned n_threads = 0);

}  // namespace sweep
}  // namespace avr
