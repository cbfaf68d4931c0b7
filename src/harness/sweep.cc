#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/backoff.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace sweep {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::vector<Point> full_grid(const std::vector<std::string>& workloads,
                             const std::vector<Design>& designs) {
  std::vector<Point> grid;
  grid.reserve(workloads.size() * designs.size());
  for (const auto& w : workloads)
    for (Design d : designs) grid.emplace_back(w, d);
  return grid;
}

std::vector<VariantPoint> config_grid(const std::vector<SetAxis>& axes,
                                      const std::vector<std::string>& workloads,
                                      const std::vector<Design>& designs) {
  std::vector<SimConfig> configs{SimConfig{}};
  for (const SetAxis& axis : axes) {
    std::vector<SimConfig> next;
    next.reserve(configs.size() * axis.values.size());
    for (const SimConfig& c : configs)
      for (uint64_t v : axis.values) {
        next.push_back(c);
        set_knob_word(next.back(), *axis.knob, v);
      }
    configs = std::move(next);
  }
  // Each (config, workload) pair is judged once, here, before any point runs.
  for (const std::string& w : workloads) {
    const auto wl = make_workload(w);  // a trace hits the memo parse_workload_list filled
    for (const SimConfig& c : configs) {
      try {
        (void)workload_config(c, *wl);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("bad --set value: " + config_diff(c) + " (" +
                                    e.what() + ")");
      }
    }
  }
  const auto points = full_grid(workloads, designs);
  std::vector<VariantPoint> grid;
  grid.reserve(configs.size() * points.size());
  for (const SimConfig& c : configs)
    for (const Point& p : points) grid.push_back({c, p});
  return grid;
}

void add_set_axis(std::vector<SetAxis>& axes, const std::string& arg) {
  auto bad = [&arg](const std::string& why) {
    return std::invalid_argument("bad --set value: " + arg + " (" + why + ")");
  };
  const size_t eq = arg.find('=');
  if (eq == std::string::npos) throw bad("want name=v[,v...]");
  const std::string name = arg.substr(0, eq);
  SetAxis axis;
  axis.knob = find_knob(name);
  if (!axis.knob) throw bad("no config knob named '" + name + "'");
  if (axis.knob->unsettable) throw bad(name + ": " + axis.knob->unsettable);
  for (const SetAxis& a : axes)
    if (a.knob == axis.knob) throw bad(name + " is already a --set axis");
  // Unlike the name lists, every comma-separated field must be a value.
  for (size_t start = eq + 1;;) {
    const size_t comma = arg.find(',', start);
    const std::string value = arg.substr(start, comma - start);
    uint64_t word = 0;
    try {
      word = parse_knob_value(*axis.knob, value);
    } catch (const std::invalid_argument& e) {
      throw bad(e.what());
    }
    if (std::find(axis.values.begin(), axis.values.end(), word) != axis.values.end())
      throw bad(value + " is repeated");
    axis.values.push_back(word);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  axes.push_back(std::move(axis));
}

Design design_from_name(const std::string& name) {
  const std::string n = lower(name);
  for (Design d : {Design::kBaseline, Design::kDoppelganger, Design::kTruncate,
                   Design::kZeroAvr, Design::kAvr})
    if (n == lower(to_string(d))) return d;
  throw std::invalid_argument("unknown design: " + name);
}

std::vector<Design> parse_design_list(const std::string& csv) {
  if (csv.empty()) return ExperimentRunner::paper_designs();
  std::vector<Design> out;
  for (const auto& name : split_csv(csv)) {
    const Design d = design_from_name(name);
    if (std::find(out.begin(), out.end(), d) != out.end())
      throw std::invalid_argument("repeated design: " + name);
    out.push_back(d);
  }
  if (out.empty()) throw std::invalid_argument("empty design list");
  return out;
}

std::vector<std::string> parse_workload_list(const std::string& csv) {
  if (csv.empty()) return workload_names();
  const auto known = workload_names();
  std::vector<std::string> out;
  for (const auto& name : split_csv(csv)) {
    if (std::find(out.begin(), out.end(), name) != out.end())
      throw std::invalid_argument("repeated workload: " + name);
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      // Not a built-in kernel: either a trace spec or a typo. Constructing
      // it is the validation — make_workload loads and checks a trace file
      // eagerly and throws a diagnosable std::invalid_argument for both
      // cases, so a bad point fails at --list/startup, never mid-sweep.
      (void)make_workload(name);
    }
    out.push_back(name);
  }
  if (out.empty()) throw std::invalid_argument("empty workload list");
  return out;
}

StealOutcome run_grid(const std::vector<VariantPoint>& grid, ExperimentRunner& runner,
                      const std::string& cache_path, const StealOptions& opts,
                      unsigned n_threads) {
  const std::string owner =
      opts.owner.empty() ? prof::default_owner() : opts.owner;

  // Resolve each point's config fingerprint, cost and lease once up front;
  // workers then scan in descending-cost order, the longest-first schedule —
  // with claims across processes too: whichever process gets there first
  // claims the expensive tail. This prelude runs before any worker starts,
  // so it is timed as setup in the scheduler's totals.
  StealOutcome outcome;
  const size_t n = grid.size();
  std::vector<uint64_t> fingerprint(n);
  std::vector<double> cost(n);
  std::vector<uint64_t> lease(n);
  {
    prof::ScopedSink sink(&outcome.sched);
    AVR_PROF_SCOPE(prof::Phase::kSetup);
    for (size_t i = 0; i < n; ++i) {
      fingerprint[i] = config_fingerprint(grid[i].config);
      cost[i] = runner.cost_estimate(grid[i]);
      lease[i] = opts.lease_seconds
                     ? opts.lease_seconds
                     : static_cast<uint64_t>(std::max(30.0, 20.0 * cost[i]));
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost[a] > cost[b]; });

  // Per-point state: 0 = open, 1 = reserved by a thread of this process,
  // 2 = done (result exists, ours or anyone's). The CAS 0->1 keeps two
  // threads of one process off the same point; the claim record keeps two
  // *processes* off it.
  std::vector<std::atomic<int>> state(n);
  std::atomic<size_t> open_count{n};
  std::atomic<bool> failed{false};
  // A worker with nothing to claim waits on idle_cv for the poll interval,
  // or until the sweep ends: the last point done or one failed. Both are
  // changed under idle_mu so the end cannot slip past a worker about to wait.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  auto finish_point = [&](size_t k) {
    state[k].store(2);
    std::lock_guard<std::mutex> lk(idle_mu);
    if (open_count.fetch_sub(1) == 1) idle_cv.notify_all();
  };

  CacheScan cursor;  // shared by the workers: the cache is read once
  std::mutex stats_mu;
  std::atomic<bool> warned_degraded{false};
  std::exception_ptr first_error;

  auto now = [] { return static_cast<uint64_t>(::time(nullptr)); };

  auto worker = [&] {
    // Scheduler-side profile: claim I/O and win/loss counters land here;
    // each simulated point installs its own sink inside run(), so point
    // time is never double-counted as scheduler time.
    prof::Totals sched;
    prof::ScopedSink sink(&sched);
    while (!failed.load(std::memory_order_relaxed) &&
           open_count.load(std::memory_order_relaxed) > 0) {
      bool progressed = false;
      for (size_t k : order) {
        if (failed.load(std::memory_order_relaxed)) break;
        int expect = 0;
        if (!state[k].compare_exchange_strong(expect, 1)) continue;
        const auto& [wl, d] = grid[k].point;
        ClaimRecord want;
        want.workload = wl;
        want.design = d;
        want.config_hash = fingerprint[k];
        want.owner = owner;
        want.lease_seconds = lease[k];
        // Without a claim path, every point this process reserves is its own.
        // Otherwise one claim attempt per retry round; try_claim_point
        // already rides out transient lock contention internally, so kError
        // here means the cache kept failing — back off and re-try a bounded
        // number of times before giving up on coordination for this point.
        ClaimOutcome got = cache_path.empty()
                               ? ClaimOutcome::kClaimed
                               : try_claim_point(cache_path, want, now(), &cursor);
        for (int attempt = 1;
             got == ClaimOutcome::kError && attempt < kIoRetryAttempts;
             ++attempt) {
          backoff_sleep(attempt - 1,
                        static_cast<uint64_t>(k) ^
                            (static_cast<uint64_t>(attempt) << 24));
          got = try_claim_point(cache_path, want, now(), &cursor);
        }
        if (got == ClaimOutcome::kError) {
          // Degrade, don't abort: simulate without a claim. Another process
          // may duplicate the point (waste), but never corrupt it — points
          // are deterministic and result loads duplicate-tolerant. The
          // sweep's output stays complete and correct; the persistent I/O
          // failure is reported through StealOutcome and the tool's exit
          // code, not by throwing away the run.
          if (!warned_degraded.exchange(true))
            std::fprintf(stderr,
                         "[steal] WARNING: cache %s unusable for claims "
                         "after %d attempts; degrading to uncoordinated "
                         "simulation (duplicate work possible, results stay "
                         "correct)\n",
                         cache_path.c_str(), kIoRetryAttempts);
          {
            std::lock_guard<std::mutex> lk(stats_mu);
            outcome.claim_errors++;
            outcome.degraded = true;
          }
          got = ClaimOutcome::kClaimed;
        }
        if (got == ClaimOutcome::kClaimed || got == ClaimOutcome::kReclaimed) {
          if (got == ClaimOutcome::kReclaimed)
            std::fprintf(stderr, "[steal] %s reclaims %s x %s (lease expired)\n",
                         owner.c_str(), wl.c_str(), to_string(d));
          try {
            (void)runner.run(grid[k]);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lk(idle_mu);
              failed.store(true, std::memory_order_relaxed);
              idle_cv.notify_all();
            }
            std::lock_guard<std::mutex> lk(stats_mu);
            if (!first_error) first_error = std::current_exception();
            break;
          }
          finish_point(k);
          progressed = true;
          std::lock_guard<std::mutex> lk(stats_mu);
          outcome.simulated++;
          if (got == ClaimOutcome::kReclaimed) outcome.reclaimed++;
        } else if (got == ClaimOutcome::kDone) {
          finish_point(k);
          progressed = true;
          std::lock_guard<std::mutex> lk(stats_mu);
          outcome.done_elsewhere++;
        } else {  // kBusy (kError was degraded to kClaimed above)
          state[k].store(0);  // a live foreign claim — poll again later
        }
      }
      // Every remaining point is claimed by a live foreign owner or being
      // simulated by another thread here: wait for their results (or the
      // foreign leases) instead of hammering the flock.
      if (!progressed) {
        std::unique_lock<std::mutex> lk(idle_mu);
        idle_cv.wait_for(lk, std::chrono::duration<double>(opts.poll_seconds),
                         [&] { return open_count.load() == 0 || failed.load(); });
      }
    }
    std::lock_guard<std::mutex> lk(stats_mu);
    outcome.sched.merge(sched);
  };

  if (n_threads == 0) n_threads = std::thread::hardware_concurrency();
  n_threads = std::max<unsigned>(1, std::min<size_t>(n_threads, std::max<size_t>(n, 1)));
  std::vector<std::thread> pool;
  pool.reserve(n_threads - 1);
  for (unsigned t = 1; t < n_threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return outcome;
}

}  // namespace sweep
}  // namespace avr
