// Always-on harness self-profiling: scoped wall-clock timers plus event
// counters, cheap enough to leave compiled into every build.
//
// Design:
//   - A Totals record holds per-phase {nanoseconds, call count} pairs and a
//     fixed set of event counters — plain uint64 fields, no strings, no
//     allocation.
//   - Instrumented code writes through a *thread-local sink pointer*
//     (set_thread_sink / ScopedSink). When no sink is installed, a scoped
//     timer is one TLS load and a branch (~1 ns); when one is installed it
//     adds two steady_clock reads (~40 ns per scope, amortized per *phase*,
//     never per access). Each experiment point runs on exactly one thread,
//     so the sink needs no atomics: the harness installs a per-point Totals
//     for the duration of the point and merges it into shard aggregates
//     under its own lock afterwards.
//   - Phases may nest (kCompress runs inside kTiming); the report treats
//     nested phases as sub-spans, not disjoint buckets.
//   - Compiling with -DAVR_PROFILE=0 turns every timer, counter and sink
//     operation into a no-op with zero code generated (the report plumbing
//     stays, reporting all-zero totals).
//
// The report side (profile.cc) renders a Totals set either as a
// machine-readable sidecar JSON (schema "avr-profile-v1", documented in
// docs/OPERATIONS.md) or as a human summary table (`avr_sweep --profile`).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#ifndef AVR_PROFILE
#define AVR_PROFILE 1
#endif

namespace avr {
namespace prof {

/// The harness phases a sweep spends its wall-clock in. kCompress is a
/// sub-span of kTiming (the compressor runs inside the timing simulation);
/// everything else is disjoint.
enum class Phase : uint32_t {
  kSetup = 0,    // make_workload + System construction
  kFunctional,   // golden (timing-free) run of a workload
  kTiming,       // the timing simulation: run + output + finish
  kCompress,     // Compressor::compress/reconstruct (inside kTiming)
  kCacheIo,      // result-cache file I/O: loads, appends, claim records
  kBdi,          // lossless-fallback BDI encode (inside kCompress)
};
inline constexpr size_t kNumPhases = 6;

/// Event counters the harness bumps alongside the timers.
enum class Counter : uint32_t {
  kPointsSimulated = 0,  // points actually simulated (not cache hits)
  kCacheHits,            // run() satisfied from the in-memory/disk cache
  kCacheAppends,         // result records appended to the disk cache
  kClaimsWon,            // work-stealing: fresh claims this process won
  kClaimsReclaimed,      // claims won by superseding an expired claim
  kClaimsLost,           // claim attempts that found a live foreign claim
};
inline constexpr size_t kNumCounters = 6;

/// Stable lower-case identifier for a phase (JSON keys / table rows).
const char* phase_name(Phase p);
/// Stable lower-case identifier for a counter.
const char* counter_name(Counter c);

/// One accumulation bucket: per-phase time and calls plus the counters.
/// Plain addition semantics throughout — merge() makes any tree of Totals
/// (per point -> per runner -> per shard) sum exactly.
struct Totals {
  std::array<uint64_t, kNumPhases> ns{};
  std::array<uint64_t, kNumPhases> calls{};
  std::array<uint64_t, kNumCounters> counts{};

  void add(Phase p, uint64_t dns) {
    ns[static_cast<size_t>(p)] += dns;
    calls[static_cast<size_t>(p)] += 1;
  }
  void bump(Counter c, uint64_t n = 1) { counts[static_cast<size_t>(c)] += n; }
  void merge(const Totals& o) {
    for (size_t i = 0; i < kNumPhases; ++i) {
      ns[i] += o.ns[i];
      calls[i] += o.calls[i];
    }
    for (size_t i = 0; i < kNumCounters; ++i) counts[i] += o.counts[i];
  }
  uint64_t phase_ns(Phase p) const { return ns[static_cast<size_t>(p)]; }
  uint64_t phase_calls(Phase p) const { return calls[static_cast<size_t>(p)]; }
  uint64_t count(Counter c) const { return counts[static_cast<size_t>(c)]; }
  bool empty() const {
    for (uint64_t v : calls)
      if (v) return false;
    for (uint64_t v : counts)
      if (v) return false;
    return true;
  }
};

#if AVR_PROFILE

namespace detail {
inline Totals*& sink_slot() {
  thread_local Totals* sink = nullptr;
  return sink;
}
inline uint64_t now_ns() {
  // steady_clock via clock_gettime: one vDSO call, no syscall on Linux.
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace detail

/// The calling thread's current sink (nullptr = profiling inactive here).
inline Totals* thread_sink() { return detail::sink_slot(); }
/// Installs `t` as the calling thread's sink; returns the previous one.
inline Totals* set_thread_sink(Totals* t) {
  Totals* prev = detail::sink_slot();
  detail::sink_slot() = t;
  return prev;
}

/// RAII sink installation: all timers/counters on this thread accumulate
/// into `t` until scope exit, then the previous sink is restored.
class ScopedSink {
 public:
  explicit ScopedSink(Totals* t) : prev_(set_thread_sink(t)) {}
  ~ScopedSink() { set_thread_sink(prev_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Totals* prev_;
};

/// Accumulates the scope's wall time into the thread sink's phase bucket.
/// With no sink installed, construction and destruction are one TLS load
/// and a branch each.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase p) : sink_(detail::sink_slot()), phase_(p) {
    if (sink_) t0_ = detail::now_ns();
  }
  ~ScopedTimer() {
    if (sink_) sink_->add(phase_, detail::now_ns() - t0_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Totals* sink_;
  Phase phase_;
  uint64_t t0_ = 0;
};

/// Bumps a counter on the thread sink (no-op without a sink).
inline void count(Counter c, uint64_t n = 1) {
  if (Totals* s = detail::sink_slot()) s->bump(c, n);
}

#else  // !AVR_PROFILE — every operation compiles away.

inline Totals* thread_sink() { return nullptr; }
inline Totals* set_thread_sink(Totals*) { return nullptr; }

class ScopedSink {
 public:
  explicit ScopedSink(Totals*) {}
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Phase) {}
};

inline void count(Counter, uint64_t = 1) {}

#endif  // AVR_PROFILE

#define AVR_PROF_CAT2(a, b) a##b
#define AVR_PROF_CAT(a, b) AVR_PROF_CAT2(a, b)
/// Times the rest of the enclosing scope into `phase` (see ScopedTimer).
#define AVR_PROF_SCOPE(phase) \
  ::avr::prof::ScopedTimer AVR_PROF_CAT(avr_prof_scope_, __LINE__)(phase)

// ---- reporting -------------------------------------------------------------

/// Sidecar JSON schema identifier (see docs/OPERATIONS.md for the schema).
inline constexpr const char* kProfileSchema = "avr-profile-v1";

/// Per-point slice of a report: which grid point, its measured wall time,
/// and the phase totals its simulation accumulated.
struct PointProfile {
  std::string workload;
  std::string design;
  int t1 = -1;  // --t1 variant; -1 = default per-workload thresholds
  double wall_seconds = 0;
  Totals totals;
};

/// Everything one process reports: identity, overall wall time, per-point
/// breakdowns, and the aggregate (sum of points + harness/scheduler time).
struct Report {
  std::string owner;  // claim-owner token or "<host>-<pid>"
  std::string mode;   // "claim", "local", "runner", ...
  std::string simd;   // active kernel dispatch level: "scalar"|"avx2"
  double wall_seconds = 0;
  // Worker threads the points ran on. Phase time is summed over them, so
  // wall_seconds x jobs is the thread time a phase's share is taken of.
  unsigned jobs = 1;
  Totals aggregate;
  std::vector<PointProfile> points;
};

/// Serializes the report as schema "avr-profile-v1" JSON (tmp + rename, so
/// a crashed writer never leaves a torn sidecar). Returns false on I/O
/// failure — the sidecar is diagnostics, callers may warn and carry on.
bool write_profile_json(const std::string& path, const Report& report);

/// Human summary: one row per phase (total seconds, share of wall x jobs,
/// calls), the counters, and the most expensive points — the `--profile`
/// table.
void print_summary(std::FILE* out, const Report& report);

/// "<host>-<pid>" with non-identifier characters mapped to '-': unique per
/// live process, comma-free (claim records embed it as a CSV field).
std::string default_owner();

}  // namespace prof
}  // namespace avr
