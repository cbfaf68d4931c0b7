// Deterministic, site-tagged fault injection for the harness I/O paths.
//
// Every fragile operation in the sweep stack — cache appends, cache loads,
// lock acquisition, claim staking, profile-sidecar writes — carries a named
// *site*. A site is a single call to fault::fire(Site) on the operation's
// path; when the layer is unarmed (the overwhelmingly common case) fire()
// is one relaxed atomic load and a predictably-not-taken branch, so sites
// are always compiled in (the apex model: instrumentation that is cheap
// enough to never ifdef out of production).
//
// Arming happens through the environment:
//
//   AVR_FAULTS=<seed>:<site>=<kind>@<when>[,<site>=<kind>@<when>]...
//
//     <seed>  decimal uint64; the PRNG seed that makes probabilistic rules
//             replayable. Always logged by chaos drivers.
//     <site>  dotted site name (see site_name / kSiteNames below), e.g.
//             cache.append, cache.load, lock.acquire, claim.stake,
//             point.complete, sidecar.write, sidecar.rename.
//     <kind>  short_write | eintr | eio | enospc | timeout | kill
//     <when>  n<k>   — fire on exactly the k-th hit of the site (1-based),
//             or a decimal probability in (0,1] — fire per hit with that
//             probability, decided by hash(seed, site, hit#) so the outcome
//             is independent of thread/process interleaving.
//
//   Example: AVR_FAULTS=42:cache.append=eintr@0.4,claim.stake=kill@n2
//
// fire() only *decides*; the call site implements the semantics (a short
// write really writes half the record, an injected EINTR re-enters the
// retry loop, kill_now() raises SIGKILL). Injected EINTR storms are capped
// at kMaxEintrStorm consecutive hits per site so armed retry loops always
// terminate. A malformed AVR_FAULTS value disarms the layer with a loud
// stderr warning — a chaos run that silently ran fault-free would defeat
// its own assertions downstream.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace avr::fault {

/// Named injection points. Keep in sync with kSiteNames in fault_inject.cc.
enum class Site : uint32_t {
  kCacheAppend = 0,  // "cache.append"  — result-record write; kill = torn line
  kCacheLoad,        // "cache.load"    — warm-up read; kill = die before read
  kLockAcquire,      // "lock.acquire"  — open/flock of the cache lock
  kClaimStake,       // "claim.stake"   — claim-record write; kill = die
                     //                   immediately *after* the stake lands
  kPointComplete,    // "point.complete"— after simulate, before the result
                     //                   append; kill = lose the work
  kSidecarWrite,     // "sidecar.write" — profile JSON tmp-file write
  kSidecarRename,    // "sidecar.rename"— tmp -> final rename
};
inline constexpr size_t kNumSites = 7;

/// What to inject. kNone means "proceed normally".
enum class Kind : uint8_t {
  kNone = 0,
  kShortWrite,  // write only part of the buffer, then fail with EIO
  kEintr,       // one EINTR round through the caller's retry loop
  kEio,         // hard I/O error
  kEnospc,      // no space left on device
  kTimeout,     // lock acquisition gives up as if it timed out
  kKill,        // SIGKILL at the site (callers place it for maximum damage)
};

/// Consecutive injected-EINTR cap per site: storms exercise retry loops
/// without being able to wedge them forever even at probability 1.
inline constexpr uint64_t kMaxEintrStorm = 16;

const char* site_name(Site s);
const char* kind_name(Kind k);

/// One site's rule: fire `kind` on exactly hit `nth` (1-based) when nth != 0,
/// else per-hit with probability `prob`.
struct SiteRule {
  Kind kind = Kind::kNone;
  uint64_t nth = 0;
  double prob = 0.0;
};

struct Schedule {
  uint64_t seed = 0;
  std::array<SiteRule, kNumSites> rules{};

  bool any() const {
    for (const SiteRule& r : rules)
      if (r.kind != Kind::kNone) return true;
    return false;
  }
};

/// Parses the AVR_FAULTS grammar above. On failure returns false and sets
/// *error to a one-line reason; *out is unspecified.
bool parse_schedule(const std::string& spec, Schedule* out, std::string* error);

namespace detail {
extern std::atomic<bool> g_armed;
Kind fire_slow(Site s);
}  // namespace detail

/// The per-site decision point. Unarmed: one relaxed load, branch not
/// taken, returns kNone. Armed: counts the hit, consults the schedule, logs
/// any injected fault to stderr, and returns what to inject — the caller
/// implements the fault's semantics.
inline Kind fire(Site s) {
  if (!detail::g_armed.load(std::memory_order_relaxed)) [[likely]]
    return Kind::kNone;
  return detail::fire_slow(s);
}

/// Arm with an explicit schedule (tests) / disarm. Resets all counters.
void arm(const Schedule& s);
void disarm();

/// Re-reads AVR_FAULTS and arms/disarms accordingly; returns whether the
/// layer ended up armed. Called once automatically at process start.
bool reinit_from_env();

/// Introspection for tests and chaos drivers: how often a site was reached /
/// actually faulted since the last arm()/disarm().
uint64_t hits(Site s);
uint64_t fired(Site s);

/// Logs the site and raises SIGKILL — the crash-here primitive. Callers
/// invoke it when fire() returns kKill, at the exact instruction where death
/// hurts the most (mid-write for a torn line, post-append for a dangling
/// claim).
[[noreturn]] void kill_now(Site s);

}  // namespace avr::fault
