#include "common/fault_inject.hh"

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace avr::fault {
namespace {

// Index-aligned with Site. The dotted names are the user-facing grammar;
// they also appear verbatim in the "[fault]" log lines so a chaos failure
// can be replayed by copying the schedule out of the log.
constexpr const char* kSiteNames[kNumSites] = {
    "cache.append", "cache.load",    "lock.acquire",   "claim.stake",
    "point.complete", "sidecar.write", "sidecar.rename",
};

constexpr const char* kKindNames[] = {
    "none", "short_write", "eintr", "eio", "enospc", "timeout", "kill",
};

// splitmix64 finalizer: the per-(seed, site, hit) decision hash. Stateless,
// so the verdict for hit #k of a site is the same no matter which thread or
// interleaving got there — chaos runs replay exactly from the seed.
uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double decision_unit(uint64_t seed, Site site, uint64_t hit) {
  uint64_t x = mix64(seed + 0x632BE59BD9B4E019ull *
                                (static_cast<uint64_t>(site) + 1));
  x = mix64(x ^ hit);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

bool parse_u64(const std::string& tok, uint64_t* out) {
  if (tok.empty()) return false;
  uint64_t v = 0;
  for (char ch : tok) {
    if (ch < '0' || ch > '9') return false;
    if (v > (UINT64_MAX - (ch - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  *out = v;
  return true;
}

bool parse_site(const std::string& tok, Site* out) {
  for (size_t i = 0; i < kNumSites; ++i) {
    if (tok == kSiteNames[i]) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

bool parse_kind(const std::string& tok, Kind* out) {
  for (size_t i = 1; i < sizeof(kKindNames) / sizeof(kKindNames[0]); ++i) {
    if (tok == kKindNames[i]) {
      *out = static_cast<Kind>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

const char* site_name(Site s) { return kSiteNames[static_cast<size_t>(s)]; }
const char* kind_name(Kind k) { return kKindNames[static_cast<size_t>(k)]; }

bool parse_schedule(const std::string& spec, Schedule* out,
                    std::string* error) {
  Schedule sched;
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    *error = "missing ':' after seed (grammar: <seed>:<site>=<kind>@<when>)";
    return false;
  }
  if (!parse_u64(spec.substr(0, colon), &sched.seed)) {
    *error = "seed is not a decimal uint64: '" + spec.substr(0, colon) + "'";
    return false;
  }
  std::string rest = spec.substr(colon + 1);
  if (rest.empty()) {
    *error = "no rules after ':' (a fault-free schedule is spelled by unsetting "
             "AVR_FAULTS, not by an empty rule list)";
    return false;
  }
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string rule =
        comma == std::string::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    // Strict: an empty rule means a stray comma — plausibly a truncated
    // schedule, which must not silently run with fewer faults than asked.
    if (rule.empty() || (comma != std::string::npos && rest.empty())) {
      *error = "empty rule (stray comma) in '" + spec + "'";
      return false;
    }

    const size_t eq = rule.find('=');
    const size_t at = rule.find('@');
    if (eq == std::string::npos || at == std::string::npos || at < eq) {
      *error = "rule '" + rule + "' is not <site>=<kind>@<when>";
      return false;
    }
    Site site;
    if (!parse_site(rule.substr(0, eq), &site)) {
      *error = "unknown site '" + rule.substr(0, eq) + "'";
      return false;
    }
    SiteRule r;
    if (!parse_kind(rule.substr(eq + 1, at - eq - 1), &r.kind)) {
      *error = "unknown kind '" + rule.substr(eq + 1, at - eq - 1) + "'";
      return false;
    }
    const std::string when = rule.substr(at + 1);
    if (!when.empty() && when[0] == 'n') {
      if (!parse_u64(when.substr(1), &r.nth) || r.nth == 0) {
        *error = "bad hit index '" + when + "' (want n<k>, k >= 1)";
        return false;
      }
    } else {
      char* end = nullptr;
      errno = 0;
      r.prob = std::strtod(when.c_str(), &end);
      if (when.empty() || errno != 0 || end != when.c_str() + when.size() ||
          !(r.prob > 0.0) || r.prob > 1.0) {
        *error = "bad probability '" + when + "' (want n<k> or 0 < p <= 1)";
        return false;
      }
    }
    sched.rules[static_cast<size_t>(site)] = r;
  }
  *out = sched;
  return true;
}

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

Schedule g_schedule;
std::atomic<uint64_t> g_hits[kNumSites];
std::atomic<uint64_t> g_fired[kNumSites];
std::atomic<uint64_t> g_eintr_streak[kNumSites];

void reset_counters() {
  for (size_t i = 0; i < kNumSites; ++i) {
    g_hits[i].store(0, std::memory_order_relaxed);
    g_fired[i].store(0, std::memory_order_relaxed);
    g_eintr_streak[i].store(0, std::memory_order_relaxed);
  }
}

// Arm from the environment once, before main() can reach any site. Sites
// are never on static-initialization paths, so cross-TU init order is moot.
[[maybe_unused]] const bool g_armed_at_start = reinit_from_env();

}  // namespace

namespace detail {

Kind fire_slow(Site s) {
  const size_t i = static_cast<size_t>(s);
  const uint64_t hit = g_hits[i].fetch_add(1, std::memory_order_relaxed) + 1;
  const SiteRule& r = g_schedule.rules[i];
  if (r.kind == Kind::kNone) return Kind::kNone;

  bool inject;
  if (r.nth != 0) {
    inject = hit == r.nth;
  } else {
    inject = decision_unit(g_schedule.seed, s, hit) < r.prob;
  }
  if (inject && r.kind == Kind::kEintr) {
    // Bound the storm: at most kMaxEintrStorm consecutive injected EINTRs
    // per site, so retry loops always make progress even at p = 1.
    if (g_eintr_streak[i].fetch_add(1, std::memory_order_relaxed) >=
        kMaxEintrStorm) {
      g_eintr_streak[i].store(0, std::memory_order_relaxed);
      inject = false;
    }
  } else if (r.kind == Kind::kEintr) {
    g_eintr_streak[i].store(0, std::memory_order_relaxed);
  }
  if (!inject) return Kind::kNone;

  g_fired[i].fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "[fault] %s: injecting %s (hit %llu, seed %llu)\n",
               site_name(s), kind_name(r.kind),
               static_cast<unsigned long long>(hit),
               static_cast<unsigned long long>(g_schedule.seed));
  return r.kind;
}

}  // namespace detail

void arm(const Schedule& s) {
  g_schedule = s;
  reset_counters();
  detail::g_armed.store(s.any(), std::memory_order_relaxed);
}

void disarm() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  g_schedule = Schedule{};
  reset_counters();
}

bool reinit_from_env() {
  const char* env = std::getenv("AVR_FAULTS");
  if (env == nullptr || *env == '\0') {
    disarm();
    return false;
  }
  Schedule s;
  std::string error;
  if (!parse_schedule(env, &s, &error)) {
    // Disarm loudly: a typo'd schedule that silently ran fault-free would
    // let a chaos test pass without testing anything.
    std::fprintf(stderr,
                 "[fault] WARNING: ignoring malformed AVR_FAULTS=\"%s\": %s\n",
                 env, error.c_str());
    disarm();
    return false;
  }
  arm(s);
  if (s.any())
    std::fprintf(stderr, "[fault] armed: AVR_FAULTS=%s\n", env);
  return s.any();
}

uint64_t hits(Site s) {
  return g_hits[static_cast<size_t>(s)].load(std::memory_order_relaxed);
}

uint64_t fired(Site s) {
  return g_fired[static_cast<size_t>(s)].load(std::memory_order_relaxed);
}

void kill_now(Site s) {
  std::fprintf(stderr, "[fault] %s: SIGKILL here\n", site_name(s));
  std::fflush(stderr);
  ::raise(SIGKILL);
  ::_exit(137);  // unreachable unless SIGKILL is somehow not delivered
}

}  // namespace avr::fault
