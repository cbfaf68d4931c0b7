// Private L1/L2 cache hierarchy in front of the design-specific shared LLC
// subsystem. Design-independent: every evaluated design (baseline, Truncate,
// Doppelganger, AVR) sees identical L1/L2 behaviour, as in the paper.
//
// Per-access fast path: each core carries a direct-mapped MRU line filter —
// one slot per L1 set holding the set's most-recently-used line. A repeat
// access to that line is an L1 hit that cannot change any simulated state
// (the line is already MRU, so true-LRU ordering is unaffected), so
// filter_hit() short-circuits it to one compare plus a deferred counter
// bump, bypassing the SetAssocCache scan and the AccessOutcome plumbing.
// See docs/ARCHITECTURE.md ("Access-chain fast path") for the exactness
// argument and the invalidation contract.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/config.hh"
#include "mem/llc_system.hh"

namespace avr {

/// What level served an access (for the interval model's penalty rule and
/// the AMAT/MPKI metrics).
enum class ServedBy : uint8_t { kL1, kL2, kLlc, kMemory };

struct AccessOutcome {
  uint64_t latency = 0;
  ServedBy level = ServedBy::kL1;
};

class MemoryHierarchy {
 public:
  /// Reply of one LLC request: latency plus whether it missed on chip —
  /// what the virtual pair request()+last_was_miss() used to answer in two
  /// virtual calls.
  struct LlcReply {
    uint64_t latency = 0;
    bool miss = false;
  };
  /// Non-virtual miss-path entry, bound to the concrete LLC type — usually
  /// &llc_request_thunk<Llc> below — so LLC dispatch costs one indirect call
  /// off the L1/L2-hit path instead of two virtual hops.
  using LlcRequestFn = LlcReply (*)(LlcSystem&, uint64_t now, uint64_t line,
                                    bool write);

  MemoryHierarchy(const SimConfig& cfg, LlcSystem& llc, uint32_t num_cores,
                  LlcRequestFn request_fn);

  /// A load/store of the cacheline containing `addr` by `core` at `now`.
  AccessOutcome access(uint32_t core, uint64_t now, uint64_t addr, bool write);

  /// Per-core MRU line filter, the per-access fast path: lines[s] is the
  /// MRU line of L1 set s (kNoLine when disarmed), dirty[s] whether that L1
  /// copy is known dirty. `pending` counts filtered hits not yet folded
  /// into the reporting counters — the simulation itself never reads those
  /// counters, so folding happens lazily on the cold read paths.
  struct L1Filter {
    std::vector<uint64_t> lines;
    std::vector<uint8_t> dirty;
    SetAssocCache* l1 = nullptr;
    uint64_t mask = 0;
    uint64_t pending = 0;

    /// True iff the access is a repeat L1 hit on the MRU line of its set:
    /// the access is then fully accounted (an L1 hit at l1_latency) and
    /// nothing else in the chain may observe it. On a filtered write the
    /// L1 dirty bit is set exactly once.
    bool hit(uint64_t addr, bool write) {
      const uint64_t line = line_addr(addr);
      const uint64_t slot = (line / kCachelineBytes) & mask;
      if (lines[slot] != line) return false;
      if (write && !dirty[slot]) {
        // First write since the slot was (re)armed: the L1 copy may still
        // be clean. mark_dirty touches only the dirty bit and the LRU
        // stamp of the already-MRU line, so replacement order is
        // unchanged.
        l1->mark_dirty(line);
        dirty[slot] = 1;
      }
      ++pending;
      return true;
    }
  };

  /// The filter the interval core for `core` checks on every access.
  L1Filter* filter(uint32_t core) { return &filters_[core]; }

  /// Latency charged per filtered hit (the L1 hit latency); the interval
  /// core uses it to prove filtered hits can never expose a stall.
  uint64_t l1_hit_latency() const { return lat_l1_; }

  /// Write all dirty private-cache state down to the LLC and drain it.
  void drain(uint64_t now);

  uint64_t llc_requests() const { return llc_requests_; }
  uint64_t llc_misses() const { return llc_misses_; }
  uint64_t total_accesses() const {
    flush_filters();
    return accesses_;
  }
  /// Average memory access time over all instrumented accesses (Fig. 12).
  double amat() const {
    flush_filters();
    return accesses_ ? static_cast<double>(latency_sum_) / static_cast<double>(accesses_)
                     : 0.0;
  }

  const SetAssocCache& l1(uint32_t core) const {
    flush_filters();
    return *l1_[core];
  }
  const SetAssocCache& l2(uint32_t core) const { return *l2_[core]; }
  uint64_t l1_accesses() const;
  uint64_t l2_accesses() const;

 private:
  static constexpr uint64_t kNoLine = ~uint64_t{0};

  /// Arm the filter slot for `line` (which just became the MRU of its set).
  void arm_filter(uint32_t core, uint64_t line, bool known_dirty) {
    L1Filter& f = filters_[core];
    const uint64_t slot = (line / kCachelineBytes) & f.mask;
    f.lines[slot] = line;
    f.dirty[slot] = known_dirty ? 1 : 0;
  }

  /// Fold pending filtered hits into the reporting counters (cold path).
  void flush_filters() const;

  void evict_from_l1(uint32_t core, uint64_t now, const Eviction& ev);

  SimConfig cfg_;
  LlcSystem& llc_;
  LlcRequestFn request_fn_;
  std::vector<std::unique_ptr<SetAssocCache>> l1_;
  std::vector<std::unique_ptr<SetAssocCache>> l2_;
  mutable std::vector<L1Filter> filters_;
  // Per-access invariants hoisted out of access(): the latency ladder is
  // config-constant, so the hot path adds plain members instead of chasing
  // two levels of config structs per instrumented load/store.
  uint64_t lat_l1_ = 0;    // L1 hit
  uint64_t lat_l1l2_ = 0;  // L1 miss, L2 hit
  uint64_t llc_requests_ = 0;
  uint64_t llc_misses_ = 0;
  mutable uint64_t accesses_ = 0;
  mutable uint64_t latency_sum_ = 0;
};

/// Concrete-type LLC dispatch for MemoryHierarchy: one call in place of two
/// virtual hops (request + last_was_miss). The qualified calls are resolved
/// statically, so `Llc` must be the exact dynamic type of the LLC (System
/// binds the type it just constructed).
template <typename Llc>
MemoryHierarchy::LlcReply llc_request_thunk(LlcSystem& llc, uint64_t now,
                                            uint64_t line, bool write) {
  auto& t = static_cast<Llc&>(llc);
  const uint64_t latency = t.Llc::request(now, line, write);
  return {latency, t.Llc::last_was_miss()};
}

}  // namespace avr
