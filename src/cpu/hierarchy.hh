// The core's private L1/L2 cache hierarchy in front of the design-specific
// shared LLC subsystem. Design-independent: every evaluated design
// (baseline, Truncate, Doppelganger, AVR) sees identical L1/L2 behaviour, as
// in the paper.
//
// Per-access fast path: a direct-mapped MRU line filter — one slot per L1
// set holding the set's most-recently-used line. A repeat access to that
// line is an L1 hit that cannot change any simulated state (the line is
// already MRU, so true-LRU ordering is unaffected), so L1Filter::hit()
// short-circuits it to one compare plus a deferred counter bump, bypassing
// the SetAssocCache scan. An access the filter passes on gets one L1 scan,
// L1Filter::scan(), which the interval core runs itself: a hit ends there,
// a miss hands its slot to l1_miss(), which never rescans the L1. Each L1
// line also remembers the L2 slot it came from, so a dirty L1 victim's
// write-back usually skips the L2 scan. See docs/ARCHITECTURE.md
// ("Access-chain fast path") for the exactness argument and the
// invalidation contract.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/config.hh"
#include "mem/llc_system.hh"

namespace avr {

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

  /// The simulator models one core: `num_cores` must be 1, else this throws
  /// std::invalid_argument.
  MemoryHierarchy(const SimConfig& cfg, LlcSystem& llc, uint32_t num_cores,
                  LlcRequestFn request_fn);
  // The filter points into the L1 held here.
  MemoryHierarchy(const MemoryHierarchy&) = delete;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;

  /// A load/store of the line holding `addr` at `now`, after an L1 lookup
  /// missed: `s1` is the miss slot the counted lookup returned
  /// (L1Filter::scan), so the L1 is not scanned again. Nothing may touch the
  /// L1 between the lookup and this call. Returns the access's latency.
  uint64_t l1_miss(uint64_t now, uint64_t addr, bool write, SetAssocCache::Slot s1);

  /// The MRU line filter, the per-access fast path: lines[s] is the
  /// MRU line of L1 set s (kNoLine when disarmed), dirty[s] whether that L1
  /// copy is known dirty. `pending` counts filtered hits not yet folded
  /// into any counter, `scanned` the L1 hits scan() served, which the L1
  /// counted but the hierarchy's access and latency sums do not yet hold —
  /// the simulation itself never reads those counters, so folding happens
  /// lazily on the cold read paths.
  struct L1Filter {
    std::vector<uint64_t> lines;
    std::vector<uint8_t> dirty;
    SetAssocCache* l1 = nullptr;
    uint64_t mask = 0;
    uint64_t pending = 0;
    uint64_t scanned = 0;

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

    /// The counted L1 lookup of an access hit() passed on. A hit is then
    /// fully accounted as an L1 hit at l1_latency: the lookup refreshed LRU
    /// (and dirtied the line on a write), the line arms its slot as the new
    /// MRU of its set, and `scanned` defers the hierarchy's share. A miss
    /// slot is for MemoryHierarchy::l1_miss.
    SetAssocCache::Slot scan(uint64_t addr, bool write) {
      const uint64_t line = line_addr(addr);
      const SetAssocCache::Slot s = l1->lookup(line, write);
      if (s.hit) {
        arm(line, write);
        ++scanned;
      }
      return s;
    }

    /// Arm the slot for `line`, which just became the MRU of its set.
    void arm(uint64_t line, bool known_dirty) {
      const uint64_t slot = (line / kCachelineBytes) & mask;
      lines[slot] = line;
      dirty[slot] = known_dirty ? 1 : 0;
    }
  };

  /// The filter the interval core checks on every access.
  L1Filter* filter() { return &filter_; }

  /// Latency charged per filtered hit (the L1 hit latency); the interval
  /// core uses it to prove filtered hits can never expose a stall.
  uint64_t l1_hit_latency() const { return lat_l1_; }

  /// Write all dirty private-cache state down to the LLC and drain it.
  void drain(uint64_t now);

  uint64_t llc_requests() const { return llc_requests_; }
  uint64_t llc_misses() const { return llc_misses_; }
  uint64_t total_accesses() const {
    flush_filter();
    return accesses_;
  }
  /// Average memory access time over all instrumented accesses (Fig. 12).
  double amat() const {
    flush_filter();
    return accesses_ ? static_cast<double>(latency_sum_) / static_cast<double>(accesses_)
                     : 0.0;
  }

  /// `core` must be 0, the one core.
  const SetAssocCache& l1([[maybe_unused]] uint32_t core) const {
    assert(core == 0);
    flush_filter();
    return l1_;
  }
  const SetAssocCache& l2([[maybe_unused]] uint32_t core) const {
    assert(core == 0);
    return l2_;
  }
  uint64_t l1_accesses() const { return l1(0).counters().accesses; }
  uint64_t l2_accesses() const { return l2_.counters().accesses; }

 private:
  static constexpr uint64_t kNoLine = ~uint64_t{0};

  /// Fold the filter's deferred L1 hits into the reporting counters (cold
  /// path).
  void flush_filter() const;

  LlcSystem& llc_;
  LlcRequestFn request_fn_;
  // The latency ladder is config-constant, so the hot path adds plain
  // members instead of chasing two levels of config structs per access.
  uint64_t lat_l1_ = 0;    // L1 hit
  uint64_t lat_l1l2_ = 0;  // L1 miss, L2 hit
  uint64_t llc_requests_ = 0;
  uint64_t llc_misses_ = 0;
  mutable uint64_t accesses_ = 0;
  mutable uint64_t latency_sum_ = 0;
  SetAssocCache l1_;
  SetAssocCache l2_;
  mutable L1Filter filter_;
  // l2_slots_[i]: the L2 slot index of the line in L1 slot i, as of its
  // fill. Advisory — SetAssocCache::write_back(addr, hint) checks it.
  std::vector<uint32_t> l2_slots_;
};

// Inline: IntervalCore::l1_access calls it on every L1 miss.
inline uint64_t MemoryHierarchy::l1_miss(uint64_t now, uint64_t addr, bool write,
                                         SetAssocCache::Slot s1) {
  addr = line_addr(addr);
  ++accesses_;
  uint64_t latency = lat_l1l2_;

  // One scan per level: a miss slot names the victim way the fill below
  // uses, and stays valid because nothing between lookup and fill touches
  // that cache (the L2 and LLC work never reaches the L1; the LLC request
  // never reaches the L2).
  const SetAssocCache::Slot s2 = l2_.lookup(addr, /*write=*/false);
  if (!s2.hit) {
    ++llc_requests_;
    const LlcReply reply = request_fn_(llc_, now, addr, /*write=*/false);
    if (reply.miss) ++llc_misses_;
    latency += reply.latency;
    const Eviction ev2 = l2_.fill(s2, addr, /*dirty=*/false);
    if (ev2.valid && ev2.dirty) llc_.writeback(now, ev2.addr);
  }

  // Fill L1 (write-allocate: the store dirties the L1 copy). The filled
  // line is the new MRU of its set, so it arms the filter slot — which also
  // retires any line the fill evicted from that set.
  const Eviction ev1 = l1_.fill(s1, addr, write);
  filter_.arm(addr, write);
  // A dirty victim lands in the L2 (allocate on write-back), tried first at
  // the L2 slot its L1 slot remembers; the slot then remembers s2, where
  // the new line sits.
  uint32_t& remembered = l2_slots_[s1.idx];
  if (ev1.valid && ev1.dirty) {
    const Eviction ev2 = l2_.write_back(ev1.addr, remembered);
    if (ev2.valid && ev2.dirty) llc_.writeback(now, ev2.addr);
  }
  remembered = static_cast<uint32_t>(s2.idx);
  latency_sum_ += latency;
  return latency;
}

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
