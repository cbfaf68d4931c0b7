// Interval-based processor model (Genbrugge, Eyerman & Eeckhout, HPCA'10 —
// the model the paper's simulator uses, Sec. 4.1).
//
// Between long-latency miss events the core commits `dispatch_width`
// instructions per cycle. A miss event exposes its latency minus the ILP
// the ROB can overlap; multiple misses inside one ROB window overlap with
// each other (memory-level parallelism), so a burst of misses costs roughly
// one exposed latency plus the queueing tail — which is how reduced traffic
// translates into execution time.
//
// Hot-path shape: every instrumented access enters through access(), which
// charges the surrounding non-memory instructions and the load/store in one
// step, then tries the hierarchy's per-core MRU line filter inline. A filter
// miss takes l1_access(), out of line: one scan of the core's L1, where an
// L1 hit ends, and only L1 misses (L2/LLC/DRAM traffic) reach the
// hierarchy's miss path and the interval bookkeeping.
#pragma once

#include <cstdint>

#include "common/config.hh"
#include "cpu/hierarchy.hh"

namespace avr {

class IntervalCore {
 public:
  IntervalCore(const CoreConfig& cfg, MemoryHierarchy& mem, uint32_t id)
      : mem_(mem),
        filter_(mem.filter(id)),
        id_(id),
        // Per-access invariants, hoisted so the access path touches plain
        // members instead of re-deriving them from the config every access.
        dispatch_width_(cfg.dispatch_width),
        rob_size_(cfg.rob_size),
        // ILP a full ROB can hide under perfect overlap.
        hide_cycles_(cfg.rob_size / cfg.dispatch_width),
        // Serving an L1 hit in the core (the MRU filter, or l1_access's
        // scan) skips the interval bookkeeping, which is exact only if an L1
        // hit can never expose a stall; with l1_latency > hide_cycles it
        // would, so such configs charge every access through it.
        filter_ok_(mem.l1_hit_latency() <= hide_cycles_) {}

  /// Commit `n` non-memory instructions.
  void ops(uint64_t n) { instructions_ += n; }

  /// Commit `pre_ops` non-memory instructions plus one load/store of `addr`
  /// — the bundle the runtime charges per instrumented access. Equivalent
  /// to ops(pre_ops) followed by load()/store(); the fused form exists so
  /// the filter fast path costs one branch and two adds.
  void access(uint64_t addr, bool write, uint64_t pre_ops) {
    instructions_ += pre_ops + 1;
    if (filter_ok_ && filter_->hit(addr, write)) return;
    l1_access(addr, write);
  }

  /// Commit a load/store of `addr`.
  void load(uint64_t addr) { access(addr, /*write=*/false, 0); }
  void store(uint64_t addr) { access(addr, /*write=*/true, 0); }

  // The interval model commits `dispatch_width` instructions per cycle
  // outside stalls, so width-limited work is instructions_ / width —
  // every committed instruction (memory or not) contributes equally.
  uint64_t cycles() const { return stall_cycles_ + instructions_ / dispatch_width_; }
  uint64_t instructions() const { return instructions_; }
  double ipc() const {
    const uint64_t c = cycles();
    return c ? static_cast<double>(instructions_) / static_cast<double>(c) : 0.0;
  }
  uint32_t id() const { return id_; }

 private:
  /// An access the MRU filter did not serve. Out of line, so that the
  /// filter test stays the only code access() inlines into every workload.
  [[gnu::noinline]] void l1_access(uint64_t addr, bool write) {
    const SetAssocCache::Slot s1 = filter_->scan(addr, write);
    // An L1 hit ends here when it cannot stall: the bookkeeping below
    // would find nothing exposed. Otherwise it stalls like any miss.
    if (s1.hit && filter_ok_) return;
    // Misses within one ROB window all issue from the window's start time:
    // the OoO engine had them in flight together. The DRAM model then
    // queues them behind each other (bank/bus contention), and the core
    // charges only the completion tail — so a burst of k misses costs one
    // exposed latency plus (k-1) transfer slots, i.e. bandwidth-bound.
    const bool in_window =
        window_done_ != 0 && (instructions_ - window_first_instr_ < rob_size_);
    const uint64_t issue = in_window ? window_issue_ : cycles();
    const uint64_t latency = s1.hit ? mem_.l1_hit_latency()
                                    : mem_.l1_miss(id_, issue, addr, write, s1).latency;
    // Only latencies beyond what the ROB hides become stalls; on-chip hits
    // (L1/L2/LLC/DBUF, including AVR decompression) are absorbed by ILP.
    const uint64_t exposed = latency > hide_cycles_ ? latency - hide_cycles_ : 0;
    if (exposed == 0) return;

    const uint64_t done = issue + exposed;
    if (!in_window) {
      window_first_instr_ = instructions_;
      window_issue_ = issue;
      window_done_ = done;
      stall_cycles_ += exposed;
    } else if (done > window_done_) {
      stall_cycles_ += done - window_done_;
      window_done_ = done;
    }
  }

  MemoryHierarchy& mem_;
  MemoryHierarchy::L1Filter* filter_;
  uint32_t id_;
  // Set once in the constructor; see the init list.
  uint64_t dispatch_width_;
  uint64_t rob_size_;
  uint64_t hide_cycles_;
  bool filter_ok_;
  uint64_t instructions_ = 0;
  uint64_t stall_cycles_ = 0;  // exposed miss penalties
  uint64_t window_first_instr_ = 0;
  uint64_t window_issue_ = 0;
  uint64_t window_done_ = 0;
};

}  // namespace avr
