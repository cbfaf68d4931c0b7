// DDR4 bank/channel timing model (DRAMSim2-class fidelity for the effects
// that matter to AVR: row-buffer locality, burst pipelining of multi-line
// block transfers, per-channel bus contention, activation energy).
//
// The model is request-driven: the caller passes the current CPU cycle and
// receives the completion latency; internal bank/channel state advances
// accordingly. Requests of up to one memory block (16 lines) are issued as
// a single call so consecutive-line transfers pipeline on the open row,
// which is precisely why AVR's "one request per block" access pattern wins.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"

namespace avr {

/// Plain-field counters, bumped on every access: this model sits behind
/// every LLC miss of every design point, so no string-keyed maps here
/// (same convention as CacheCounters in cache/set_assoc_cache.hh).
struct DramCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t activations = 0;
  uint64_t row_hits = 0;
  uint64_t row_conflicts = 0;
  uint64_t read_latency_total = 0;
  uint64_t write_latency_total = 0;
  /// The share of bytes_read + bytes_written that moved approximate data:
  /// Fig. 11's traffic split, counted in the same 32 B chops.
  uint64_t approx_bytes = 0;
};

class Dram {
 public:
  /// `cfg` must pass validate_config (common/config_table.hh).
  explicit Dram(const DramConfig& cfg);

  /// Issue a read of `bytes` starting at `addr` at CPU time `now`; `approx`
  /// says whether they are approximate data (the caller's design decides).
  /// Returns the latency in CPU cycles until the *first* critical line is
  /// on chip (subsequent lines of a block stream behind it).
  uint64_t read(uint64_t now, uint64_t addr, uint32_t bytes, bool approx) {
    return access(now, addr, bytes, /*is_write=*/false, approx);
  }

  /// Issue a (posted) write; returns the occupancy latency, which the core
  /// never waits on but which keeps banks/bus busy.
  uint64_t write(uint64_t now, uint64_t addr, uint32_t bytes, bool approx) {
    return access(now, addr, bytes, /*is_write=*/true, approx);
  }

  const DramCounters& counters() const { return counters_; }
  /// Snapshot of the counters as a StatGroup (cold path, for reporting).
  /// Keys match the historical string-keyed counters; zero-valued counters
  /// are omitted, exactly as a never-touched map key used to be. The traffic
  /// split is not among them: add_traffic_split puts it in a design's record.
  StatGroup stats() const;
  /// Adds the design-record keys `traffic_approx_bytes` and
  /// `traffic_other_bytes` to `g`, zeros omitted.
  void add_traffic_split(StatGroup& g) const;

  uint64_t bytes_read() const { return counters_.bytes_read; }
  uint64_t bytes_written() const { return counters_.bytes_written; }
  uint64_t total_bytes() const { return bytes_read() + bytes_written(); }
  uint64_t approx_bytes() const { return counters_.approx_bytes; }
  uint64_t other_bytes() const { return total_bytes() - approx_bytes(); }
  uint64_t activations() const { return counters_.activations; }

 private:
  struct Bank {
    bool row_open = false;
    uint64_t open_row = 0;
    uint64_t ready_at = 0;  // CPU cycle when the bank can accept a command
  };

  /// One transaction (<= row) on a single bank; returns the latency until
  /// the first 64 B beat is done.
  uint64_t access(uint64_t now, uint64_t addr, uint32_t bytes, bool is_write,
                  bool approx);

  // Address mapping, all shift/mask: the constructor validated that every
  // divisor is a power of two.
  uint32_t channel_of(uint64_t addr) const {
    return static_cast<uint32_t>((addr >> block_shift_) & channel_mask_);
  }
  uint32_t bank_of(uint64_t addr) const {
    return static_cast<uint32_t>(
        (addr >> (block_shift_ + channel_shift_ + blocks_per_row_shift_)) &
        bank_mask_);
  }
  uint64_t row_of(uint64_t addr) const {
    return addr >>
           (block_shift_ + channel_shift_ + blocks_per_row_shift_ + bank_shift_);
  }

  DramConfig cfg_;
  // Banks are indexed [channel * banks_per_channel + bank] so the
  // per-access lookup is one indexed load instead of a vector-of-vectors
  // pointer chase; the channel buses sit beside them.
  std::vector<Bank> banks_;             // channels * banks_per_channel, flat
  std::vector<uint64_t> bus_free_at_;  // per channel: CPU cycle its bus frees
  DramCounters counters_;
  // Timings pre-converted to CPU cycles.
  uint64_t t_cl_, t_rcd_, t_rp_, t_burst_, half_burst_;
  // Address-mapping shifts/masks, precomputed at construction.
  uint32_t block_shift_ = 0;           // log2(kBlockBytes)
  uint32_t channel_shift_ = 0;         // log2(channels)
  uint32_t blocks_per_row_shift_ = 0;  // log2(row_bytes / kBlockBytes)
  uint32_t bank_shift_ = 0;            // log2(banks_per_channel)
  uint64_t channel_mask_ = 0;
  uint64_t bank_mask_ = 0;
};

}  // namespace avr
