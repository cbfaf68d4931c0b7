// Baseline shared LLC: a conventional set-associative write-back cache in
// front of DRAM. All the Sec. 4 results are normalized to this design.
// The Truncate design (baselines/truncate_system.hh) is this cache with
// approximate lines crossing the memory link at half width.
#pragma once

#include "cache/set_assoc_cache.hh"
#include "common/config.hh"
#include "mem/llc_system.hh"
#include "runtime/region.hh"

namespace avr {

/// Plain-field counters for the baseline (and Truncate) request path: one
/// request() per LLC access, so no string-keyed maps here.
struct BaselineCounters {
  uint64_t requests = 0;
};

// Not `final` itself: TruncateSystem derives from it for its constructor
// alone, so System's dispatch thunk devirtualizes the flows of both.
class BaselineSystem : public LlcSystem {
 public:
  BaselineSystem(const SimConfig& cfg, RegionRegistry& regions)
      : BaselineSystem(cfg, regions, kCachelineBytes) {}

  uint64_t request(uint64_t now, uint64_t line, bool write) override;
  void writeback(uint64_t now, uint64_t line) override;
  void drain(uint64_t now) override;
  bool last_was_miss() const override { return last_was_miss_; }

  StatGroup stats() const override;
  const BaselineCounters& counters() const { return counters_; }
  Dram& dram() override { return dram_; }
  const Dram& dram() const override { return dram_; }

 protected:
  /// An approximate line crosses the memory link `approx_line_bytes` wide;
  /// one narrower than a cacheline is truncated on its way out.
  BaselineSystem(const SimConfig& cfg, RegionRegistry& regions,
                 uint32_t approx_line_bytes)
      : cfg_(cfg),
        regions_(regions),
        dram_(cfg.dram),
        llc_(cfg.llc.size_bytes, cfg.llc.ways),
        approx_line_bytes_(approx_line_bytes) {}

 private:
  uint32_t line_bytes(bool approx) const {
    return approx ? approx_line_bytes_ : static_cast<uint32_t>(kCachelineBytes);
  }
  /// Writes a dirty line out to DRAM.
  void write_line(uint64_t now, uint64_t line);
  /// Drops the low `truncate_bits` of every fp32 in the backing line.
  void truncate_line(uint64_t line);

  SimConfig cfg_;
  RegionRegistry& regions_;
  Dram dram_;
  SetAssocCache llc_;
  uint32_t approx_line_bytes_;
  BaselineCounters counters_;
  bool last_was_miss_ = false;
};

}  // namespace avr
