// Doppelganger (San Miguel et al., MICRO'15), the paper's closest related
// design (Sec. 4.1): an LLC that deduplicates *similar* cachelines of
// approximate data. Configured as in the paper: identical data-array
// capacity to the other designs and a 4x larger tag array, so it can index
// up to 4x more cachelines than it stores.
//
// Lines are mapped by an approximate hash (quantized average + quantized
// range over the line's 16 floats, bucketed within the region's observed
// value span). Lines whose hashes collide share one stored representative;
// a read of a deduplicated line returns the representative's values, which
// is where Doppelganger's approximation error comes from — including the
// edge-case artefacts the paper observes on orbit/lbm/wrf where lines at
// the extremes of the span are treated as equal despite very different
// absolute values.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "mem/llc_system.hh"
#include "runtime/region.hh"

namespace avr {

/// Plain-field counters for the Doppelganger request path: one request()
/// per LLC access, so no string-keyed maps here.
struct DoppelgangerCounters {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t dedup_hits = 0;
  uint64_t unshares = 0;
  uint64_t data_evictions = 0;
  /// Valid tags displaced by the tag array's own per-set LRU. Kept out of
  /// the stats() snapshot so persisted result records stay byte-stable.
  uint64_t tag_evictions = 0;
};

class DoppelgangerSystem final : public LlcSystem {
 public:
  DoppelgangerSystem(const SimConfig& cfg, RegionRegistry& regions);

  uint64_t request(uint64_t now, uint64_t line, bool write) override;
  void writeback(uint64_t now, uint64_t line) override;
  void drain(uint64_t now) override;
  bool last_was_miss() const override { return last_was_miss_; }

  StatGroup stats() const override;
  const DoppelgangerCounters& counters() const { return counters_; }
  Dram& dram() override { return dram_; }
  const Dram& dram() const override { return dram_; }

  /// Effective dedup factor: indexed lines / stored entries.
  double dedup_factor() const;

 private:
  struct TagEntry {
    bool valid = false;
    bool dirty = false;
    uint64_t line = 0;
    uint32_t data_idx = 0;
    uint64_t lru = 0;
  };
  static constexpr uint32_t kNil = UINT32_MAX;
  struct DataEntry {
    bool valid = false;
    uint64_t key = 0;
    // Recency-list links (indices into data_, kNil at the ends). Every valid
    // entry is on the list, least recently used at the head.
    uint32_t prev = kNil;
    uint32_t next = kNil;
    std::array<std::byte, kCachelineBytes> repr{};  // representative contents
    std::vector<uint64_t> sharers;                  // line addresses
  };

  uint64_t tag_set_of(uint64_t line) const { return (line >> 6) & (tag_sets_ - 1); }
  TagEntry* find_tag(uint64_t line);
  /// The LRU way of `line`'s tag set (an invalid way if there is one),
  /// detached and written back first if it still holds a line.
  TagEntry& take_tag_way(uint64_t now, uint64_t line);
  /// Approximate map hash of a line's current backing contents: `host` is
  /// the line's bytes inside approximate region `r`.
  uint64_t map_key(const MemoryRegion& r, const std::byte* host);
  /// Insert `line` after a fill; returns true if it deduplicated.
  bool install(uint64_t now, uint64_t line, bool dirty);
  uint32_t alloc_data_entry(uint64_t now, uint64_t key);
  void evict_data_entry(uint64_t now, uint32_t idx);
  /// Moves (or appends) a valid data entry to the MRU end of the list.
  void lru_touch(uint32_t idx);
  void lru_unlink(uint32_t idx);
  void detach_tag(uint64_t now, TagEntry& t, bool write_back);
  /// A hit on `t`: refreshes its LRU stamp. A write dirties the line, first
  /// moving it to a private data entry if it shares one.
  void hit_tag(uint64_t now, TagEntry& t, bool write);

  SimConfig cfg_;
  RegionRegistry& regions_;
  Dram dram_;
  std::vector<TagEntry> tags_;
  std::vector<DataEntry> data_;
  std::unordered_map<uint64_t, uint32_t> by_key_;
  std::vector<uint32_t> free_data_;
  uint32_t tag_sets_ = 0;
  uint32_t tag_ways_ = 0;
  uint64_t lru_clock_ = 0;    // tag-array recency stamps
  uint32_t lru_head_ = kNil;  // least recently used valid data entry
  uint32_t lru_tail_ = kNil;  // most recently used valid data entry
  // Per-region observed span for quantization.
  struct Span {
    float lo = 0, hi = 0;
    bool init = false;
  };
  std::unordered_map<uint64_t, Span> spans_;  // by region base
  DoppelgangerCounters counters_;
  bool last_was_miss_ = false;
};

}  // namespace avr
