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
#include <cstddef>
#include <cstdint>
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
  static constexpr uint32_t kNil = UINT32_MAX;
  // The bookkeeping lives in flat arrays sized at construction (the span
  // slots grow once per region), so the miss path does not allocate.
  // Entries refer to each other by index.

  // The tag array is split by use: a lookup scans only tag_line_, a victim
  // pick only tag_lru_, and the rest of an entry sits in tags_.
  static constexpr uint64_t kNoLine = ~uint64_t{0};  // an invalid tag's line
  struct TagEntry {
    uint32_t data_idx = 0;
    // Sharer-list links (tag indices, kNil at the ends): every valid tag is
    // on its data entry's list, in the order the tags joined it.
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool dirty = false;
    bool approx = false;  // the line's region, resolved once at install
  };
  struct DataEntry {
    bool valid = false;
    uint64_t key = 0;  // 0: a private entry, not in the key table
    // Recency-list links (indices into data_, kNil at the ends). Every valid
    // entry is on the list, least recently used at the head.
    uint32_t prev = kNil;
    uint32_t next = kNil;
    // Its sharer list: the first and last tag to join.
    uint32_t first = kNil;
    uint32_t last = kNil;
  };
  // Per-region observed span for quantization.
  struct Span {
    float lo = 0, hi = 0;
    bool init = false;
  };
  // Key table slot: open addressing with linear probing. `hash` is the high
  // half of the key's multiplicative hash, whose top bits name the home
  // slot; the key itself is the entry's. idx kNil marks an empty slot.
  struct KeySlot {
    uint32_t hash = 0;
    uint32_t idx = kNil;
  };

  uint64_t tag_set_of(uint64_t line) const { return (line >> 6) & (tag_sets_ - 1); }
  /// The tag index holding `line`, or kNil.
  uint32_t find_tag(uint64_t line) const;
  /// The LRU way of `line`'s tag set (its first invalid way if there is
  /// one), detached and written back first if it still holds a line.
  /// Returns its tag index.
  uint32_t take_tag_way(uint64_t now, uint64_t line);
  /// Approximate map hash of a line's current backing contents: `host` is
  /// the line's bytes inside the approximate region at `base`, whose
  /// observed value span is `span`.
  uint64_t map_key(Span& span, uint64_t base, const std::byte* host) const;
  /// The span slot of region `r`.
  Span& span_of(const MemoryRegion& r);
  /// Insert `line` (of region `r`, nullptr if unmapped) after a fill.
  void install(uint64_t now, uint64_t line, const MemoryRegion* r, bool dirty);
  uint32_t alloc_data_entry(uint64_t now, uint64_t key);
  void evict_data_entry(uint64_t now, uint32_t idx);
  /// Returns a valid data entry to the free list.
  void free_data_entry(uint32_t idx);
  /// Moves (or appends) a valid data entry to the MRU end of the list.
  void lru_touch(uint32_t idx);
  void lru_unlink(uint32_t idx);
  /// Appends tag `ti` to data entry `idx`'s sharer list.
  void share(uint32_t idx, uint32_t ti);
  /// Unlinks tag `ti` from its data entry's sharer list.
  void unshare(uint32_t ti);
  /// Invalidates tag `ti`, writing its line back if dirty.
  void drop_tag(uint64_t now, uint32_t ti);
  void detach_tag(uint64_t now, uint32_t ti);
  /// A hit on tag `ti`: refreshes its LRU stamp. A write dirties the line,
  /// first moving it to a private data entry if it shares one.
  void hit_tag(uint64_t now, uint32_t ti, bool write);

  /// Key table: the data entry keyed `key`, or kNil.
  uint32_t key_find(uint64_t key) const;
  /// Enters data entry `idx` under its key.
  void key_insert(uint32_t idx);
  /// Removes data entry `idx`, which is in the table.
  void key_erase(uint32_t idx);
  static uint32_t key_hash(uint64_t key) {
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }
  size_t key_home(uint32_t hash) const { return hash >> key_shift_; }

  SimConfig cfg_;
  RegionRegistry& regions_;
  Dram dram_;
  std::vector<uint64_t> tag_line_;  // kNoLine: the way is invalid
  std::vector<uint64_t> tag_lru_;   // recency stamps of the valid ways
  std::vector<TagEntry> tags_;
  std::vector<DataEntry> data_;
  std::vector<std::array<std::byte, kCachelineBytes>> repr_;  // by data entry
  std::vector<KeySlot> keys_;  // a power of two >= 4x the data entries
  std::vector<uint32_t> free_data_;
  std::vector<Span> spans_;  // by region ordinal
  uint32_t key_shift_ = 0;   // 32 - log2(keys_.size())
  uint32_t tag_sets_ = 0;
  uint32_t tag_ways_ = 0;
  uint64_t lru_clock_ = 0;    // last tag recency stamp
  uint32_t lru_head_ = kNil;  // least recently used valid data entry
  uint32_t lru_tail_ = kNil;  // most recently used valid data entry
  // While install allocates a data entry: the tag index the new line will
  // take, and the first tag index of its set (both kNil otherwise).
  uint32_t place_ = kNil;
  uint32_t place_set_ = kNil;
  DoppelgangerCounters counters_;
  bool last_was_miss_ = false;
};

}  // namespace avr
