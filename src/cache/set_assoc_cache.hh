// Generic set-associative, write-back/write-allocate cache model with true
// LRU replacement. Stores tags and state only; data values live in the
// functional backing store owned by the runtime.
//
// Used directly for the private L1/L2 caches and for the baseline LLC; the
// AVR LLC (src/avr/avr_llc.hh) has its own decoupled structure.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace avr {

struct Eviction {
  uint64_t addr = 0;
  bool valid = false;
  bool dirty = false;
};

/// Plain-field counters: this sits on the L1 hit path, executed once per
/// instrumented load/store, so no string-keyed maps here.
struct CacheCounters {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fills = 0;
  uint64_t evictions = 0;
  uint64_t dirty_evictions = 0;
};

class SetAssocCache {
 public:
  SetAssocCache(uint64_t size_bytes, uint32_t ways,
                uint64_t line_bytes = kCachelineBytes);

  /// Result of one scan of `addr`'s set: the way holding the line (hit) or,
  /// on a miss, the way a fill replaces — the first invalid way, else the
  /// LRU one. A miss slot stays valid until the next mutation of this cache.
  struct Slot {
    uint64_t idx = 0;  // index into the set-major line array
    bool hit = false;
    bool operator==(const Slot&) const = default;
  };

  /// Lookup without side effects.
  bool probe(uint64_t addr) const { return locate(addr).hit; }

  /// Counted lookup: on a hit updates LRU (and the dirty bit for writes);
  /// on a miss the slot names the victim way for fill(slot, ...).
  Slot lookup(uint64_t addr, bool write);

  /// Allocate `addr` into the miss slot `lookup` returned for it, evicting
  /// the way's line if valid. Returns the eviction (valid=false if none).
  Eviction fill(Slot slot, uint64_t addr, bool dirty);

  /// A writeback landing from above: mark the line dirty (refreshing LRU)
  /// if present, else allocate it dirty. Returns the allocation's eviction.
  Eviction write_back(uint64_t addr);

  /// Mark an existing line dirty (refreshing LRU). Returns false if absent.
  bool mark_dirty(uint64_t addr);

  /// Fold `n` MRU-filter hits (accounted by MemoryHierarchy's line filter,
  /// which bypasses access()) into the counters: n accesses, n hits.
  void count_filtered_hits(uint64_t n) {
    counters_.accesses += n;
    counters_.hits += n;
  }

  /// Enumerate all valid lines (used to drain dirty state at end of run).
  std::vector<std::pair<uint64_t, bool>> valid_lines() const;

  uint32_t num_sets() const { return sets_; }
  uint32_t ways() const { return ways_; }

  const CacheCounters& counters() const { return counters_; }

 private:
  // An invalid line stores the sentinel tag, so the scan — executed for
  // every access the L1 filter passes on — is a single compare per way
  // instead of a valid-check plus a tag compare. No real tag can be the
  // sentinel: tags are addr >> tag_shift_ < 2^58. An invalid line also holds
  // LRU stamp 0 while every valid one holds a distinct stamp >= 1 (lines are
  // never invalidated), so the first strict minimum stamp of a set is its
  // first invalid way, else its LRU way.
  static constexpr uint64_t kNoTag = ~uint64_t{0};
  struct Line {
    uint64_t tag = kNoTag;
    uint64_t lru = 0;  // higher = more recently used; 0 = never filled
    bool dirty = false;

    bool valid() const { return tag != kNoTag; }
  };

  uint64_t set_of(uint64_t addr) const { return (addr >> line_shift_) & set_mask_; }
  uint64_t tag_of(uint64_t addr) const { return addr >> tag_shift_; }
  /// The one scan every operation shares: the matching way, else the victim.
  Slot locate(uint64_t addr) const;
  /// Make a present line the MRU of its set; a write also dirties it.
  void touch(Line& l, bool write) {
    l.lru = ++lru_clock_;
    if (write) l.dirty = true;
  }

  std::vector<Line> lines_;  // sets_ * ways_, set-major
  uint32_t sets_;
  uint32_t ways_;
  uint32_t line_shift_;  // log2(line bytes)
  uint32_t tag_shift_;   // log2(line bytes * sets_)
  uint64_t set_mask_;    // sets_ - 1
  uint64_t lru_clock_ = 0;
  CacheCounters counters_;
};

// The scan and the counted lookup are inline: they run on every access the
// L1 filter passes on, and on the L2 and LLC paths below it.
inline SetAssocCache::Slot SetAssocCache::locate(uint64_t addr) const {
  const uint64_t tag = tag_of(addr);
  const uint64_t base = set_of(addr) * ways_;
  const Line* set = &lines_[base];
  // Branchless first strict minimum of the stamps: the host cannot predict
  // stamp comparisons, so the victim index and its stamp are selects.
  uint32_t victim = 0;
  uint64_t oldest = set[0].lru;
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].tag == tag) return {base + w, true};
    const bool older = set[w].lru < oldest;
    victim = older ? w : victim;
    oldest = older ? set[w].lru : oldest;
  }
  return {base + victim, false};
}

inline SetAssocCache::Slot SetAssocCache::lookup(uint64_t addr, bool write) {
  const Slot s = locate(addr);
  ++counters_.accesses;
  if (!s.hit) {
    ++counters_.misses;
    return s;
  }
  touch(lines_[s.idx], write);
  ++counters_.hits;
  return s;
}

}  // namespace avr
