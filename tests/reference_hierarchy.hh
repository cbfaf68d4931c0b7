// Reference model of the private cache hierarchy and the baseline LLC,
// written from their definitions rather than from MemoryHierarchy: the
// model MemoryHierarchy + BaselineSystem must reproduce, counter for
// counter, for the baseline and Truncate designs (Truncate narrows the
// approximate lines on the memory link, which changes bytes, not counts).
//
//   - L1, L2 and LLC are write-back, set-associative, true-LRU caches. Each
//     set is a std::list of its lines, most recently used first.
//   - A load or store that misses the L1 looks the line up in the L2; an L2
//     miss is one LLC request, and an LLC miss one DRAM read. Every level
//     allocates the missing line clean; the store then dirties the L1 copy
//     (write-allocate).
//   - A dirty victim of one level is written back into the next: the L2
//     and the LLC mark the line dirty and most recent if they hold it, and
//     allocate it dirty otherwise. A dirty LLC victim is one DRAM write.
//   - drain() writes every dirty L1 line and then every dirty L2 line into
//     the LLC, then every dirty LLC line to DRAM.
//
// There is no MRU filter, no slot, no timing and no data: only the counts a
// differential test compares. Lines never move, so a line keeps the way it
// was allocated into; a new line takes the lowest free way, else its set's
// LRU line's way. drain() walks set by set, way by way, the order the LLC
// sees the write-backs in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace avr {

class ReferenceCache {
 public:
  struct Counters {
    uint64_t hits = 0;    // demand accesses that found the line
    uint64_t misses = 0;  // demand accesses that did not
    uint64_t evictions = 0;
    uint64_t dirty_evictions = 0;  // write-backs to the next level
  };
  struct Victim {
    bool valid = false;
    bool dirty = false;
    uint64_t line = 0;
  };

  ReferenceCache(uint64_t size_bytes, uint32_t ways)
      : ways_(ways), sets_(size_bytes / (uint64_t{ways} * kCachelineBytes)) {}

  /// A demand access: true on a hit, which makes the line the most recent
  /// of its set (and dirty on a write). A miss changes nothing.
  bool access(uint64_t line, bool write) {
    auto& set = set_of(line);
    const auto it = find(set, line);
    if (it == set.end()) {
      ++counters_.misses;
      return false;
    }
    ++counters_.hits;
    if (write) it->dirty = true;
    set.splice(set.begin(), set, it);
    return true;
  }

  /// Allocates an absent line as the most recent of its set; returns the
  /// set's LRU line if the set was full.
  Victim insert(uint64_t line, bool dirty) {
    auto& set = set_of(line);
    Victim v;
    uint32_t way = static_cast<uint32_t>(set.size());
    if (set.size() == ways_) {
      const Entry& lru = set.back();
      v = {true, lru.dirty, lru.line};
      way = lru.way;
      ++counters_.evictions;
      if (lru.dirty) ++counters_.dirty_evictions;
      set.pop_back();
    }
    set.push_front({line, dirty, way});
    return v;
  }

  /// A dirty line written back from the level above.
  Victim write_back(uint64_t line) {
    auto& set = set_of(line);
    const auto it = find(set, line);
    if (it == set.end()) return insert(line, /*dirty=*/true);
    it->dirty = true;
    set.splice(set.begin(), set, it);
    return {};
  }

  /// Every line and its dirty bit, set by set and way by way.
  std::vector<std::pair<uint64_t, bool>> lines() const {
    std::vector<std::pair<uint64_t, bool>> out;
    for (const auto& set : sets_) {
      std::vector<Entry> by_way(set.begin(), set.end());
      std::sort(by_way.begin(), by_way.end(),
                [](const Entry& a, const Entry& b) { return a.way < b.way; });
      for (const Entry& e : by_way) out.emplace_back(e.line, e.dirty);
    }
    return out;
  }

  const Counters& counters() const { return counters_; }

 private:
  struct Entry {
    uint64_t line;
    bool dirty;
    uint32_t way;
  };
  using Set = std::list<Entry>;

  Set& set_of(uint64_t line) { return sets_[(line / kCachelineBytes) % sets_.size()]; }
  static Set::iterator find(Set& set, uint64_t line) {
    return std::find_if(set.begin(), set.end(),
                        [line](const Entry& e) { return e.line == line; });
  }

  uint32_t ways_;
  std::vector<Set> sets_;
  Counters counters_;
};

class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const SimConfig& cfg)
      : l1_(cfg.l1.size_bytes, cfg.l1.ways),
        l2_(cfg.l2.size_bytes, cfg.l2.ways),
        llc_(cfg.llc.size_bytes, cfg.llc.ways) {}

  /// A load or store of the line holding byte `addr`.
  void access(uint64_t addr, bool write) {
    const uint64_t line = addr / kCachelineBytes * kCachelineBytes;
    if (l1_.access(line, write)) return;
    if (!l2_.access(line, /*write=*/false)) {
      ++llc_requests_;
      if (!llc_.access(line, /*write=*/false)) {
        ++llc_misses_;
        ++dram_reads_;
        to_dram(llc_.insert(line, /*dirty=*/false));
      }
      to_llc(l2_.insert(line, /*dirty=*/false));
    }
    const ReferenceCache::Victim v = l1_.insert(line, write);
    if (v.valid && v.dirty) to_llc(l2_.write_back(v.line));
  }

  void drain() {
    for (const auto& [line, dirty] : l1_.lines())
      if (dirty) to_dram(llc_.write_back(line));
    for (const auto& [line, dirty] : l2_.lines())
      if (dirty) to_dram(llc_.write_back(line));
    for (const auto& [line, dirty] : llc_.lines())
      if (dirty) ++dram_writes_;
  }

  const ReferenceCache& l1() const { return l1_; }
  const ReferenceCache& l2() const { return l2_; }
  uint64_t llc_requests() const { return llc_requests_; }
  uint64_t llc_misses() const { return llc_misses_; }
  uint64_t dram_reads() const { return dram_reads_; }
  uint64_t dram_writes() const { return dram_writes_; }

 private:
  /// An L2 victim: a dirty one is written back into the LLC.
  void to_llc(const ReferenceCache::Victim& v) {
    if (v.valid && v.dirty) to_dram(llc_.write_back(v.line));
  }
  /// An LLC victim: a dirty one is written to DRAM.
  void to_dram(const ReferenceCache::Victim& v) {
    if (v.valid && v.dirty) ++dram_writes_;
  }

  ReferenceCache l1_, l2_, llc_;
  uint64_t llc_requests_ = 0;
  uint64_t llc_misses_ = 0;
  uint64_t dram_reads_ = 0;
  uint64_t dram_writes_ = 0;
};

}  // namespace avr
