// ReferenceDoppelganger: the Doppelganger LLC as it stood before its miss
// path moved onto flat tables (an open-addressing key table, per-region span
// slots and intrusive sharer lists), kept verbatim as the test-only
// reference the fast DoppelgangerSystem is checked against
// (tests/test_doppelganger_reference.cc). Node-based maps, a sharer vector
// per data entry, a tag-set scan per evicted sharer and a registry lookup
// per DRAM operation: slow, and obviously what the model means. Do not
// optimize it; change it only together with the model itself.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "baselines/doppelganger_system.hh"
#include "common/config.hh"
#include "mem/llc_system.hh"
#include "runtime/region.hh"

namespace avr {

class ReferenceDoppelganger final : public LlcSystem {
 public:
  ReferenceDoppelganger(const SimConfig& cfg, RegionRegistry& regions);

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

inline ReferenceDoppelganger::ReferenceDoppelganger(const SimConfig& cfg,
                                                    RegionRegistry& regions)
    : cfg_(cfg), regions_(regions), dram_(cfg.dram) {
  const uint64_t data_entries = cfg.llc.size_bytes / kCachelineBytes;
  const uint64_t tag_entries = data_entries * cfg.dg_tag_factor;
  tag_ways_ = cfg.llc.ways;
  const uint64_t sets = tag_entries / tag_ways_;
  // validate_config: power-of-two LLC sets and dg_tag_factor make it a
  // power of two, and it is at most 2^31.
  assert(std::has_single_bit(sets) && sets <= uint64_t{1} << 31);
  tag_sets_ = static_cast<uint32_t>(sets);
  tags_.resize(tag_entries);
  data_.resize(data_entries);
  free_data_.reserve(data_entries);
  for (uint32_t i = 0; i < data_entries; ++i)
    free_data_.push_back(static_cast<uint32_t>(data_entries - 1 - i));
}

inline ReferenceDoppelganger::TagEntry* ReferenceDoppelganger::find_tag(uint64_t line) {
  TagEntry* base = &tags_[tag_set_of(line) * tag_ways_];
  for (uint32_t w = 0; w < tag_ways_; ++w)
    if (base[w].valid && base[w].line == line) return &base[w];
  return nullptr;
}

inline uint64_t ReferenceDoppelganger::map_key(const MemoryRegion& r,
                                               const std::byte* host) {
  assert(r.approx);
  const auto value = [host](uint32_t i) {
    float v;
    std::memcpy(&v, host + i * sizeof(float), sizeof(float));
    return v;
  };
  float lo = 0, hi = 0, sum = 0;
  for (uint32_t i = 0; i < kValuesPerLine; ++i) {
    const float v = value(i);
    const float f = std::isfinite(v) ? v : 0.0f;
    if (i == 0) lo = hi = f;
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    sum += f;
  }
  const float avg = sum / kValuesPerLine;

  Span& span = spans_[r.base];
  if (!span.init) {
    span = {lo, hi, true};
  } else {
    span.lo = std::min(span.lo, lo);
    span.hi = std::max(span.hi, hi);
  }
  const double width = std::max<double>(span.hi - span.lo, 1e-12);
  const auto clampq = [](double q, uint32_t buckets) {
    return static_cast<uint64_t>(
        std::clamp<double>(q, 0.0, static_cast<double>(buckets - 1)));
  };
  const uint64_t q_avg =
      clampq(std::floor((avg - span.lo) / width * cfg_.dg_avg_buckets),
             cfg_.dg_avg_buckets);
  const uint64_t q_rng =
      clampq(std::floor((hi - lo) / width * cfg_.dg_range_buckets),
             cfg_.dg_range_buckets);
  // Per-value 2-bit shape signature (each value quantized within the line's
  // own [lo, hi] span): two lines dedup only when their internal shapes
  // agree, not merely their average. Lines at the extremes of the region
  // span still alias (q_avg saturates at the edge buckets), which is the
  // edge-case artefact the paper observes.
  uint64_t shape = 0;
  const float lw = std::max(hi - lo, 1e-12f);
  for (uint32_t i = 0; i < kValuesPerLine; ++i) {
    const float v = value(i);
    const float f = std::isfinite(v) ? v : 0.0f;
    const uint32_t q = static_cast<uint32_t>(
        std::clamp((f - lo) / lw * 4.0f, 0.0f, 3.0f));
    shape = (shape << 2) | q;
  }
  // Edge-case artefact (called out in Sec. 4.3): lines sitting at the
  // extreme edges of the region's expected value span saturate the average
  // quantizer, so their shape no longer disambiguates them — lines with very
  // different contents alias onto one map entry. This is what produces
  // Doppelganger's runaway error on orbit-like data.
  if (q_avg == 0 || q_avg == cfg_.dg_avg_buckets - 1) shape = 0;
  // Keys are namespaced by region so unrelated structures never collide.
  const uint64_t quant = (q_avg << 8) | q_rng;
  return (r.base << 20) ^ (quant << 32) ^ shape;
}

inline void ReferenceDoppelganger::lru_unlink(uint32_t idx) {
  DataEntry& d = data_[idx];
  (d.prev == kNil ? lru_head_ : data_[d.prev].next) = d.next;
  (d.next == kNil ? lru_tail_ : data_[d.next].prev) = d.prev;
  d.prev = d.next = kNil;
}

inline void ReferenceDoppelganger::lru_touch(uint32_t idx) {
  if (idx == lru_tail_) return;
  DataEntry& d = data_[idx];
  if (d.prev != kNil || idx == lru_head_) lru_unlink(idx);
  d.prev = lru_tail_;
  (lru_tail_ == kNil ? lru_head_ : data_[lru_tail_].next) = idx;
  lru_tail_ = idx;
}

inline uint32_t ReferenceDoppelganger::alloc_data_entry(uint64_t now, uint64_t key) {
  // Evict the LRU data entry (and every tag that shares it).
  if (free_data_.empty()) {
    assert(lru_head_ != kNil);
    evict_data_entry(now, lru_head_);
  }
  const uint32_t idx = free_data_.back();
  free_data_.pop_back();
  DataEntry& d = data_[idx];
  d.valid = true;
  d.key = key;
  d.sharers.clear();
  lru_touch(idx);
  if (key) by_key_[key] = idx;
  return idx;
}

inline void ReferenceDoppelganger::evict_data_entry(uint64_t now, uint32_t idx) {
  DataEntry& d = data_[idx];
  // Invalidate all sharers; dirty ones write back their (representative)
  // contents.
  for (uint64_t line : d.sharers) {
    TagEntry* t = find_tag(line);
    if (!t) continue;
    if (t->dirty) dram_.write(now, line, kCachelineBytes, regions_.is_approx(line));
    t->valid = false;
  }
  by_key_.erase(d.key);
  d.valid = false;
  d.sharers.clear();
  lru_unlink(idx);
  free_data_.push_back(idx);
  ++counters_.data_evictions;
}

inline void ReferenceDoppelganger::detach_tag(uint64_t now, TagEntry& t,
                                              bool write_back) {
  DataEntry& d = data_[t.data_idx];
  auto it = std::find(d.sharers.begin(), d.sharers.end(), t.line);
  if (it != d.sharers.end()) d.sharers.erase(it);
  if (t.dirty && write_back)
    dram_.write(now, t.line, kCachelineBytes, regions_.is_approx(t.line));
  if (d.sharers.empty() && d.valid) {
    by_key_.erase(d.key);
    d.valid = false;
    lru_unlink(t.data_idx);
    free_data_.push_back(t.data_idx);
  }
  t.valid = false;
}

inline void ReferenceDoppelganger::hit_tag(uint64_t now, TagEntry& t, bool write) {
  t.lru = ++lru_clock_;
  if (!write) return;
  const uint64_t line = t.line;
  uint32_t idx = t.data_idx;
  DataEntry& d = data_[idx];
  if (d.sharers.size() > 1) {
    // A written line diverges from its doppelganger: give it a private entry.
    auto it = std::find(d.sharers.begin(), d.sharers.end(), line);
    if (it != d.sharers.end()) d.sharers.erase(it);
    idx = alloc_data_entry(now, 0);
    std::memcpy(data_[idx].repr.data(), regions_.host_ptr(line), kCachelineBytes);
    data_[idx].sharers.push_back(line);
    ++counters_.unshares;
  }
  // alloc_data_entry may have evicted tags; re-find ours.
  if (TagEntry* mine = find_tag(line)) {
    mine->data_idx = idx;
    mine->dirty = true;
  }
}

inline ReferenceDoppelganger::TagEntry& ReferenceDoppelganger::take_tag_way(
    uint64_t now, uint64_t line) {
  TagEntry* base = &tags_[tag_set_of(line) * tag_ways_];
  TagEntry* victim = nullptr;
  for (uint32_t w = 0; w < tag_ways_; ++w) {
    if (!base[w].valid) return base[w];
    if (!victim || base[w].lru < victim->lru) victim = &base[w];
  }
  detach_tag(now, *victim, /*write_back=*/true);
  ++counters_.tag_evictions;
  return *victim;
}

inline bool ReferenceDoppelganger::install(uint64_t now, uint64_t line, bool dirty) {
  // Tag allocation first (LRU within the 4x tag array set).
  take_tag_way(now, line);

  // One registry lookup per install: the key, the dedup copy and the fill
  // copy all go through the line's resolved host bytes.
  const MemoryRegion* r = regions_.find(line);
  if (!r) throw std::out_of_range("unmapped simulated address");
  std::byte* host = r->host.get() + (line - r->base);
  bool deduped = false;
  uint32_t idx;
  if (r->approx) {
    const uint64_t key = map_key(*r, host);
    auto it = by_key_.find(key);
    if (it != by_key_.end() && data_[it->second].valid) {
      idx = it->second;
      // The line adopts the representative's values: this is the
      // approximation. Copy them into the backing store so the application
      // observes them on every future read.
      std::memcpy(host, data_[idx].repr.data(), kCachelineBytes);
      deduped = true;
      ++counters_.dedup_hits;
    } else {
      idx = alloc_data_entry(now, key);
      std::memcpy(data_[idx].repr.data(), host, kCachelineBytes);
    }
  } else {
    idx = alloc_data_entry(now, 0);
    std::memcpy(data_[idx].repr.data(), host, kCachelineBytes);
  }
  data_[idx].sharers.push_back(line);
  lru_touch(idx);

  // alloc/evict may have recycled our victim slot; find a free way again.
  TagEntry& t = take_tag_way(now, line);
  t.valid = true;
  t.dirty = dirty;
  t.line = line;
  t.data_idx = idx;
  t.lru = ++lru_clock_;
  return deduped;
}

inline uint64_t ReferenceDoppelganger::request(uint64_t now, uint64_t line, bool write) {
  line = line_addr(line);
  ++counters_.requests;
  last_was_miss_ = false;
  if (TagEntry* t = find_tag(line)) {
    lru_touch(t->data_idx);
    hit_tag(now, *t, write);
    ++counters_.hits;
    return cfg_.llc.latency;
  }
  last_was_miss_ = true;
  const uint64_t lat = dram_.read(now, line, kCachelineBytes, regions_.is_approx(line));
  install(now, line, write);
  return lat + cfg_.llc.latency;
}

inline void ReferenceDoppelganger::writeback(uint64_t now, uint64_t line) {
  line = line_addr(line);
  if (TagEntry* t = find_tag(line)) {
    hit_tag(now, *t, /*write=*/true);
    return;
  }
  install(now, line, /*dirty=*/true);
}

inline void ReferenceDoppelganger::drain(uint64_t now) {
  for (TagEntry& t : tags_) {
    if (!t.valid || !t.dirty) continue;
    dram_.write(now, t.line, kCachelineBytes, regions_.is_approx(t.line));
    t.dirty = false;
  }
}

inline StatGroup ReferenceDoppelganger::stats() const {
  StatGroup g;
  g.add_nonzero("requests", counters_.requests);
  g.add_nonzero("hits", counters_.hits);
  g.add_nonzero("dedup_hits", counters_.dedup_hits);
  g.add_nonzero("unshares", counters_.unshares);
  g.add_nonzero("data_evictions", counters_.data_evictions);
  dram_.add_traffic_split(g);
  return g;
}

inline double ReferenceDoppelganger::dedup_factor() const {
  uint64_t tags = 0, entries = 0;
  for (const TagEntry& t : tags_) tags += t.valid;
  for (const DataEntry& d : data_) entries += d.valid;
  return entries ? static_cast<double>(tags) / static_cast<double>(entries) : 1.0;
}

}  // namespace avr
