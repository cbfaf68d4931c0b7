#include "baselines/doppelganger_system.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace avr {

DoppelgangerSystem::DoppelgangerSystem(const SimConfig& cfg, RegionRegistry& regions)
    : cfg_(cfg), regions_(regions), dram_(cfg.dram) {
  const uint64_t data_entries = cfg.llc.size_bytes / kCachelineBytes;
  const uint64_t tag_entries = data_entries * cfg.dg_tag_factor;
  tag_ways_ = cfg.llc.ways;
  const uint64_t sets = tag_entries / tag_ways_;
  // validate_config: power-of-two LLC sets and dg_tag_factor make it a
  // power of two, and it is at most 2^31.
  assert(std::has_single_bit(sets) && sets <= uint64_t{1} << 31);
  assert(tag_entries < kNil);
  tag_sets_ = static_cast<uint32_t>(sets);
  tag_line_.assign(tag_entries, kNoLine);
  tag_lru_.resize(tag_entries);
  tags_.resize(tag_entries);
  data_.resize(data_entries);
  repr_.resize(data_entries);
  // At most one key per data entry, so the table stays at most a quarter
  // full: it never grows and its probe runs stay short.
  keys_.resize(std::bit_ceil(4 * data_entries));
  assert(keys_.size() <= uint64_t{1} << 32);
  key_shift_ = 32 - static_cast<uint32_t>(std::countr_zero(keys_.size()));
  free_data_.reserve(data_entries);
  for (uint32_t i = 0; i < data_entries; ++i)
    free_data_.push_back(static_cast<uint32_t>(data_entries - 1 - i));
}

uint32_t DoppelgangerSystem::find_tag(uint64_t line) const {
  const uint32_t base = static_cast<uint32_t>(tag_set_of(line)) * tag_ways_;
  for (uint32_t ti = base; ti < base + tag_ways_; ++ti)
    if (tag_line_[ti] == line) return ti;
  return kNil;
}

// ---- key table ------------------------------------------------------------

uint32_t DoppelgangerSystem::key_find(uint64_t key) const {
  const uint32_t hash = key_hash(key);
  const size_t mask = keys_.size() - 1;
  for (size_t i = key_home(hash);; i = (i + 1) & mask) {
    const KeySlot& slot = keys_[i];
    if (slot.idx == kNil) return kNil;
    if (slot.hash == hash && data_[slot.idx].key == key) return slot.idx;
  }
}

void DoppelgangerSystem::key_insert(uint32_t idx) {
  assert(key_find(data_[idx].key) == kNil);
  const uint32_t hash = key_hash(data_[idx].key);
  const size_t mask = keys_.size() - 1;
  size_t i = key_home(hash);
  while (keys_[i].idx != kNil) i = (i + 1) & mask;
  keys_[i] = {hash, idx};
}

void DoppelgangerSystem::key_erase(uint32_t idx) {
  const size_t mask = keys_.size() - 1;
  size_t hole = key_home(key_hash(data_[idx].key));
  while (keys_[hole].idx != idx) {
    assert(keys_[hole].idx != kNil && "erasing an absent key");
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later slot of the probe run into the
  // hole unless the hole lies before its home, so no tombstones build up.
  for (size_t j = (hole + 1) & mask; keys_[j].idx != kNil; j = (j + 1) & mask) {
    const size_t home = key_home(keys_[j].hash);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      keys_[hole] = keys_[j];
      hole = j;
    }
  }
  keys_[hole].idx = kNil;
}

// ---- map key ----------------------------------------------------------------

DoppelgangerSystem::Span& DoppelgangerSystem::span_of(const MemoryRegion& r) {
  const size_t i = regions_.ordinal(r);
  if (i >= spans_.size()) spans_.resize(i + 1);
  return spans_[i];
}

namespace {

/// floor(x) clamped to bucket [0, n - 1], branch-free and without a libm
/// call: once clamped to [0, n - 1], truncation is floor. A NaN, which only
/// a region span wider than FLT_MAX produces, lands in bucket 0.
uint64_t bucket(double x, uint32_t n) {
  const double clamped = std::min(x > 0.0 ? x : 0.0, static_cast<double>(n - 1));
  return static_cast<uint64_t>(static_cast<int64_t>(clamped));
}

}  // namespace

uint64_t DoppelgangerSystem::map_key(Span& span, uint64_t base,
                                     const std::byte* host) const {
  // One read of the line; non-finite values count as 0 throughout.
  float v[kValuesPerLine];
  std::memcpy(v, host, sizeof(v));
  for (float& f : v) f = std::isfinite(f) ? f : 0.0f;
  // lo and hi over four interleaved lanes, which vectorize: min and max are
  // exact, and which of two equal zeros survives moves no bucket below.
  float lo4[4], hi4[4];
  for (uint32_t j = 0; j < 4; ++j) lo4[j] = hi4[j] = v[j];
  for (uint32_t i = 4; i < kValuesPerLine; i += 4)
    for (uint32_t j = 0; j < 4; ++j) {
      lo4[j] = std::min(lo4[j], v[i + j]);
      hi4[j] = std::max(hi4[j], v[i + j]);
    }
  const float lo = std::min(std::min(lo4[0], lo4[1]), std::min(lo4[2], lo4[3]));
  const float hi = std::max(std::max(hi4[0], hi4[1]), std::max(hi4[2], hi4[3]));
  // The sum keeps the line's order: float addition does not reassociate.
  float sum = 0;
  for (const float f : v) sum += f;
  const float avg = sum / kValuesPerLine;

  if (!span.init) {
    span = {lo, hi, true};
  } else {
    span.lo = std::min(span.lo, lo);
    span.hi = std::max(span.hi, hi);
  }
  const double width = std::max<double>(span.hi - span.lo, 1e-12);
  const uint64_t q_avg =
      bucket((avg - span.lo) / width * cfg_.dg_avg_buckets, cfg_.dg_avg_buckets);
  const uint64_t q_rng =
      bucket((hi - lo) / width * cfg_.dg_range_buckets, cfg_.dg_range_buckets);
  // Per-value 2-bit shape signature (each value quantized within the line's
  // own [lo, hi] span): two lines dedup only when their internal shapes
  // agree, not merely their average. Lines at the extremes of the region
  // span still alias (q_avg saturates at the edge buckets), which is the
  // edge-case artefact the paper observes.
  const float lw = std::max(hi - lo, 1e-12f);
  int32_t q[kValuesPerLine];
  for (uint32_t i = 0; i < kValuesPerLine; ++i) {
    // Clamped to [0, 3]; a NaN, which only a line span wider than FLT_MAX
    // produces, quantizes to 0.
    const float s = (v[i] - lo) / lw * 4.0f;
    q[i] = static_cast<int32_t>(std::min(s > 0.0f ? s : 0.0f, 3.0f));
  }
  uint64_t shape = 0;
  for (uint32_t i = 0; i < kValuesPerLine; ++i)
    shape = (shape << 2) | static_cast<uint64_t>(q[i]);
  // Edge-case artefact (called out in Sec. 4.3): lines sitting at the
  // extreme edges of the region's expected value span saturate the average
  // quantizer, so their shape no longer disambiguates them — lines with very
  // different contents alias onto one map entry. This is what produces
  // Doppelganger's runaway error on orbit-like data.
  if (q_avg == 0 || q_avg == cfg_.dg_avg_buckets - 1) shape = 0;
  // Keys are namespaced by region so unrelated structures never collide.
  const uint64_t quant = (q_avg << 8) | q_rng;
  return (base << 20) ^ (quant << 32) ^ shape;
}

// ---- data array ---------------------------------------------------------------

void DoppelgangerSystem::lru_unlink(uint32_t idx) {
  DataEntry& d = data_[idx];
  (d.prev == kNil ? lru_head_ : data_[d.prev].next) = d.next;
  (d.next == kNil ? lru_tail_ : data_[d.next].prev) = d.prev;
  d.prev = d.next = kNil;
}

void DoppelgangerSystem::lru_touch(uint32_t idx) {
  if (idx == lru_tail_) return;
  DataEntry& d = data_[idx];
  if (d.prev != kNil || idx == lru_head_) lru_unlink(idx);
  d.prev = lru_tail_;
  (lru_tail_ == kNil ? lru_head_ : data_[lru_tail_].next) = idx;
  lru_tail_ = idx;
}

void DoppelgangerSystem::share(uint32_t idx, uint32_t ti) {
  DataEntry& d = data_[idx];
  TagEntry& t = tags_[ti];
  t.prev = d.last;
  t.next = kNil;
  (d.last == kNil ? d.first : tags_[d.last].next) = ti;
  d.last = ti;
}

void DoppelgangerSystem::unshare(uint32_t ti) {
  const TagEntry& t = tags_[ti];
  DataEntry& d = data_[t.data_idx];
  (t.prev == kNil ? d.first : tags_[t.prev].next) = t.next;
  (t.next == kNil ? d.last : tags_[t.next].prev) = t.prev;
}

uint32_t DoppelgangerSystem::alloc_data_entry(uint64_t now, uint64_t key) {
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
  d.first = d.last = kNil;
  lru_touch(idx);
  if (key) key_insert(idx);
  return idx;
}

void DoppelgangerSystem::free_data_entry(uint32_t idx) {
  DataEntry& d = data_[idx];
  if (d.key) key_erase(idx);
  d.valid = false;
  lru_unlink(idx);
  free_data_.push_back(idx);
}

void DoppelgangerSystem::evict_data_entry(uint64_t now, uint32_t idx) {
  // Invalidate all sharers, in the order they joined; dirty ones write back
  // their (representative) contents.
  for (uint32_t ti = data_[idx].first; ti != kNil; ti = tags_[ti].next) {
    drop_tag(now, ti);
    // A way of the set an install is placing into just came free: the line
    // takes the set's first free way (docs/ARCHITECTURE.md says why).
    if (ti >= place_set_ && ti < place_) place_ = ti;
  }
  free_data_entry(idx);
  ++counters_.data_evictions;
}

// ---- tag array ------------------------------------------------------------------

void DoppelgangerSystem::drop_tag(uint64_t now, uint32_t ti) {
  const TagEntry& t = tags_[ti];
  if (t.dirty) dram_.write(now, tag_line_[ti], kCachelineBytes, t.approx);
  tag_line_[ti] = kNoLine;
}

void DoppelgangerSystem::detach_tag(uint64_t now, uint32_t ti) {
  const uint32_t idx = tags_[ti].data_idx;
  assert(data_[idx].valid);
  unshare(ti);
  drop_tag(now, ti);
  if (data_[idx].first == kNil) free_data_entry(idx);
}

void DoppelgangerSystem::hit_tag(uint64_t now, uint32_t ti, bool write) {
  tag_lru_[ti] = ++lru_clock_;
  if (!write) return;
  TagEntry& t = tags_[ti];
  const DataEntry& d = data_[t.data_idx];
  if (d.first != d.last) {
    // A written line diverges from its doppelganger: give it a private
    // entry. Off the shared entry's list first, the tag survives the
    // eviction alloc_data_entry may make (even of that very entry).
    unshare(ti);
    const uint32_t idx = alloc_data_entry(now, 0);
    std::memcpy(repr_[idx].data(), regions_.host_ptr(tag_line_[ti]), kCachelineBytes);
    share(idx, ti);
    t.data_idx = idx;
    ++counters_.unshares;
  }
  t.dirty = true;
}

uint32_t DoppelgangerSystem::take_tag_way(uint64_t now, uint64_t line) {
  const uint32_t base = static_cast<uint32_t>(tag_set_of(line)) * tag_ways_;
  for (uint32_t ti = base; ti < base + tag_ways_; ++ti)
    if (tag_line_[ti] == kNoLine) return ti;
  uint32_t victim = base;
  for (uint32_t ti = base + 1; ti < base + tag_ways_; ++ti)
    if (tag_lru_[ti] < tag_lru_[victim]) victim = ti;
  detach_tag(now, victim);
  ++counters_.tag_evictions;
  return victim;
}

void DoppelgangerSystem::install(uint64_t now, uint64_t line, const MemoryRegion* r,
                                 bool dirty) {
  // Tag allocation first (LRU within the 4x tag array set). The data-entry
  // allocation below can only free more ways; evict_data_entry moves the
  // pick to the set's first free one.
  place_ = take_tag_way(now, line);
  place_set_ = static_cast<uint32_t>(tag_set_of(line)) * tag_ways_;
  if (!r) throw std::out_of_range("unmapped simulated address");

  // The key, the dedup copy and the fill copy all go through the line's
  // resolved host bytes.
  std::byte* host = r->host.get() + (line - r->base);
  uint32_t idx;
  if (r->approx) {
    const uint64_t key = map_key(span_of(*r), r->base, host);
    idx = key_find(key);
    if (idx != kNil) {
      assert(data_[idx].valid);
      // The line adopts the representative's values: this is the
      // approximation. Copy them into the backing store so the application
      // observes them on every future read.
      std::memcpy(host, repr_[idx].data(), kCachelineBytes);
      ++counters_.dedup_hits;
    } else {
      idx = alloc_data_entry(now, key);
      std::memcpy(repr_[idx].data(), host, kCachelineBytes);
    }
  } else {
    idx = alloc_data_entry(now, 0);
    std::memcpy(repr_[idx].data(), host, kCachelineBytes);
  }
  const uint32_t ti = place_;
  place_ = place_set_ = kNil;
  share(idx, ti);
  lru_touch(idx);

  tag_line_[ti] = line;
  tag_lru_[ti] = ++lru_clock_;
  TagEntry& t = tags_[ti];
  t.dirty = dirty;
  t.approx = r->approx;
  t.data_idx = idx;
}

uint64_t DoppelgangerSystem::request(uint64_t now, uint64_t line, bool write) {
  line = line_addr(line);
  ++counters_.requests;
  last_was_miss_ = false;
  if (const uint32_t ti = find_tag(line); ti != kNil) {
    lru_touch(tags_[ti].data_idx);
    hit_tag(now, ti, write);
    ++counters_.hits;
    return cfg_.llc.latency;
  }
  last_was_miss_ = true;
  const MemoryRegion* r = regions_.find(line);
  // install reads the line's bytes after the DRAM model and the tag victim:
  // start fetching them now.
  if (r) __builtin_prefetch(r->host.get() + (line - r->base));
  const uint64_t lat = dram_.read(now, line, kCachelineBytes, r && r->approx);
  install(now, line, r, write);
  return lat + cfg_.llc.latency;
}

void DoppelgangerSystem::writeback(uint64_t now, uint64_t line) {
  line = line_addr(line);
  if (const uint32_t ti = find_tag(line); ti != kNil) {
    hit_tag(now, ti, /*write=*/true);
    return;
  }
  install(now, line, regions_.find(line), /*dirty=*/true);
}

void DoppelgangerSystem::drain(uint64_t now) {
  for (uint32_t ti = 0; ti < tags_.size(); ++ti) {
    TagEntry& t = tags_[ti];
    if (tag_line_[ti] == kNoLine || !t.dirty) continue;
    dram_.write(now, tag_line_[ti], kCachelineBytes, t.approx);
    t.dirty = false;
  }
}

StatGroup DoppelgangerSystem::stats() const {
  StatGroup g;
  g.add_nonzero("requests", counters_.requests);
  g.add_nonzero("hits", counters_.hits);
  g.add_nonzero("dedup_hits", counters_.dedup_hits);
  g.add_nonzero("unshares", counters_.unshares);
  g.add_nonzero("data_evictions", counters_.data_evictions);
  dram_.add_traffic_split(g);
  return g;
}

double DoppelgangerSystem::dedup_factor() const {
  uint64_t tags = 0, entries = 0;
  for (const uint64_t line : tag_line_) tags += line != kNoLine;
  for (const DataEntry& d : data_) entries += d.valid;
  return entries ? static_cast<double>(tags) / static_cast<double>(entries) : 1.0;
}

}  // namespace avr
