#include "cpu/hierarchy.hh"

#include <algorithm>

namespace avr {

MemoryHierarchy::MemoryHierarchy(const SimConfig& cfg, LlcSystem& llc,
                                 uint32_t num_cores, LlcRequestFn request_fn)
    : cfg_(cfg),
      llc_(llc),
      request_fn_(request_fn),
      lat_l1_(cfg.core.l1_latency),
      lat_l1l2_(uint64_t{cfg.core.l1_latency} + cfg.core.l2_latency) {
  for (uint32_t c = 0; c < num_cores; ++c) {
    l1_.push_back(std::make_unique<SetAssocCache>(cfg.l1.size_bytes, cfg.l1.ways));
    l2_.push_back(std::make_unique<SetAssocCache>(cfg.l2.size_bytes, cfg.l2.ways));
    L1Filter f;
    f.lines.assign(l1_.back()->num_sets(), kNoLine);
    f.dirty.assign(l1_.back()->num_sets(), 0);
    f.l1 = l1_.back().get();
    f.mask = l1_.back()->num_sets() - 1;
    filters_.push_back(std::move(f));
    l2_slots_.emplace_back(uint64_t{l1_.back()->num_sets()} * l1_.back()->ways());
  }
}

void MemoryHierarchy::flush_filters() const {
  for (L1Filter& f : filters_) {
    const uint64_t hits = f.pending + f.scanned;
    if (hits == 0) continue;
    f.l1->count_filtered_hits(f.pending);
    accesses_ += hits;
    latency_sum_ += hits * lat_l1_;
    f.pending = f.scanned = 0;
  }
}

AccessOutcome MemoryHierarchy::access(uint32_t core, uint64_t now, uint64_t addr,
                                      bool write) {
  const SetAssocCache::Slot s1 = filters_[core].scan(addr, write);
  if (!s1.hit) return l1_miss(core, now, addr, write, s1);
  return {lat_l1_, ServedBy::kL1};
}

void MemoryHierarchy::drain(uint64_t now) {
  flush_filters();
  for (L1Filter& f : filters_) {
    std::fill(f.lines.begin(), f.lines.end(), kNoLine);
    std::fill(f.dirty.begin(), f.dirty.end(), 0);
  }
  for (auto& l1 : l1_)
    for (const auto& [addr, dirty] : l1->valid_lines())
      if (dirty) llc_.writeback(now, addr);
  for (auto& l2 : l2_)
    for (const auto& [addr, dirty] : l2->valid_lines())
      if (dirty) llc_.writeback(now, addr);
  llc_.drain(now);
}

uint64_t MemoryHierarchy::l1_accesses() const {
  flush_filters();
  uint64_t n = 0;
  for (const auto& c : l1_) n += c->counters().accesses;
  return n;
}

uint64_t MemoryHierarchy::l2_accesses() const {
  uint64_t n = 0;
  for (const auto& c : l2_) n += c->counters().accesses;
  return n;
}

}  // namespace avr
