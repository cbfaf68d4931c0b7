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
  }
}

void MemoryHierarchy::flush_filters() const {
  for (L1Filter& f : filters_) {
    if (f.pending == 0) continue;
    f.l1->count_filtered_hits(f.pending);
    accesses_ += f.pending;
    latency_sum_ += f.pending * lat_l1_;
    f.pending = 0;
  }
}

void MemoryHierarchy::evict_from_l1(uint32_t core, uint64_t now, const Eviction& ev) {
  if (!ev.valid || !ev.dirty) return;
  // Dirty L1 victim lands in the L2 (write-back, allocate on writeback).
  const Eviction ev2 = l2_[core]->write_back(ev.addr);
  if (ev2.valid && ev2.dirty) llc_.writeback(now, ev2.addr);
}

AccessOutcome MemoryHierarchy::access(uint32_t core, uint64_t now, uint64_t addr,
                                      bool write) {
  addr = line_addr(addr);
  ++accesses_;
  AccessOutcome out;

  // One scan per level: a miss slot names the victim way the fill below
  // uses, and stays valid because nothing between lookup and fill touches
  // that cache (the L2 and LLC work never reaches the L1; the LLC request
  // never reaches the L2).
  SetAssocCache& l1 = *l1_[core];
  const SetAssocCache::Slot s1 = l1.lookup(addr, write);
  if (s1.hit) {
    arm_filter(core, addr, write);
    out.latency = lat_l1_;
    out.level = ServedBy::kL1;
    latency_sum_ += out.latency;
    return out;
  }

  SetAssocCache& l2 = *l2_[core];
  const SetAssocCache::Slot s2 = l2.lookup(addr, /*write=*/false);
  if (s2.hit) {
    out.latency = lat_l1l2_;
    out.level = ServedBy::kL2;
  } else {
    ++llc_requests_;
    const LlcReply reply = request_fn_(llc_, now, addr, /*write=*/false);
    if (reply.miss) {
      ++llc_misses_;
      out.level = ServedBy::kMemory;
    } else {
      out.level = ServedBy::kLlc;
    }
    out.latency = lat_l1l2_ + reply.latency;
    const Eviction ev2 = l2.fill(s2, addr, /*dirty=*/false);
    if (ev2.valid && ev2.dirty) llc_.writeback(now, ev2.addr);
  }

  // Fill L1 (write-allocate: the store dirties the L1 copy). The filled
  // line is the new MRU of its set, so it arms the filter slot — which also
  // retires any line the fill evicted from that set.
  const Eviction ev1 = l1.fill(s1, addr, write);
  arm_filter(core, addr, write);
  evict_from_l1(core, now, ev1);
  latency_sum_ += out.latency;
  return out;
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
