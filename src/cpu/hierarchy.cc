#include "cpu/hierarchy.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace avr {

MemoryHierarchy::MemoryHierarchy(const SimConfig& cfg, LlcSystem& llc,
                                 uint32_t num_cores, LlcRequestFn request_fn)
    : llc_(llc),
      request_fn_(request_fn),
      lat_l1_(cfg.core.l1_latency),
      lat_l1l2_(uint64_t{cfg.core.l1_latency} + cfg.core.l2_latency),
      l1_(cfg.l1.size_bytes, cfg.l1.ways),
      l2_(cfg.l2.size_bytes, cfg.l2.ways),
      l2_slots_(uint64_t{l1_.num_sets()} * l1_.ways()) {
  if (num_cores != 1)
    throw std::invalid_argument("MemoryHierarchy: num_cores must be 1, got " +
                                std::to_string(num_cores));
  filter_.lines.assign(l1_.num_sets(), kNoLine);
  filter_.dirty.assign(l1_.num_sets(), 0);
  filter_.l1 = &l1_;
  filter_.mask = l1_.num_sets() - 1;
}

void MemoryHierarchy::flush_filter() const {
  const uint64_t hits = filter_.pending + filter_.scanned;
  if (hits == 0) return;
  filter_.l1->count_filtered_hits(filter_.pending);
  accesses_ += hits;
  latency_sum_ += hits * lat_l1_;
  filter_.pending = filter_.scanned = 0;
}

void MemoryHierarchy::drain(uint64_t now) {
  flush_filter();
  std::fill(filter_.lines.begin(), filter_.lines.end(), kNoLine);
  std::fill(filter_.dirty.begin(), filter_.dirty.end(), 0);
  for (const auto& [addr, dirty] : l1_.valid_lines())
    if (dirty) llc_.writeback(now, addr);
  for (const auto& [addr, dirty] : l2_.valid_lines())
    if (dirty) llc_.writeback(now, addr);
  llc_.drain(now);
}

}  // namespace avr
