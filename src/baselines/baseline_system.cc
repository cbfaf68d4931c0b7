#include "baselines/baseline_system.hh"

namespace avr {

uint64_t BaselineSystem::request(uint64_t now, uint64_t line, bool write) {
  line = line_addr(line);
  ++counters_.requests;
  last_was_miss_ = false;
  const SetAssocCache::Slot slot = llc_.lookup(line, write);
  if (slot.hit) return cfg_.llc.latency;

  last_was_miss_ = true;
  const uint64_t lat = dram_.read(now, line, kCachelineBytes);
  count_traffic(line, kCachelineBytes);
  const Eviction ev = llc_.fill(slot, line, write);
  if (ev.valid && ev.dirty) {
    dram_.write(now, ev.addr, kCachelineBytes);
    count_traffic(ev.addr, kCachelineBytes);
  }
  return lat + cfg_.llc.latency;
}

void BaselineSystem::writeback(uint64_t now, uint64_t line) {
  line = line_addr(line);
  const Eviction ev = llc_.write_back(line);
  if (ev.valid && ev.dirty) {
    dram_.write(now, ev.addr, kCachelineBytes);
    count_traffic(ev.addr, kCachelineBytes);
  }
}

StatGroup BaselineSystem::stats() const {
  StatGroup g("baseline_system");
  g.add_nonzero("requests", counters_.requests);
  g.add_nonzero("traffic_approx_bytes", counters_.traffic_approx_bytes);
  g.add_nonzero("traffic_other_bytes", counters_.traffic_other_bytes);
  return g;
}

void BaselineSystem::drain(uint64_t now) {
  for (const auto& [addr, dirty] : llc_.valid_lines())
    if (dirty) {
      dram_.write(now, addr, kCachelineBytes);
      count_traffic(addr, kCachelineBytes);
    }
}

}  // namespace avr
