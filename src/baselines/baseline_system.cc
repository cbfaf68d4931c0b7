#include "baselines/baseline_system.hh"

#include <span>

#include "common/fp_bits.hh"

namespace avr {

uint64_t BaselineSystem::request(uint64_t now, uint64_t line, bool write) {
  line = line_addr(line);
  ++counters_.requests;
  last_was_miss_ = false;
  const SetAssocCache::Slot slot = llc_.lookup(line, write);
  if (slot.hit) return cfg_.llc.latency;

  last_was_miss_ = true;
  const bool approx = regions_.is_approx(line);
  const uint64_t lat = dram_.read(now, line, line_bytes(approx), approx);
  const Eviction ev = llc_.fill(slot, line, write);
  if (ev.valid && ev.dirty) write_line(now, ev.addr);
  return lat + cfg_.llc.latency;
}

void BaselineSystem::writeback(uint64_t now, uint64_t line) {
  const Eviction ev = llc_.write_back(line_addr(line));
  if (ev.valid && ev.dirty) write_line(now, ev.addr);
}

void BaselineSystem::drain(uint64_t now) {
  for (const auto& [addr, dirty] : llc_.valid_lines())
    if (dirty) write_line(now, addr);
}

void BaselineSystem::write_line(uint64_t now, uint64_t line) {
  const bool approx = regions_.is_approx(line);
  const uint32_t bytes = line_bytes(approx);
  if (bytes < kCachelineBytes) truncate_line(line);
  dram_.write(now, line, bytes, approx);
}

void BaselineSystem::truncate_line(uint64_t line) {
  // Resolve the backing line once: regions are block-aligned, so a line
  // never straddles two of them. The batch kernel then chops the line's 16
  // values in place (same SoA convention as the compressor pipeline stages).
  auto* vals = reinterpret_cast<float*>(regions_.host_ptr(line));
  f32_truncate_low_bits_batch(std::span<float>(vals, kValuesPerLine), cfg_.truncate_bits);
}

StatGroup BaselineSystem::stats() const {
  StatGroup g;
  g.add_nonzero("requests", counters_.requests);
  dram_.add_traffic_split(g);
  return g;
}

}  // namespace avr
