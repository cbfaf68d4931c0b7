#include "baselines/truncate_system.hh"

#include <span>

namespace avr {

void TruncateSystem::truncate_line(uint64_t line) {
  // Resolve the backing line once: regions are block-aligned, so a line
  // never straddles two of them. The batch kernel then chops the line's 16
  // values in place (same SoA convention as the compressor pipeline stages).
  auto* vals = reinterpret_cast<float*>(regions_.host_ptr(line_addr(line)));
  f32_truncate_low_bits_batch(std::span<float>(vals, kValuesPerLine), cfg_.truncate_bits);
}

uint64_t TruncateSystem::request(uint64_t now, uint64_t line, bool write) {
  line = line_addr(line);
  ++counters_.requests;
  last_was_miss_ = false;
  const SetAssocCache::Slot slot = llc_.lookup(line, write);
  if (slot.hit) return cfg_.llc.latency;

  last_was_miss_ = true;
  const uint32_t bytes = line_bytes(line);
  const uint64_t lat = dram_.read(now, line, bytes);
  count_traffic(line, bytes);
  const Eviction ev = llc_.fill(slot, line, write);
  if (ev.valid && ev.dirty) {
    const uint32_t eb = line_bytes(ev.addr);
    if (regions_.is_approx(ev.addr)) truncate_line(ev.addr);
    dram_.write(now, ev.addr, eb);
    count_traffic(ev.addr, eb);
  }
  return lat + cfg_.llc.latency;
}

void TruncateSystem::writeback(uint64_t now, uint64_t line) {
  line = line_addr(line);
  const Eviction ev = llc_.write_back(line);
  if (ev.valid && ev.dirty) {
    const uint32_t eb = line_bytes(ev.addr);
    if (regions_.is_approx(ev.addr)) truncate_line(ev.addr);
    dram_.write(now, ev.addr, eb);
    count_traffic(ev.addr, eb);
  }
}

void TruncateSystem::drain(uint64_t now) {
  for (const auto& [addr, dirty] : llc_.valid_lines())
    if (dirty) {
      const uint32_t eb = line_bytes(addr);
      if (regions_.is_approx(addr)) truncate_line(addr);
      dram_.write(now, addr, eb);
      count_traffic(addr, eb);
    }
}

}  // namespace avr
