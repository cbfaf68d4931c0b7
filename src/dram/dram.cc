#include "dram/dram.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/types.hh"

namespace avr {

Dram::Dram(const DramConfig& cfg) : cfg_(cfg) {
  assert(std::has_single_bit(cfg.channels) && std::has_single_bit(cfg.banks_per_channel));
  assert(std::has_single_bit(cfg.row_bytes) && cfg.row_bytes >= kBlockBytes);
  assert(cfg.cpu_per_dram_cycle > 0);
  channel_shift_ = static_cast<uint32_t>(std::countr_zero(cfg.channels));
  bank_shift_ = static_cast<uint32_t>(std::countr_zero(cfg.banks_per_channel));
  block_shift_ = static_cast<uint32_t>(std::countr_zero(kBlockBytes));
  blocks_per_row_shift_ =
      static_cast<uint32_t>(std::countr_zero(cfg.row_bytes)) - block_shift_;
  channel_mask_ = cfg.channels - 1;
  bank_mask_ = cfg.banks_per_channel - 1;

  banks_.resize(uint64_t{cfg.channels} * cfg.banks_per_channel);
  bus_free_at_.resize(cfg.channels);
  t_cl_ = uint64_t{cfg.t_cl} * cfg.cpu_per_dram_cycle;
  t_rcd_ = uint64_t{cfg.t_rcd} * cfg.cpu_per_dram_cycle;
  t_rp_ = uint64_t{cfg.t_rp} * cfg.cpu_per_dram_cycle;
  t_burst_ = uint64_t{cfg.t_burst} * cfg.cpu_per_dram_cycle;
  // Transfer granularity is half a cacheline (32 B, DDR4 burst-chop), so the
  // Truncate baseline's 32 B line transfers occupy the bus for half the time.
  half_burst_ = std::max<uint64_t>(t_burst_ / 2, 1);
}

uint64_t Dram::access(uint64_t now, uint64_t addr, uint32_t bytes, bool is_write,
                      bool approx) {
  assert(bytes > 0);
  const uint32_t channel = channel_of(addr);
  uint64_t& bus_free_at = bus_free_at_[channel];
  Bank& bank = banks_[uint64_t{channel} * cfg_.banks_per_channel + bank_of(addr)];
  const uint64_t row = row_of(addr);

  uint64_t t = std::max<uint64_t>(now + cfg_.controller_latency, bank.ready_at);

  if (!bank.row_open) {
    t += t_rcd_;  // activate
    ++counters_.activations;
    bank.row_open = true;
    bank.open_row = row;
  } else if (bank.open_row != row) {
    t += t_rp_ + t_rcd_;  // precharge + activate
    ++counters_.activations;
    ++counters_.row_conflicts;
    bank.open_row = row;
  } else {
    ++counters_.row_hits;
  }

  // 32 B burst chops; see half_burst_ in the constructor.
  const uint32_t chops = static_cast<uint32_t>((bytes + 31) / 32);
  const uint64_t first_len = std::min<uint64_t>(chops, 2) * half_burst_;

  // Column access; data beats occupy the channel bus back to back.
  uint64_t bus_start = std::max(t + t_cl_, bus_free_at);
  const uint64_t first_done = bus_start + first_len;
  const uint64_t all_done = bus_start + uint64_t{chops} * half_burst_;

  bus_free_at = all_done;
  bank.ready_at = all_done;

  const uint64_t chop_bytes = uint64_t{chops} * 32;
  const uint64_t lat = first_done - now;
  if (is_write) {
    ++counters_.writes;
    counters_.bytes_written += chop_bytes;
    counters_.write_latency_total += lat;
  } else {
    ++counters_.reads;
    counters_.bytes_read += chop_bytes;
    counters_.read_latency_total += lat;
  }
  if (approx) counters_.approx_bytes += chop_bytes;
  return lat;
}

StatGroup Dram::stats() const {
  StatGroup g;
  g.add_nonzero("reads", counters_.reads);
  g.add_nonzero("writes", counters_.writes);
  g.add_nonzero("bytes_read", counters_.bytes_read);
  g.add_nonzero("bytes_written", counters_.bytes_written);
  g.add_nonzero("activations", counters_.activations);
  g.add_nonzero("row_hits", counters_.row_hits);
  g.add_nonzero("row_conflicts", counters_.row_conflicts);
  g.add_nonzero("read_latency_total", counters_.read_latency_total);
  g.add_nonzero("write_latency_total", counters_.write_latency_total);
  return g;
}

void Dram::add_traffic_split(StatGroup& g) const {
  g.add_nonzero("traffic_approx_bytes", approx_bytes());
  g.add_nonzero("traffic_other_bytes", other_bytes());
}

}  // namespace avr
