#include "cache/set_assoc_cache.hh"

#include <bit>
#include <cassert>

namespace avr {

SetAssocCache::SetAssocCache(uint64_t size_bytes, uint32_t ways, uint64_t line_bytes)
    : ways_(ways) {
  // validate_config (common/config_table.hh) judges configured geometries.
  assert(std::has_single_bit(line_bytes) && ways > 0 &&
         size_bytes % (ways * line_bytes) == 0 &&
         std::has_single_bit(size_bytes / (ways * line_bytes)) && "bad cache geometry");
  const uint64_t sets = size_bytes / (ways * line_bytes);
  sets_ = static_cast<uint32_t>(sets);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(line_bytes));
  tag_shift_ = line_shift_ + static_cast<uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  lines_.resize(uint64_t{sets_} * ways_);
}

Eviction SetAssocCache::write_back(uint64_t addr) {
  const Slot s = locate(addr);
  if (!s.hit) return fill(s, addr, /*dirty=*/true);
  touch(lines_[s.idx], /*write=*/true);
  return {};
}

bool SetAssocCache::mark_dirty(uint64_t addr) {
  const Slot s = locate(addr);
  if (s.hit) touch(lines_[s.idx], /*write=*/true);
  return s.hit;
}

std::vector<std::pair<uint64_t, bool>> SetAssocCache::valid_lines() const {
  std::vector<std::pair<uint64_t, bool>> out;
  for (uint64_t set = 0; set < sets_; ++set)
    for (uint32_t w = 0; w < ways_; ++w) {
      const Line& l = lines_[set * ways_ + w];
      if (l.valid())
        out.emplace_back((l.tag << tag_shift_) | (set << line_shift_), l.dirty);
    }
  return out;
}

}  // namespace avr
