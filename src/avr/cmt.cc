#include "avr/cmt.hh"

namespace avr {

uint32_t BlockMeta::pack() const {
  const uint32_t size_field = size_lines == 0 ? 0 : (size_lines - 1) & 0x7;
  return (static_cast<uint32_t>(method) & 0x3) | (size_field << 2) |
         ((lazy_count & 0xF) << 5) |
         ((static_cast<uint32_t>(static_cast<uint8_t>(bias))) << 9) |
         ((failed & kMaxFailedCount) << 17) | ((skipped & kMaxSkippedCount) << 21);
}

BlockMeta BlockMeta::unpack(uint32_t bits) {
  BlockMeta m;
  m.method = static_cast<Method>(bits & 0x3);
  const uint32_t size_field = (bits >> 2) & 0x7;
  m.size_lines = m.method == Method::kUncompressed ? 0 : size_field + 1;
  m.lazy_count = (bits >> 5) & 0xF;
  m.bias = static_cast<int8_t>((bits >> 9) & 0xFF);
  m.failed = (bits >> 17) & kMaxFailedCount;
  m.skipped = (bits >> 21) & kMaxSkippedCount;
  return m;
}

Cmt::Cmt(uint32_t cached_pages)
    : cache_(uint64_t{cached_pages} * kPageBytes, 4, kPageBytes) {}

BlockMeta& Cmt::lookup(uint64_t addr) {
  const uint64_t page = page_addr(addr);
  ++counters_.lookups;
  // Any lookup may update the entry, so it marks the cached page dirty.
  // This is conservative (extra writeback traffic is a few bytes per miss).
  const SetAssocCache::Slot slot = cache_.lookup(page, /*write=*/true);
  if (!slot.hit) {
    // TLB/CMT miss: fetch the page's 4 entries (4 x 23 bits ~ 12 B) and
    // write back the victim's entries if dirty. We charge 12 B each way.
    const Eviction ev = cache_.fill(slot, page, /*dirty=*/true);
    ++counters_.misses;
    counters_.metadata_bytes += 12;
    if (ev.valid && ev.dirty) counters_.metadata_bytes += 12;
  }
  return table_[block_addr(addr)];
}

const BlockMeta* Cmt::peek(uint64_t addr) const {
  auto it = table_.find(block_addr(addr));
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace avr
