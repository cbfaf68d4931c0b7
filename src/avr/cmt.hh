// Compression Metadata Table (Sec. 3.2, Fig. 3).
//
// Each 1 KB memory block owns a 23-bit metadata entry:
//   method (2b) | size (3b) | lazy count (4b) | bias (8b) |
//   failed count (4b) | skipped count (2b)
// Four entries per 4 KB page. The full table lives in main memory; a
// TLB-like on-chip cache (the CMT proper) is accessed in parallel with the
// LLC and refilled on TLB misses, costing a few bytes of metadata traffic.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "cache/set_assoc_cache.hh"
#include "common/types.hh"

namespace avr {

struct BlockMeta {
  Method method = Method::kUncompressed;
  uint8_t size_lines = 0;  // 1..8 when compressed, 0 otherwise
  uint8_t lazy_count = 0;  // lazily evicted uncompressed CLs in the block
  int8_t bias = 0;
  uint8_t failed = 0;   // consecutive failed compression attempts (sat. 15)
  uint8_t skipped = 0;  // attempts skipped since the last failure (sat. 3)

  bool compressed() const { return method != Method::kUncompressed; }
  /// Free cachelines available for lazy evictions (Sec. 3.1).
  uint32_t lazy_space() const {
    return compressed() ? kBlockLines - size_lines - lazy_count : 0;
  }
  /// One more failed compression attempt, saturating at the 4-bit field.
  void note_failure() {
    if (failed < kMaxFailedCount) ++failed;
  }

  /// Pack into the 23-bit hardware encoding (size stored as lines-1).
  uint32_t pack() const;
  static BlockMeta unpack(uint32_t bits);
  bool operator==(const BlockMeta&) const = default;
};

/// Plain-field counters: lookup() runs on every AVR request that reaches the
/// metadata layer, so no string-keyed maps here.
struct CmtCounters {
  uint64_t lookups = 0;
  uint64_t misses = 0;
  uint64_t metadata_bytes = 0;
};

class Cmt {
 public:
  /// `entries` on-chip cached pages; 4 block entries per page.
  explicit Cmt(uint32_t cached_pages = 1024);

  /// Metadata of the block containing `addr` (default entry if untouched).
  /// Models the on-chip lookup: counts a metadata-traffic miss when the
  /// page's entries are not cached.
  BlockMeta& lookup(uint64_t addr);
  /// Side-effect-free lookup: nullptr when the block was never touched.
  const BlockMeta* peek(uint64_t addr) const;

  /// Metadata DRAM traffic in bytes (reads + writes), charged per CMT miss.
  uint64_t metadata_traffic_bytes() const { return counters_.metadata_bytes; }
  const CmtCounters& counters() const { return counters_; }

 private:
  std::unordered_map<uint64_t, BlockMeta> table_;  // by block address
  SetAssocCache cache_;
  CmtCounters counters_;
};

}  // namespace avr
