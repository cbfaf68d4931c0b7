// The AVR Last Level Cache (Sec. 3.4, Fig. 6).
//
// A decoupled sectored cache: the tag array tracks memory *blocks*
// (16-cacheline granularity) while the back-pointer array (BPA) + data
// array track individual 64 B entries, each of which is either an
// uncompressed cacheline (UCL) or one compressed memory sub-block (CMS).
//
// Indexing (address = | block tag m | tag index n | CL offset 4 | byte 6 |):
//   * tag array set        = tag index            (block granularity)
//   * UCL set              = (addr >> 6) mod sets (conventional indexing)
//   * CMS #i of a block    = set (tag index + i) mod sets
// so a block's UCLs and its CMSs never contend for the same associativity.
//
// This class owns the arrays and the replacement machinery; the eviction
// *flows* (Fig. 8) are driven by AvrSystem, which receives every victim this
// cache produces and decides recompression / lazy writeback / etc.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace avr {

/// A victim pushed out of the LLC. For a UCL, `addr` is the cacheline
/// address. For a CMS victim the *whole block* leaves the cache (partial
/// compressed blocks are useless, Sec. 3.5) and `addr` is the block address.
struct LlcVictim {
  enum Kind { kUcl, kCmsBlock } kind = kUcl;
  uint64_t addr = 0;
  bool dirty = false;
};

/// Plain-field counters, bumped on every UCL/CMS operation: ucl_access sits
/// behind every LLC request the interval core issues, so no string-keyed
/// maps here (same convention as CacheCounters).
struct AvrLlcCounters {
  uint64_t ucl_accesses = 0;
  uint64_t ucl_hits = 0;
  uint64_t ucl_fills = 0;
  uint64_t cms_fills = 0;
  uint64_t tag_evictions = 0;
  uint64_t cms_collateral_evictions = 0;
};

class AvrLlc {
 public:
  explicit AvrLlc(const CacheConfig& cfg);

  // ---- UCL path -----------------------------------------------------------
  /// Lookup an uncompressed cacheline; on hit updates LRU (block tag LRU and
  /// the block's CMS LRU bits refresh too) and the dirty bit for writes.
  bool ucl_access(uint64_t line, bool write);
  bool ucl_present(uint64_t line) const;
  /// Insert a UCL (must be absent). Victims are appended to `out`.
  void ucl_insert(uint64_t line, bool dirty, std::vector<LlcVictim>& out);
  /// Drop a UCL without writeback; returns its dirty bit if present.
  std::optional<bool> ucl_invalidate(uint64_t line);
  /// Mark an existing UCL clean (it was folded into a recompressed block).
  void ucl_mark_clean(uint64_t line);

  // ---- CMS path -----------------------------------------------------------
  /// Is the compressed image of `block` resident (all CMSs)?
  bool cms_present(uint64_t block) const;
  uint32_t cms_count(uint64_t block) const;
  void cms_touch(uint64_t block);  // LRU refresh on block access
  /// Insert the `count` CMSs of a compressed block (old copy, if any, must
  /// have been removed). Victims are appended to `out`.
  void cms_insert(uint64_t block, uint32_t count, bool dirty,
                  std::vector<LlcVictim>& out);
  /// Remove a block's CMSs without writeback (e.g. before re-inserting the
  /// recompressed image). The tag stays while UCLs remain.
  void cms_remove(uint64_t block);

  // ---- block-level queries -------------------------------------------------
  /// Mask of this block's UCLs currently in the LLC (dirty ones only if
  /// `dirty_only`): bit cl set = the line at CL offset cl is resident.
  uint16_t ucls_of_block(uint64_t block, bool dirty_only) const;

  /// Every resident entry, for the end-of-run drain.
  std::vector<LlcVictim> all_resident() const;

  uint32_t num_sets() const { return sets_; }
  uint32_t ways() const { return ways_; }

  /// Static structure overhead in bits per data-array entry (Sec. 4.2):
  /// BPA entry bits beyond a conventional cache's dirty/valid/LRU.
  static constexpr uint32_t kBpaExtraBitsPerEntry = 18;

  const AvrLlcCounters& counters() const { return counters_; }

 private:
  // Tag sets are scanned way-by-way on every lookup, so a tag is keyed for
  // single-compare scans: an invalid tag stores a sentinel block_tag (no
  // real block tag reaches 2^54). cms <= 8 fits a byte, a way (< 256,
  // validate_config) fits a byte, and a BPA entry's owning tag is a single
  // flat index (set * ways + way).
  //
  // BPA entries are not scanned for at all: the tag records where each of
  // its block's entries sits. CMS #i of a block sits in the fixed set
  // (tag index + i) mod sets and cms_way[i] records its way at cms_insert;
  // the UCL at CL offset cl sits in the fixed set (tag index * 16 + cl) mod
  // sets, its bit in ucl_mask says it is resident and ucl_way[cl] records
  // its way at ucl_insert. That is exact because a resident entry never moves: it
  // leaves its way only when it is released (a UCL alone, a CMS with its
  // whole image) or its tag is evicted, and each of those clears the bit or
  // the count first, so a recorded way stays valid while it is in use.
  static constexpr uint64_t kNoTag = ~uint64_t{0};
  struct TagEntry {
    uint64_t block_tag = kNoTag;
    uint64_t lru = 0;
    uint16_t ucl_mask = 0;  // bit cl set = the UCL at CL offset cl is resident
    uint8_t cms = 0;        // CMS count, 0 = compressed image absent
    bool block_dirty = false;  // the compressed image is dirty
    uint8_t cms_way[kMaxCompressedLines] = {};  // BPA way of CMS #i, i < cms
    uint8_t ucl_way[kBlockLines] = {};  // BPA way of the UCL at CL offset cl

    bool valid() const { return block_tag != kNoTag; }
    void invalidate() { block_tag = kNoTag; }
  };
  struct BpaEntry {
    uint32_t tag_idx = 0;  // flat index of the owning tag entry
    uint8_t cl_id = 0;     // UCL: CL offset in block; CMS: sub-block index
    bool is_cms = false;
    bool valid = false;
    bool dirty = false;
    uint64_t lru = 0;
  };

  /// Whether `e` is resident entry `id` (CL offset or CMS index) of tag
  /// `tag_idx`: the back pointer a recorded way must still lead to.
  static bool owned_by(const BpaEntry& e, uint32_t tag_idx, uint32_t id, bool is_cms) {
    return e.valid && e.is_cms == is_cms && e.tag_idx == tag_idx && e.cl_id == id;
  }

  uint64_t tag_index(uint64_t block) const { return (block >> 10) & (sets_ - 1); }
  uint64_t block_tag(uint64_t block) const { return block >> 10 >> set_bits_; }
  uint64_t block_addr_of_tag(uint32_t set, const TagEntry& t) const {
    return ((t.block_tag << set_bits_) | set) << 10;
  }

  TagEntry* find_tag(uint64_t block);
  const TagEntry* find_tag(uint64_t block) const;
  /// Find-or-allocate the tag entry; allocation may evict a victim tag and
  /// therefore all of its resident lines (appended to `out`). Returns the
  /// flat tag index.
  uint32_t ensure_tag(uint64_t block, std::vector<LlcVictim>& out);
  /// Re-validate the tag at `tag_idx` in place if make_room collaterally
  /// freed it after ensure_tag (its last resident entry was evicted while
  /// the caller's insert was still in flight). Returns the tag entry.
  TagEntry& revive_tag(uint32_t tag_idx, uint64_t block);
  void maybe_free_tag(uint32_t tag_idx);
  /// Evict everything belonging to the tag at (set, way).
  void evict_tag(uint32_t set, uint32_t way, std::vector<LlcVictim>& out);
  /// LRU-refresh the tag and its CMS entries (`t` == tags_[tag_idx]).
  void cms_touch_entry(uint32_t tag_idx, TagEntry& t);
  /// The BPA entry of CMS #i of tag `tag_idx`'s image, addressed through
  /// its recorded way.
  BpaEntry& cms_entry(uint32_t tag_idx, uint32_t i);
  /// The BPA set of the UCL at CL offset `cl` of tag `tag_idx`'s block: the
  /// line's (addr >> 6) mod sets, whose low bits are the tag index and cl.
  uint64_t ucl_set(uint32_t tag_idx, uint32_t cl) const {
    return ((uint64_t{tag_idx / ways_} << 4) | cl) & (sets_ - 1);
  }
  /// The BPA entry of the resident UCL at CL offset `cl` of tag `tag_idx`'s
  /// block, addressed through its recorded way.
  BpaEntry& ucl_entry(uint32_t tag_idx, uint32_t cl);

  BpaEntry* find_ucl(uint64_t line);
  const BpaEntry* find_ucl(uint64_t line) const;
  static bool in_use(const TagEntry& t) { return t.valid(); }
  static bool in_use(const BpaEntry& e) { return e.valid; }
  /// The victim way of the set whose ways start at `base`: its first free
  /// way, else its first least recently used way.
  template <typename Entry>
  uint32_t victim_way(const Entry* base) const;
  /// Release the victim way of BPA set `set`, appending any eviction to
  /// `out`. Returns the freed way.
  uint32_t make_room(uint64_t set, std::vector<LlcVictim>& out);
  /// Release the BPA entry at (set, way): for a UCL report it; for a CMS
  /// evict the whole owning block's compressed image.
  void release_entry(uint64_t set, uint32_t way, std::vector<LlcVictim>& out);
  /// Invalidate the CMS entries of tag `tag_idx`'s image; the caller then
  /// clears its cms count.
  void remove_cms_entries(uint32_t tag_idx);

  std::vector<TagEntry> tags_;  // sets_ x ways_
  std::vector<BpaEntry> bpa_;   // sets_ x ways_
  // Valid entries per BPA set, so make_room knows up front whether the set
  // has a free way.
  std::vector<uint16_t> bpa_used_;
  uint32_t sets_ = 0;
  uint32_t ways_ = 0;
  uint32_t set_bits_ = 0;
  uint64_t lru_clock_ = 0;
  AvrLlcCounters counters_;
};

}  // namespace avr
