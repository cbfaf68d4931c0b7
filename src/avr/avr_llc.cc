#include "avr/avr_llc.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace avr {

AvrLlc::AvrLlc(const CacheConfig& cfg) : ways_(cfg.ways) {
  // validate_config's llc bounds (common/config_table.cc says why).
  const uint64_t entries = cfg.size_bytes / kCachelineBytes;
  assert(cfg.ways > 0 && cfg.ways <= 256 && entries >= kMaxCompressedLines &&
         entries % cfg.ways == 0 && std::has_single_bit(entries / cfg.ways) &&
         "bad AVR LLC geometry");
  const uint64_t sets = entries / cfg.ways;
  sets_ = static_cast<uint32_t>(sets);
  set_bits_ = static_cast<uint32_t>(std::countr_zero(sets));
  tags_.resize(uint64_t{sets_} * ways_);
  bpa_.resize(uint64_t{sets_} * ways_);
  bpa_used_.resize(sets_);
}

// ---- tag array ------------------------------------------------------------

AvrLlc::TagEntry* AvrLlc::find_tag(uint64_t block) {
  const uint64_t set = tag_index(block);
  const uint64_t tag = block_tag(block);
  TagEntry* base = &tags_[set * ways_];
  for (uint32_t w = 0; w < ways_; ++w)
    if (base[w].block_tag == tag) return &base[w];
  return nullptr;
}

const AvrLlc::TagEntry* AvrLlc::find_tag(uint64_t block) const {
  return const_cast<AvrLlc*>(this)->find_tag(block);
}

// The victim of a set with a free way is its first free way, and of a full
// set its first way of least stamp. Keying a free way as 0 and a used one
// as its stamp (every used entry was stamped by ++lru_clock_, so >= 1)
// makes both the first strict minimum of one branch-free pass.
template <typename Entry>
uint32_t AvrLlc::victim_way(const Entry* base) const {
  uint32_t victim = 0;
  uint64_t key = in_use(base[0]) ? base[0].lru : 0;
  for (uint32_t w = 1; w < ways_; ++w) {
    const uint64_t k = in_use(base[w]) ? base[w].lru : 0;
    victim = k < key ? w : victim;
    key = k < key ? k : key;
  }
  return victim;
}

uint32_t AvrLlc::ensure_tag(uint64_t block, std::vector<LlcVictim>& out) {
  if (const TagEntry* t = find_tag(block)) return static_cast<uint32_t>(t - tags_.data());

  // Allocate: free way if possible, else evict the LRU tag with all its
  // resident UCLs and CMSs (Sec. 3.4, "Allocation for a tag entry").
  const uint32_t set = static_cast<uint32_t>(tag_index(block));
  TagEntry* base = &tags_[uint64_t{set} * ways_];
  const uint32_t victim = victim_way(base);
  if (base[victim].valid()) {
    evict_tag(set, victim, out);
    ++counters_.tag_evictions;
  }
  base[victim] = TagEntry{};
  base[victim].block_tag = block_tag(block);
  base[victim].lru = ++lru_clock_;
  return set * ways_ + victim;
}

AvrLlc::TagEntry& AvrLlc::revive_tag(uint32_t tag_idx, uint64_t block) {
  TagEntry& t = tags_[tag_idx];
  if (!t.valid()) {
    // The way is still ours: nothing allocates tag ways between ensure_tag
    // and the caller, maybe_free_tag only clears the tag.
    t = TagEntry{};
    t.block_tag = block_tag(block);
  }
  return t;
}

void AvrLlc::maybe_free_tag(uint32_t tag_idx) {
  TagEntry& t = tags_[tag_idx];
  if (t.valid() && t.cms == 0 && t.ucl_mask == 0) t.invalidate();
}

void AvrLlc::evict_tag(uint32_t set, uint32_t way, std::vector<LlcVictim>& out) {
  const uint32_t tidx = set * ways_ + way;
  TagEntry& t = tags_[tidx];
  assert(t.valid());
  const uint64_t block = block_addr_of_tag(set, t);
  for (uint32_t m = t.ucl_mask; m != 0; m &= m - 1) {
    const uint32_t cl = static_cast<uint32_t>(std::countr_zero(m));
    BpaEntry& e = ucl_entry(tidx, cl);
    out.push_back({LlcVictim::kUcl, block + cl * kCachelineBytes, e.dirty});
    e.valid = false;
    --bpa_used_[ucl_set(tidx, cl)];
  }
  t.ucl_mask = 0;
  if (t.cms > 0) {
    out.push_back({LlcVictim::kCmsBlock, block, t.block_dirty});
    remove_cms_entries(tidx);
    t.cms = 0;
  }
  t.invalidate();
}

// ---- BPA / data array -----------------------------------------------------

AvrLlc::BpaEntry& AvrLlc::ucl_entry(uint32_t tag_idx, uint32_t cl) {
  BpaEntry& e = bpa_[ucl_set(tag_idx, cl) * ways_ + tags_[tag_idx].ucl_way[cl]];
  assert(owned_by(e, tag_idx, cl, /*is_cms=*/false));
  return e;
}

AvrLlc::BpaEntry* AvrLlc::find_ucl(uint64_t line) {
  // A hit needs the block's tag and the line's bit in its UCL mask; the
  // recorded way then names the BPA entry whose back pointer is this tag
  // (Sec. 3.4, "LLC Lookup").
  const TagEntry* t = find_tag(block_addr(line));
  const uint32_t cl = static_cast<uint32_t>(line_in_block(line));
  if (!t || !((t->ucl_mask >> cl) & 1)) return nullptr;
  return &ucl_entry(static_cast<uint32_t>(t - tags_.data()), cl);
}

const AvrLlc::BpaEntry* AvrLlc::find_ucl(uint64_t line) const {
  return const_cast<AvrLlc*>(this)->find_ucl(line);
}

uint32_t AvrLlc::make_room(uint64_t set, std::vector<LlcVictim>& out) {
  const BpaEntry* base = &bpa_[set * ways_];
  assert(bpa_used_[set] ==
         std::count_if(base, base + ways_, [](const BpaEntry& e) { return e.valid; }));
  // A set with a free way gives its first one: the pass below would pick
  // it too, but an emptying or cold cache should not pay for a pass over
  // every way. A full cache skips this branch every time.
  uint32_t victim = 0;
  if (bpa_used_[set] < ways_)
    while (base[victim].valid) ++victim;
  else
    victim = victim_way(base);
  if (bpa_[set * ways_ + victim].valid) release_entry(set, victim, out);
  return victim;
}

void AvrLlc::release_entry(uint64_t set, uint32_t way, std::vector<LlcVictim>& out) {
  BpaEntry& e = bpa_[set * ways_ + way];
  assert(e.valid);
  TagEntry& t = tags_[e.tag_idx];
  const uint32_t tset = e.tag_idx / ways_;
  const uint64_t block = block_addr_of_tag(tset, t);
  if (!e.is_cms) {
    out.push_back({LlcVictim::kUcl, block + uint64_t{e.cl_id} * kCachelineBytes, e.dirty});
    e.valid = false;
    --bpa_used_[set];
    assert((t.ucl_mask >> e.cl_id) & 1);
    t.ucl_mask = static_cast<uint16_t>(t.ucl_mask & ~(1u << e.cl_id));
    maybe_free_tag(e.tag_idx);
    return;
  }
  // A CMS victim drags the entire compressed image out (Sec. 3.5).
  out.push_back({LlcVictim::kCmsBlock, block, t.block_dirty});
  remove_cms_entries(e.tag_idx);
  t.cms = 0;
  t.block_dirty = false;
  maybe_free_tag(e.tag_idx);
  ++counters_.cms_collateral_evictions;
}

AvrLlc::BpaEntry& AvrLlc::cms_entry(uint32_t tag_idx, uint32_t i) {
  const uint64_t s = (tag_idx / ways_ + i) & (sets_ - 1);
  BpaEntry& e = bpa_[s * ways_ + tags_[tag_idx].cms_way[i]];
  assert(owned_by(e, tag_idx, i, /*is_cms=*/true));
  return e;
}

void AvrLlc::remove_cms_entries(uint32_t tag_idx) {
  const uint32_t tset = tag_idx / ways_;
  for (uint32_t i = 0; i < tags_[tag_idx].cms; ++i) {
    cms_entry(tag_idx, i).valid = false;
    --bpa_used_[(tset + i) & (sets_ - 1)];
  }
}

// ---- UCL public operations --------------------------------------------------

bool AvrLlc::ucl_access(uint64_t line, bool write) {
  ++counters_.ucl_accesses;
  BpaEntry* e = find_ucl(line);
  if (!e) return false;
  e->lru = ++lru_clock_;
  if (write) e->dirty = true;
  const uint32_t tidx = e->tag_idx;
  TagEntry& t = tags_[tidx];
  t.lru = ++lru_clock_;
  // Accessing any UCL of a block refreshes its CMS entries' LRU (Sec. 3.4).
  // find_ucl already resolved the tag, so refresh it directly instead of
  // re-running the tag lookup through cms_touch().
  if (t.cms > 0) cms_touch_entry(tidx, t);
  ++counters_.ucl_hits;
  return true;
}

bool AvrLlc::ucl_present(uint64_t line) const { return find_ucl(line) != nullptr; }

void AvrLlc::ucl_insert(uint64_t line, bool dirty, std::vector<LlcVictim>& out) {
  assert(!ucl_present(line));
  const uint64_t block = block_addr(line);
  const uint32_t tidx = ensure_tag(block, out);
  const uint32_t cl = static_cast<uint32_t>(line_in_block(line));
  const uint64_t s = ucl_set(tidx, cl);
  const uint32_t w = make_room(s, out);
  BpaEntry& e = bpa_[s * ways_ + w];
  e.valid = true;
  ++bpa_used_[s];
  e.dirty = dirty;
  e.is_cms = false;
  e.cl_id = static_cast<uint8_t>(cl);
  e.tag_idx = tidx;
  e.lru = ++lru_clock_;
  // make_room may have collaterally freed this tag: the block's own CMS
  // image or its other UCLs can live in this UCL set, and their eviction
  // leaves the tag with cms == 0 && ucl_mask == 0.
  TagEntry& t = revive_tag(tidx, block);
  t.ucl_mask = static_cast<uint16_t>(t.ucl_mask | (1u << cl));
  t.ucl_way[cl] = static_cast<uint8_t>(w);
  t.lru = lru_clock_;
  ++counters_.ucl_fills;
}

std::optional<bool> AvrLlc::ucl_invalidate(uint64_t line) {
  BpaEntry* e = find_ucl(line);
  if (!e) return std::nullopt;
  const bool dirty = e->dirty;
  TagEntry& t = tags_[e->tag_idx];
  e->valid = false;
  --bpa_used_[ucl_set(e->tag_idx, e->cl_id)];
  t.ucl_mask = static_cast<uint16_t>(t.ucl_mask & ~(1u << e->cl_id));
  maybe_free_tag(e->tag_idx);
  return dirty;
}

void AvrLlc::ucl_mark_clean(uint64_t line) {
  if (BpaEntry* e = find_ucl(line)) e->dirty = false;
}

// ---- CMS public operations ---------------------------------------------------

bool AvrLlc::cms_present(uint64_t block) const {
  const TagEntry* t = find_tag(block_addr(block));
  return t && t->cms > 0;
}

uint32_t AvrLlc::cms_count(uint64_t block) const {
  const TagEntry* t = find_tag(block_addr(block));
  return t ? t->cms : 0;
}

void AvrLlc::cms_touch(uint64_t block) {
  block = block_addr(block);
  TagEntry* t = find_tag(block);
  if (!t || t->cms == 0) return;
  cms_touch_entry(static_cast<uint32_t>(t - tags_.data()), *t);
}

void AvrLlc::cms_touch_entry(uint32_t tag_idx, TagEntry& t) {
  t.lru = ++lru_clock_;
  for (uint32_t i = 0; i < t.cms; ++i) cms_entry(tag_idx, i).lru = lru_clock_;
}

void AvrLlc::cms_insert(uint64_t block, uint32_t count, bool dirty,
                        std::vector<LlcVictim>& out) {
  block = block_addr(block);
  assert(count >= 1 && count <= kMaxCompressedLines);
  assert(!cms_present(block) && "remove the old image first");
  const uint32_t tidx = ensure_tag(block, out);
  const uint32_t tset = tidx / ways_;
  uint8_t way[kMaxCompressedLines] = {};
  // Consecutive-set allocation starting at the tag index (Sec. 3.4).
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t s = (tset + i) & (sets_ - 1);
    const uint32_t w = make_room(s, out);
    way[i] = static_cast<uint8_t>(w);
    BpaEntry& e = bpa_[s * ways_ + w];
    e.valid = true;
    ++bpa_used_[s];
    e.dirty = dirty;
    e.is_cms = true;
    e.cl_id = static_cast<uint8_t>(i);
    e.tag_idx = tidx;
    e.lru = ++lru_clock_;
  }
  // make_room may have collaterally freed this very tag: evicting the block's
  // last UCL while cms is still 0 makes maybe_free_tag clear it.
  TagEntry& t = revive_tag(tidx, block);
  t.cms = static_cast<uint8_t>(count);
  std::memcpy(t.cms_way, way, count);
  t.block_dirty = dirty;
  t.lru = ++lru_clock_;
  counters_.cms_fills += count;
}

void AvrLlc::cms_remove(uint64_t block) {
  block = block_addr(block);
  TagEntry* t = find_tag(block);
  if (!t || t->cms == 0) return;
  const uint32_t tidx = static_cast<uint32_t>(t - tags_.data());
  remove_cms_entries(tidx);
  t->cms = 0;
  t->block_dirty = false;
  maybe_free_tag(tidx);
}

// ---- block-level queries -----------------------------------------------------

uint16_t AvrLlc::ucls_of_block(uint64_t block, bool dirty_only) const {
  const TagEntry* t = find_tag(block_addr(block));
  if (!t || !dirty_only) return t ? t->ucl_mask : 0;
  const uint32_t tidx = static_cast<uint32_t>(t - tags_.data());
  uint16_t out = 0;
  for (uint32_t m = t->ucl_mask; m != 0; m &= m - 1) {
    const uint32_t cl = static_cast<uint32_t>(std::countr_zero(m));
    if (const_cast<AvrLlc*>(this)->ucl_entry(tidx, cl).dirty)
      out = static_cast<uint16_t>(out | (1u << cl));
  }
  return out;
}

std::vector<LlcVictim> AvrLlc::all_resident() const {
  std::vector<LlcVictim> out;
  for (uint32_t set = 0; set < sets_; ++set)
    for (uint32_t w = 0; w < ways_; ++w) {
      const TagEntry& t = tags_[uint64_t{set} * ways_ + w];
      if (!t.valid()) continue;
      const uint64_t block = block_addr_of_tag(set, t);
      if (t.cms > 0) out.push_back({LlcVictim::kCmsBlock, block, t.block_dirty});
    }
  for (uint64_t s = 0; s < sets_; ++s)
    for (uint32_t w = 0; w < ways_; ++w) {
      const BpaEntry& e = bpa_[s * ways_ + w];
      if (!e.valid || e.is_cms) continue;
      const TagEntry& t = tags_[e.tag_idx];
      const uint64_t block = block_addr_of_tag(e.tag_idx / ways_, t);
      out.push_back({LlcVictim::kUcl, block + uint64_t{e.cl_id} * kCachelineBytes, e.dirty});
    }
  return out;
}

}  // namespace avr
