#include "avr/avr_system.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace avr {

AvrSystem::AvrSystem(const SimConfig& cfg, RegionRegistry& regions)
    : cfg_(cfg),
      regions_(regions),
      dram_(cfg.dram),
      llc_(cfg.llc),
      cmt_(),
      compressor_(cfg.avr) {}

AvrSystem::CompressOutcome AvrSystem::compress_block_values(uint64_t block) {
  const std::span<float, kValuesPerBlock> vals = regions_.block_values(block);
  RememberedCompression& r = remembered_[(block / kBlockBytes) % kCompressMemoEntries];
  CompressOutcome out;
  if (r.valid && std::memcmp(r.values.data(), vals.data(), vals.size_bytes()) == 0) {
    out = r.outcome;
  } else {
    bool changed = false;
    if (auto att = compressor_.compress(vals, scratch_)) {
      // The block now lives in summarized form: every subsequent read
      // observes the reconstruction, written back from the image compress()
      // already built. Outliers are stored exactly, so they stay
      // bit-identical. Exact-tier encodings (BDI-hybrid) write nothing —
      // their reconstruction is the identity, so the backing store stays
      // untouched.
      changed = compressor_.write_reconstruction(att->block, scratch_, vals);
      out = {att->block.lines(), att->block.method, att->block.bias};
    }
    // Only an event that left the values as they were is remembered, so
    // only then is the input copied.
    r.valid = !changed;
    if (r.valid) {
      std::memcpy(r.values.data(), vals.data(), vals.size_bytes());
      r.outcome = out;
    }
  }
  ++counters_.compress_attempts;
  if (out.lines == 0) {
    ++counters_.compress_failures;
    return out;
  }
  ++counters_.compress_successes;
  switch (out.method) {
    case Method::kDownsample1D: ++counters_.blocks_1d; break;
    case Method::kDownsample2D: ++counters_.blocks_2d; break;
    case Method::kBdiHybrid: ++counters_.blocks_bdi; break;
    default: break;
  }
  compressed_lines_sum_ += out.lines;
  compressed_blocks_ += 1;
  return out;
}

double AvrSystem::mean_compression_ratio() const {
  if (compressed_blocks_ == 0) return 1.0;
  const double mean_lines =
      static_cast<double>(compressed_lines_sum_) / static_cast<double>(compressed_blocks_);
  return static_cast<double>(kBlockLines) / mean_lines;
}

bool AvrSystem::should_skip_attempt(BlockMeta& meta) {
  if (!cfg_.avr.enable_failure_history) return false;
  if (meta.failed == 0) return false;
  // "Max tries" (Fig. 8): a block that failed persistently is treated as
  // incompressible for good — re-attempting means re-fetching its missing
  // lines from memory, which would hand back all of the bandwidth savings.
  if (meta.failed >= cfg_.avr.max_failures) {
    ++counters_.attempts_skipped;
    return true;
  }
  const uint32_t budget = std::min<uint32_t>(meta.failed, cfg_.avr.max_skips);
  if (meta.skipped < budget) {
    meta.skipped = static_cast<uint8_t>(meta.skipped + 1);
    ++counters_.attempts_skipped;
    return true;
  }
  meta.skipped = 0;  // budget exhausted: allow one real attempt
  return false;
}

// ---------------------------------------------------------------------------
// Request flow (Fig. 7)
// ---------------------------------------------------------------------------

uint64_t AvrSystem::request(uint64_t now, uint64_t line, bool write) {
  line = line_addr(line);
  const uint64_t block = block_addr(line);
  const bool ap = approx(line);
  last_was_miss_ = false;
  ++counters_.requests;
  if (ap) ++counters_.approx_requests;

  std::vector<LlcVictim>& victims = victim_list(0);

  // 1. DBUF lookup, in parallel with the tag array. The UCL is also written
  // from the DBUF into the LLC (Sec. 3.5).
  if (ap && dbuf_.holds(line)) {
    ++counters_.req_hit_dbuf;
    deliver_from_dbuf(now, line, write);
    return cfg_.llc.latency;
  }

  // 2. UCL lookup.
  if (llc_.ucl_access(line, write)) {
    if (ap)
      ++counters_.req_hit_ucl;
    else
      ++counters_.req_hit_ucl_other;
    return cfg_.llc.latency;
  }

  // 3. CMS lookup: is the compressed image resident?
  if (ap && llc_.cms_present(block)) {
    ++counters_.req_hit_compressed;
    const uint32_t k = llc_.cms_count(block);
    llc_.cms_touch(block);
    ++counters_.decompressions;
    refill_dbuf(now, block);
    deliver_from_dbuf(now, line, write);
    const uint64_t lat = cfg_.llc.latency + decompress_cycles(k);
    counters_.hit_compressed_latency_total += lat;
    return lat;
  }

  // 4. Miss.
  last_was_miss_ = true;
  if (ap)
    ++counters_.req_miss;
  else
    ++counters_.req_miss_other;

  if (!ap) {
    const uint64_t lat = dram_.read(now, line, kCachelineBytes, false);
    llc_.ucl_insert(line, write, victims);
    process_victims(now, 0);
    return lat + cfg_.llc.latency;
  }

  BlockMeta& meta = cmt_.lookup(block);
  if (meta.compressed()) {
    // Fetch the compressed image together with any lazily evicted lines.
    const uint32_t lines = meta.size_lines + meta.lazy_count;
    const uint64_t lat_dram =
        dram_.read(now, block, lines * kCachelineBytes, true);
    ++counters_.decompressions;
    ++counters_.block_fetches;
    counters_.block_fetch_lines += lines;

    if (meta.lazy_count == 0) {
      llc_.cms_insert(block, meta.size_lines, /*dirty=*/false, victims);
    } else {
      // Incorporate lazy lines and recompress immediately (Sec. 3.5). The
      // merged image is marked dirty in the LLC and supersedes the memory
      // image; the CMT size is refreshed when it is written back. A merged
      // block that no longer compresses goes to memory uncompressed now.
      const CompressOutcome out = compress_block_values(block);
      if (out.lines > 0) {
        llc_.cms_insert(block, out.lines, /*dirty=*/true, victims);
        meta.lazy_count = 0;
      } else {
        write_block(now, block, meta, out);
      }
    }
    refill_dbuf(now, block);
    deliver_from_dbuf(now, line, write);
    // No image is resident after a failed merge: it streams nothing.
    return lat_dram + decompress_cycles(llc_.cms_count(block)) + cfg_.llc.latency;
  }

  // Uncompressed (or never-compressed) block: per-line access like baseline.
  const uint64_t lat = dram_.read(now, line, kCachelineBytes, true);
  llc_.ucl_insert(line, write, victims);
  process_victims(now, 0);
  return lat + cfg_.llc.latency;
}

uint64_t AvrSystem::decompress_cycles(uint32_t k) const {
  return uint64_t{cfg_.avr.cms_stream_cycles} * (k > 0 ? k - 1 : 0) +
         cfg_.avr.decompress_latency;
}

void AvrSystem::refill_dbuf(uint64_t now, uint64_t block) {
  // PFE (Sec. 3.3): promote the outgoing block's remaining lines when at
  // least pfe_threshold of them were requested while it was buffered.
  if (dbuf_.valid() && cfg_.avr.enable_pfe &&
      dbuf_.requested_count() >= cfg_.avr.pfe_threshold) {
    ++counters_.pfe_promotions;
    const uint64_t old = dbuf_.block();
    std::vector<LlcVictim>& victims = victim_list(1);
    for (uint32_t cl = 0; cl < kBlockLines; ++cl) {
      const uint64_t line = old + cl * kCachelineBytes;
      if (dbuf_.line_in_llc(line) || llc_.ucl_present(line)) continue;
      llc_.ucl_insert(line, /*dirty=*/false, victims);
      ++counters_.pfe_lines;
    }
    process_victims(now, 1);
  }
  dbuf_.refill(block);
}

void AvrSystem::deliver_from_dbuf(uint64_t now, uint64_t line, bool write) {
  dbuf_.mark_requested(line);
  if (llc_.ucl_present(line)) {
    llc_.ucl_access(line, write);
  } else {
    // Not victim_list(0): a compressed miss has queued its image's victims.
    llc_.ucl_insert(line, write, victims_[0]);
    dbuf_.mark_in_llc(line);
  }
  process_victims(now, 0);
}

void AvrSystem::writeback(uint64_t now, uint64_t line) {
  line = line_addr(line);
  if (llc_.ucl_access(line, /*write=*/true)) return;  // landed on a resident UCL
  llc_.ucl_insert(line, /*dirty=*/true, victim_list(0));
  if (dbuf_.holds(line)) dbuf_.mark_in_llc(line);
  process_victims(now, 0);
}

// ---------------------------------------------------------------------------
// Eviction flow (Fig. 8)
// ---------------------------------------------------------------------------

std::vector<LlcVictim>& AvrSystem::victim_list(int depth) {
  assert(depth >= 0 && depth <= kMaxDepth && victims_[depth].empty());
  return victims_[depth];
}

void AvrSystem::process_victims(uint64_t now, int depth) {
  // Victims may cascade (tag evictions, CMS reallocation): a flow handled
  // here fills only the next depth's list, so this one stays put while it
  // is walked, in insertion order.
  std::vector<LlcVictim>& victims = victims_[depth];
  for (const LlcVictim& v : victims) {
    if (v.kind == LlcVictim::kUcl) {
      if (!v.dirty) continue;  // clean lines vanish silently
      handle_dirty_ucl(now, v.addr, depth);
    } else {
      handle_cms_block_evict(now, v.addr, v.dirty);
    }
  }
  victims.clear();
}

void AvrSystem::write_block(uint64_t now, uint64_t block, BlockMeta& meta,
                            const CompressOutcome& out) {
  const uint64_t bytes = out.lines > 0 ? out.lines * kCachelineBytes : kBlockBytes;
  dram_.write(now, block, bytes, true);
  meta.method = out.method;
  meta.bias = out.bias;
  meta.size_lines = static_cast<uint8_t>(out.lines);
  meta.lazy_count = 0;
  if (out.lines > 0) {
    meta.failed = 0;
    meta.skipped = 0;
  } else {
    meta.note_failure();
  }
}

void AvrSystem::handle_dirty_ucl(uint64_t now, uint64_t line, int depth) {
  const uint64_t block = block_addr(line);
  if (!approx(line)) {
    dram_.write(now, line, kCachelineBytes, false);
    ++counters_.evict_other_wb;
    return;
  }
  ++counters_.approx_evictions;

  // Case 1: the compressed image is in the LLC -> update and recompress it
  // on chip (no memory traffic). If that fails, the block leaves the LLC
  // uncompressed; only then is its CMT entry looked up.
  if (llc_.cms_present(block) && depth < kMaxDepth) {
    ++counters_.evict_recompress;
    ++counters_.decompressions;
    const CompressOutcome out = compress_block_values(block);
    llc_.cms_remove(block);
    if (out.lines > 0)
      llc_.cms_insert(block, out.lines, /*dirty=*/true, victim_list(depth + 1));
    else
      write_block(now, block, cmt_.lookup(block), out);
    process_victims(now, depth + 1);
    return;
  }

  BlockMeta& meta = cmt_.lookup(block);

  // Case 2: block compressed in memory and there is room in its 1 KB slot:
  // lazily write the line back uncompressed (Sec. 3.1).
  if (meta.compressed() && cfg_.avr.enable_lazy_eviction && meta.lazy_space() > 0) {
    ++counters_.evict_lazy_wb;
    dram_.write(now, line, kCachelineBytes, true);
    meta.lazy_count = static_cast<uint8_t>(meta.lazy_count + 1);
    return;
  }

  // Case 3: block compressed in memory, no lazy space: fetch, merge,
  // recompress, write back.
  if (meta.compressed()) {
    ++counters_.evict_fetch_recompress;
    dram_.read(now, block, (meta.size_lines + meta.lazy_count) * kCachelineBytes, true);
    ++counters_.decompressions;
    write_block(now, block, meta, compress_block_values(block));
    return;
  }

  // Case 4: block is uncompressed in memory. Consult the failure history to
  // decide whether to attempt compression at all (Sec. 3.5). This path only
  // touches memory (no LLC re-insertion), so it is safe at any depth.
  if (should_skip_attempt(meta)) {
    ++counters_.evict_uncompressed_wb;
    dram_.write(now, line, kCachelineBytes, true);
    return;
  }

  // Attempt: missing lines of the block must be read from memory first.
  const uint32_t resident = static_cast<uint32_t>(
      std::popcount(llc_.ucls_of_block(block, /*dirty_only=*/false)));
  const uint32_t missing = kBlockLines - std::min<uint32_t>(resident + 1, kBlockLines);
  if (missing > 0) dram_.read(now, block, missing * kCachelineBytes, true);
  const CompressOutcome out = compress_block_values(block);
  if (out.lines > 0) {
    ++counters_.evict_fetch_recompress;
    write_block(now, block, meta, out);
    // Other dirty UCLs of the block were folded into the written image.
    mark_block_ucls_clean(block);
  } else {
    // Only the evicted line goes to memory; the block stays uncompressed.
    ++counters_.evict_uncompressed_wb;
    dram_.write(now, line, kCachelineBytes, true);
    meta.note_failure();
    meta.skipped = 0;
  }
}

void AvrSystem::handle_cms_block_evict(uint64_t now, uint64_t block, bool dirty) {
  ++counters_.cms_block_evictions;
  if (!dirty) return;  // memory still holds a valid compressed image

  // Decompress on chip, overlay the block's dirty UCLs, recompress, write
  // back to memory (Sec. 3.5). Backing values are already current.
  ++counters_.decompressions;
  BlockMeta& meta = cmt_.lookup(block);
  write_block(now, block, meta, compress_block_values(block));
  mark_block_ucls_clean(block);
}

// ---------------------------------------------------------------------------

StatGroup AvrSystem::stats() const {
  StatGroup g;
  g.add_nonzero("requests", counters_.requests);
  g.add_nonzero("approx_requests", counters_.approx_requests);
  g.add_nonzero("req_hit_dbuf", counters_.req_hit_dbuf);
  g.add_nonzero("req_hit_ucl", counters_.req_hit_ucl);
  g.add_nonzero("req_hit_ucl_other", counters_.req_hit_ucl_other);
  g.add_nonzero("req_hit_compressed", counters_.req_hit_compressed);
  g.add_nonzero("req_miss", counters_.req_miss);
  g.add_nonzero("req_miss_other", counters_.req_miss_other);
  g.add_nonzero("hit_compressed_latency_total", counters_.hit_compressed_latency_total);
  g.add_nonzero("decompressions", counters_.decompressions);
  g.add_nonzero("block_fetches", counters_.block_fetches);
  g.add_nonzero("block_fetch_lines", counters_.block_fetch_lines);
  dram_.add_traffic_split(g);
  g.add_nonzero("compress_attempts", counters_.compress_attempts);
  g.add_nonzero("compress_successes", counters_.compress_successes);
  g.add_nonzero("compress_failures", counters_.compress_failures);
  // Per-method histogram, zero-omitting and gated on the BDI-hybrid flag:
  // RunMetrics.detail is persisted in result caches and compared bit for bit
  // (--assert-same, the pinned stats tests), so every configuration that
  // existed before the two-tier method layer must keep its exact snapshot.
  if (cfg_.avr.enable_bdi_hybrid) {
    g.add_nonzero("blocks_1d", counters_.blocks_1d);
    g.add_nonzero("blocks_2d", counters_.blocks_2d);
    g.add_nonzero("blocks_bdi", counters_.blocks_bdi);
  }
  g.add_nonzero("attempts_skipped", counters_.attempts_skipped);
  g.add_nonzero("approx_evictions", counters_.approx_evictions);
  g.add_nonzero("evict_other_wb", counters_.evict_other_wb);
  g.add_nonzero("evict_recompress", counters_.evict_recompress);
  g.add_nonzero("evict_lazy_wb", counters_.evict_lazy_wb);
  g.add_nonzero("evict_fetch_recompress", counters_.evict_fetch_recompress);
  g.add_nonzero("evict_uncompressed_wb", counters_.evict_uncompressed_wb);
  g.add_nonzero("cms_block_evictions", counters_.cms_block_evictions);
  g.add_nonzero("pfe_promotions", counters_.pfe_promotions);
  g.add_nonzero("pfe_lines", counters_.pfe_lines);
  return g;
}

void AvrSystem::mark_block_ucls_clean(uint64_t block) {
  const uint16_t dirty = llc_.ucls_of_block(block, /*dirty_only=*/true);
  for (uint32_t cl = 0; cl < kBlockLines; ++cl)
    if ((dirty >> cl) & 1) llc_.ucl_mark_clean(block + cl * kCachelineBytes);
}

void AvrSystem::drain(uint64_t now) {
  dbuf_.invalidate();
  // First write back dirty compressed images (this also folds in and cleans
  // their dirty UCLs), then the remaining dirty UCLs.
  for (const LlcVictim& v : llc_.all_resident())
    if (v.kind == LlcVictim::kCmsBlock && v.dirty) {
      handle_cms_block_evict(now, v.addr, true);
      llc_.cms_remove(v.addr);
    }
  for (const LlcVictim& v : llc_.all_resident())
    if (v.kind == LlcVictim::kUcl && v.dirty) {
      handle_dirty_ucl(now, v.addr, kMaxDepth);  // no LLC re-insertions
      llc_.ucl_mark_clean(v.addr);
    }
}

}  // namespace avr
