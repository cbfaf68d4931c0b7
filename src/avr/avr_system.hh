// The AVR LLC+memory subsystem: glues together the decoupled LLC, the
// compressor/decompressor, the CMT, the DBUF/PFE and the DRAM model, and
// implements the request flow of Fig. 7 and the eviction flow of Fig. 8.
//
// Functional semantics: compression events run the real construction /
// reconstruction on the workload's backing store (RegionRegistry), so
// application output error emerges from the data path exactly as in the
// paper's methodology. One modeling simplification: a recompression reads
// the *current* backing values for all lines of the block, which folds in
// stores that architecturally still sit dirty in L1/L2; this slightly lowers
// the number of approximation round-trips a value experiences
// (docs/ARCHITECTURE.md, "AVR request and eviction flows").
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "avr/avr_llc.hh"
#include "avr/cmt.hh"
#include "avr/compressor.hh"
#include "avr/dbuf.hh"
#include "common/config.hh"
#include "mem/llc_system.hh"
#include "runtime/region.hh"

namespace avr {

/// Plain-field counters for everything the request/eviction flows count.
/// request() runs once per LLC request of the core, so no string-keyed
/// maps here; stats() snapshots these into the reporting StatGroup.
struct AvrSystemCounters {
  uint64_t requests = 0;
  uint64_t approx_requests = 0;
  uint64_t req_hit_dbuf = 0;
  uint64_t req_hit_ucl = 0;
  uint64_t req_hit_ucl_other = 0;
  uint64_t req_hit_compressed = 0;
  uint64_t req_miss = 0;
  uint64_t req_miss_other = 0;
  uint64_t hit_compressed_latency_total = 0;
  uint64_t decompressions = 0;
  uint64_t block_fetches = 0;
  uint64_t block_fetch_lines = 0;
  uint64_t compress_attempts = 0;
  uint64_t compress_successes = 0;
  uint64_t compress_failures = 0;
  // Per-method success histogram (which tier/variant won each compression).
  // Surfaced in stats() only when the BDI-hybrid tier is enabled, so
  // pre-existing configurations' snapshots stay byte-identical.
  uint64_t blocks_1d = 0;
  uint64_t blocks_2d = 0;
  uint64_t blocks_bdi = 0;
  uint64_t attempts_skipped = 0;
  uint64_t approx_evictions = 0;
  uint64_t evict_other_wb = 0;
  uint64_t evict_recompress = 0;
  uint64_t evict_lazy_wb = 0;
  uint64_t evict_fetch_recompress = 0;
  uint64_t evict_uncompressed_wb = 0;
  uint64_t cms_block_evictions = 0;
  uint64_t pfe_promotions = 0;
  uint64_t pfe_lines = 0;
};

class AvrSystem final : public LlcSystem {
 public:
  AvrSystem(const SimConfig& cfg, RegionRegistry& regions);

  uint64_t request(uint64_t now, uint64_t line, bool write) override;
  void writeback(uint64_t now, uint64_t line) override;
  void drain(uint64_t now) override;
  bool last_was_miss() const override { return last_was_miss_; }

  StatGroup stats() const override;
  const AvrSystemCounters& counters() const { return counters_; }
  Dram& dram() override { return dram_; }
  const Dram& dram() const override { return dram_; }

  /// Component access for tests/benches: metadata table, decoupled LLC and
  /// the (stateless) compressor instance this subsystem drives.
  const Cmt& cmt() const { return cmt_; }
  Cmt& cmt() { return cmt_; }
  const AvrLlc& llc() const { return llc_; }
  const Compressor& compressor() const { return compressor_; }

  /// Compression ratio achieved over all approx blocks ever compressed:
  /// 16 / (mean compressed size in lines), as reported in Table 4.
  double mean_compression_ratio() const;

 private:
  bool approx(uint64_t addr) const { return regions_.is_approx(addr); }

  struct CompressOutcome {
    uint32_t lines = 0;  // 0 = compression failed
    Method method = Method::kUncompressed;
    int8_t bias = 0;
  };
  /// Runs the compressor on the block's current backing values, reusing
  /// this subsystem's scratch_. On success applies the reconstruction to
  /// the backing store (the functional effect of the block now living in
  /// compressed form) and returns the compressed size/method/bias;
  /// lines == 0 on failure. Counts compressor events. An attempt on the
  /// bits of a remembered one returns its outcome without compressing.
  CompressOutcome compress_block_values(uint64_t block);

  /// Stores a compression outcome to memory: the `out.lines`-line image,
  /// or the 1 KB raw block when compression failed. Sets the CMT entry to
  /// match, clears its lazy lines, and resets or bumps its failure history.
  void write_block(uint64_t now, uint64_t block, BlockMeta& meta,
                   const CompressOutcome& out);

  /// Serves `line` from the DBUF (which holds its block): marks it requested
  /// and writes it into the LLC as a UCL, or touches the UCL already there.
  void deliver_from_dbuf(uint64_t now, uint64_t line, bool write);
  /// Displaces the DBUF with freshly decompressed `block`, after the PFE
  /// decision on the outgoing block (Sec. 3.3).
  void refill_dbuf(uint64_t now, uint64_t block);
  /// Cycles to stream a k-line image out of the LLC and decompress it.
  uint64_t decompress_cycles(uint32_t k) const;

  /// Fig. 8, dirty-UCL branch.
  void handle_dirty_ucl(uint64_t now, uint64_t line, int depth);
  /// Fig. 8, dirty-CMS branch: the whole compressed block leaves the LLC.
  void handle_cms_block_evict(uint64_t now, uint64_t block, bool dirty);
  /// Handles (and clears) the victims collected at cascade depth `depth`.
  void process_victims(uint64_t now, int depth);
  /// The victim list of cascade depth `depth`, empty, for an LLC insert to
  /// fill before process_victims(now, depth).
  std::vector<LlcVictim>& victim_list(int depth);
  /// Marks the block's dirty UCLs clean (they were folded into its image).
  void mark_block_ucls_clean(uint64_t block);

  /// Failure-history gate (Sec. 3.5): true if this attempt must be skipped.
  bool should_skip_attempt(BlockMeta& meta);

  static constexpr int kMaxDepth = 4;

  /// A compression attempt that left the block's values as they were: a
  /// failure, or a success whose reconstruction equals its input bit for
  /// bit. Since Compressor::compress is a pure function of the bits and
  /// the config, any later attempt on equal bits has this outcome and
  /// leaves the values as they are too.
  struct RememberedCompression {
    bool valid = false;
    CompressOutcome outcome;
    std::array<float, kValuesPerBlock> values;  // the attempt's input
  };
  /// Direct-mapped by block number. On the paper's kernels 64 entries
  /// (66 KB) catch nearly all the repeats that 1024 would, and 8 fall short
  /// on lbm (docs/ARCHITECTURE.md, "Remembered compressions").
  static constexpr uint32_t kCompressMemoEntries = 64;

  SimConfig cfg_;
  RegionRegistry& regions_;
  Dram dram_;
  AvrLlc llc_;
  Cmt cmt_;
  Compressor compressor_;
  // Scratch-ownership convention: the per-event caller owns the pipeline's
  // working buffers and threads them through every compression attempt, so
  // the datapath never allocates. One scratch per AvrSystem suffices —
  // compression events within one simulated system are serial.
  CompressorScratch scratch_;
  // The same convention for LLC victims: one list per cascade depth
  // (a flow at depth d fills only list d + 1, so list d stays put while it
  // is walked). Lists are cleared, never freed, so the victim path stops
  // allocating once they have grown.
  std::array<std::vector<LlcVictim>, kMaxDepth + 1> victims_;
  std::array<RememberedCompression, kCompressMemoEntries> remembered_;
  Dbuf dbuf_;
  AvrSystemCounters counters_;
  bool last_was_miss_ = false;

  // Running tally for Table 4: sum of compressed sizes and #compressions.
  uint64_t compressed_lines_sum_ = 0;
  uint64_t compressed_blocks_ = 0;
};

}  // namespace avr
