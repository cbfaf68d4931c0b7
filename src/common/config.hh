// Simulation configuration, mirroring Table 1 of the paper plus the AVR
// design knobs exposed in Sec. 3. Defaults reproduce the paper setup
// except where noted (LLC size is scaled per workload so that the scaled
// workload footprint keeps the paper's footprint-to-LLC ratio).
#pragma once

#include <cstdint>

#include "common/types.hh"

namespace avr {

struct CoreConfig {
  uint32_t dispatch_width = 4;   // 4-way issue/commit OoO
  uint32_t rob_size = 192;       // instruction window for miss overlap
  double freq_ghz = 3.2;
  // Private-cache hit latencies in core cycles; an L2 hit is charged
  // l1_latency + l2_latency (cpu/hierarchy.cc).
  uint32_t l1_latency = 1;
  uint32_t l2_latency = 8;
};

struct CacheConfig {
  uint64_t size_bytes = 0;
  uint32_t ways = 0;
  uint32_t latency = 0;
};

struct DramConfig {
  uint32_t channels = 2;
  uint32_t banks_per_channel = 16;
  uint64_t row_bytes = 2048;  // 2 KB row buffer per bank
  // DDR4-1600 timing in *memory bus* cycles (800 MHz clock).
  uint32_t t_cl = 11;
  uint32_t t_rcd = 11;
  uint32_t t_rp = 11;
  uint32_t t_burst = 4;  // 8 beats on a 64-bit bus = 64 B
  // CPU cycles per DRAM bus cycle (3.2 GHz / 800 MHz).
  uint32_t cpu_per_dram_cycle = 4;
  uint32_t controller_latency = 20;  // queueing/scheduling overhead, CPU cycles
};

struct AvrConfig {
  // Error thresholds (Sec. 3.3): T1 bounds each individual value's relative
  // error, T2 bounds the block-average error; the paper uses T1 = 2*T2.
  // T1 is expressed as the index N of the mantissa MSbit the difference may
  // not reach: error < 1/2^N. N=4 -> T1 = 6.25 %.
  uint32_t t1_mantissa_msbit = 4;
  // Sweep override: when >= 0, the harness forces this T1 msbit index for
  // every workload instead of the per-workload Workload::t1_msbit() default
  // (avr_sweep --set avr.t1_override=N). -1 = per-workload thresholds.
  int32_t t1_override = -1;
  bool enable_1d = true;
  bool enable_2d = true;
  // Lossless-fallback tier (extension design point, not in the paper): when
  // every enabled lossy variant blows the T1/T2 outlier budget, try BDI
  // (src/lossless) over the block's raw bit image before giving up. BDI
  // reconstruction is exact, so enabling it never adds approximation error —
  // it only converts would-be-uncompressed blocks into compressed ones.
  bool enable_bdi_hybrid = false;
  bool enable_lazy_eviction = true;
  bool enable_failure_history = true;
  bool enable_pfe = true;
  // PFE threshold: promote remaining DBUF lines if at least this many of the
  // block's 16 lines were explicitly requested (paper: half).
  uint32_t pfe_threshold = 8;
  // Pipeline latencies from the paper's synthesis (Sec. 3.3).
  uint32_t compress_latency = 49;
  uint32_t decompress_latency = 12;
  // Extra LLC array accesses to stream a k-line compressed block are
  // pipelined; each extra CMS costs this many cycles after the first.
  uint32_t cms_stream_cycles = 2;
  // Failure-history policy: after f consecutive failed compressions skip
  // min(f, max_skips) subsequent attempts (2-bit skip counter, Fig. 3);
  // at max_failures consecutive failures the block is permanently treated
  // as incompressible ("Max tries" in Fig. 8).
  uint32_t max_skips = 3;
  uint32_t max_failures = 4;
};

struct SimConfig {
  CoreConfig core;
  CacheConfig l1{64 * 1024, 4, 1};
  CacheConfig l2{256 * 1024, 8, 8};
  CacheConfig llc{8 * 1024 * 1024, 16, 15};
  DramConfig dram;
  AvrConfig avr;

  // Truncate baseline: bits removed from each fp32 (16 -> 2:1 link ratio).
  uint32_t truncate_bits = 16;

  // Doppelganger: tag array entries = dg_tag_factor * data entries.
  uint32_t dg_tag_factor = 4;
  // Approximate-hash quantization buckets for line average / range.
  uint32_t dg_avg_buckets = 512;
  uint32_t dg_range_buckets = 64;

  // Instructions charged per instrumented memory access in addition to the
  // load/store itself (models the surrounding arithmetic of the kernel).
  uint32_t ops_per_access = 4;

  /// Divide all cache capacities by `f` (used to keep scaled-down workload
  /// footprints in proportion to the paper's 8 MB LLC).
  void scale_caches(uint32_t f) {
    if (f <= 1) return;
    l1.size_bytes /= f;
    l2.size_bytes /= f;
    llc.size_bytes /= f;
  }
};

/// Deterministic 64-bit fingerprint of every simulation knob: FNV-1a over
/// the fields, folded from the config table (common/config_table.hh) —
/// never over raw struct bytes, which would hash padding. Two SimConfigs
/// produce comparable simulation results iff their fingerprints match, so
/// the result cache keys records with it: the ablation sweeps can share one
/// cache file with the default-config grid.
uint64_t config_fingerprint(const SimConfig& c);

}  // namespace avr
