// Runtime-dispatched SIMD kernels for the compressor datapath.
//
// The Sec. 3.3 pipeline was rewritten (PR 4) as structure-of-arrays batch
// loops over 256-value blocks precisely so it could vectorize; this layer
// supplies the explicit vector implementations. The hardware the paper
// models converts a whole line per cycle (the one-cycle fixed-point
// converters of Saldanha et al., see fixed_point.hh) — AVX2 lanes are the
// software analogue.
//
// Dispatch contract:
//   - Two implementation levels: kScalar (the reference, always built) and
//     kAvx2 (AVX2, 8 lanes). The active level is chosen ONCE, on first use,
//     as the highest level both the build (the AVX2 TU is compiled on every
//     x86-64 target) and the CPU (__builtin_cpu_supports) provide,
//     overridable with the environment variable AVR_SIMD=scalar|avx2 (an
//     unsupported or unparseable override warns and clamps). A CPU without
//     AVX2 runs the scalar reference, which produces the same bits.
//   - Every kernel is *proven bit-identical* to the scalar reference on all
//     inputs: the vector bodies run an in-range fast path and re-run the
//     scalar reference for any lane (or block) whose value falls outside it
//     (non-finite, saturating, exponent-field over/underflow, 32-bit
//     interpolation-delta overflow). test_simd_kernels sweeps AVX2 against
//     scalar on adversarial corpora; test_compressor_identity's pinned
//     digests and the full-sweep --assert-same hold at both levels.
//   - Kernels are reached through a function-pointer table (kernels()), one
//     indirect call per *block-sized batch*, never per value. The active
//     table pointer is an atomic: simulation threads may race the first
//     call, and tests/benches switch levels between (not during) runs via
//     simd_set_level.
//
// The AVX2 translation unit is compiled with a per-file -mavx2 flag (no
// global -march), so the binary still runs on baseline x86-64: only the
// dispatched calls execute ISA-specific instructions. That TU must not
// call inline functions from shared headers (the linker could keep the
// AVX2-compiled copy of an inline symbol and hand it to scalar callers);
// it includes only <immintrin.h> plus simd_impl.hh and crosses back into
// baseline code through the out-of-line detail:: helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace avr {

/// Implementation levels, in increasing preference order. The values are
/// stable: benches label their rows with them (BM_Kernel*/0 and /2).
enum class SimdLevel : uint8_t { kScalar = 0, kAvx2 = 2 };

/// The level the dispatched kernels currently run at (initializing the
/// dispatch on first call: build/CPU detection + the AVR_SIMD override).
SimdLevel simd_level();

/// Highest level both this build and this CPU support.
SimdLevel simd_max_supported_level();

/// Rebinds the kernel table to `lvl`; false (and no change) if `lvl` is
/// unsupported. For tests and benchmarks — switch between runs, not while
/// another thread is inside the datapath.
bool simd_set_level(SimdLevel lvl);

/// Stable lower-case identifier: "scalar", "avx2" (the AVR_SIMD
/// env grammar, profile sidecar field, and bench/test labels).
const char* simd_level_name(SimdLevel lvl);

/// Parses a simd_level_name; false for unknown names.
bool simd_parse_level(std::string_view name, SimdLevel* out);

/// The level startup would pick given this AVR_SIMD value (nullptr/"" =
/// no override): parse, warn on garbage, clamp to max supported. Pure
/// selection logic, exposed so tests can pin the env contract.
SimdLevel simd_choose_level(const char* env_value);

/// Re-runs startup selection against the current environment and activates
/// the result (tests of the env override; startup calls this once).
SimdLevel simd_reinit_from_env();

namespace simd {

/// Caller-wired state of the float-path error scan (error_scan_f32): the
/// scan zeroes and fills `bitmap_words`, appends exact outlier images to
/// `outlier_bits` in block order, and accumulates the counters. It writes
/// only outlier_bits[0, max_outliers); entries from n_outliers on hold
/// unspecified values (a vector level stores whole 8-lane groups while the
/// budget leaves room for them). When `image` is set, the scan also writes
/// the decompressed float block there: image[i] is the original bits for
/// an outlier and the unbiased reconstruction otherwise (for an exact
/// value the two are the same bits). On a false return (outlier budget
/// exceeded, scan aborted) the state and the image are partial and must be
/// discarded, mirroring the scalar scan's abandoned attempt.
struct ErrorScanState {
  uint64_t* bitmap_words = nullptr;  // ceil(n/64) words, zeroed by the scan
  uint32_t* outlier_bits = nullptr;  // capacity >= max_outliers
  float* image = nullptr;            // optional: n values, or nullptr
  uint32_t max_outliers = 0;
  uint32_t n_outliers = 0;
  uint32_t non_outliers = 0;
  int64_t dm_sum = 0;  // sum of non-outlier absolute mantissa differences
};

/// One dispatch level's kernel set. All pointers are into flat SoA arrays
/// (a Fixed32 is one int32_t; the avr-layer wrappers static_assert the
/// layout); n is a value count, not bytes. Semantics are defined by the
/// scalar reference implementations in simd.cc — every other level must be
/// bit-identical on every input.
struct KernelTable {
  /// Stages 1 and 2 of the compressor in one pass: float block -> Q16.16
  /// raw block, each value first given `bias` on its exponent field
  /// (f32_scale_exponent: fields of 0 stay put, bias 0 is the plain
  /// conversion), then converted with saturating round-half-away-from-zero,
  /// non-finite -> 0 (fixed_point.hh's batch contract). in and out must not
  /// overlap.
  void (*fixed32_from_f32_biased)(const float* in, int32_t* out, size_t n,
                                  int8_t bias);

  /// choose_bias's reduction: max exponent field over the block, and min
  /// over nonzero fields with zero fields contributing 256.
  void (*exponent_minmax)(const float* in, size_t n, int* e_max, int* e_min);

  /// In-place low-mantissa truncation of every finite value (the Truncate
  /// baseline's line chop).
  void (*truncate_low_bits)(float* vals, size_t n, unsigned bits);

  /// 1D summarize: 16 round-half-away-from-zero averages of 16 consecutive
  /// Q16.16 raws each (in: 256 values, out: 16).
  void (*summarize_1d)(const int32_t* in, int32_t* out);

  /// 2D summarize: 4x4 tile averages over the 16x16 grid, row-major
  /// (in: 256 values, out: 16).
  void (*summarize_2d)(const int32_t* in, int32_t* out);

  /// Table-driven interpolation: out[i] = avg[left[i]] +
  /// trunc((avg[right[i]] - avg[left[i]]) * w[i] / 2^log2_den), the 64-bit
  /// Fixed32::lerp arithmetic. `avg` must hold (at least) the 16 summary
  /// values and every index must be < 16: the vector kernels keep the whole
  /// table in registers instead of gathering from memory.
  void (*lerp_gather)(const int32_t* avg, const uint8_t* left,
                      const uint8_t* right, const int8_t* w, int log2_den,
                      int32_t* out, size_t n);

  /// The full 2D reconstruction: hoisted per-average-row column lerps, then
  /// one vertical lerp per value (downsample.cc's reconstruct_2d), driven
  /// by the shared 16-entry (left, right, w) axis table with denominator 8.
  void (*reconstruct_2d)(const int32_t* avg, const uint8_t* left,
                         const uint8_t* right, const int8_t* w, int32_t* out);

  /// The float-path error check of Compressor::try_method: classifies every
  /// value against its reconstruction (exact / outlier / mantissa delta),
  /// fills `st` (and st->image, when set: the decompressed block), and
  /// returns false the moment the outlier budget would be exceeded.
  /// `recon_raw` is the biased-domain Q16.16 reconstruction; `limit` the
  /// mantissa-difference outlier threshold.
  bool (*error_scan_f32)(const float* original, const int32_t* recon_raw,
                         size_t n, int8_t bias, uint32_t limit,
                         ErrorScanState* st);

  /// CRC-32C (Castagnoli, reflected) running update: folds data[0..n) into
  /// `crc` and returns the new state — same chaining convention as the
  /// x86 crc32 instruction, so callers start from ~0 and finalize with ~.
  /// Guards the result-cache v5 record framing (result_cache.cc); the
  /// avx2 entry uses the hardware instruction, 8 bytes per step.
  uint32_t (*crc32c_update)(uint32_t crc, const uint8_t* data, size_t n);
};

/// The active level's table (one atomic load; initializes dispatch on the
/// first call).
const KernelTable& kernels();

}  // namespace simd
}  // namespace avr
