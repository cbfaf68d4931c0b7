// Synthetic access-stream generators: the irregular patterns the paper's
// loop-structured kernels cannot produce, used to stress the access-chain
// fast path (PR 5's L1 MRU filter was tuned on regular streams) and to seed
// `data/traces/`. Shared by the avr_trace_gen tool, the replay benches and
// the tests so all of them agree on what each pattern means.
//
// Every generator is a pure function of its arguments (deterministic PRNG,
// no global state): the same (pattern, records, regions, bytes, seed) tuple
// produces a bit-identical Trace on every machine.
#pragma once

#include <cstdint>
#include <string>

#include "trace/trace_format.hh"

namespace avr {
namespace trace {

/// Every generator validates its parameters and throws std::invalid_argument
/// naming the field (and the avr_trace_gen flag) for a value it cannot
/// honour; none is silently clamped.
struct GenParams {
  uint64_t records = 1 << 16;       // record count (one 4 B access each)
  uint32_t regions = 4;             // regions to spread the stream over, >= 1
  uint64_t region_bytes = 1 << 18;  // bytes per region: 4-aligned, >= 64
  double store_fraction = 0.25;     // stores in the stream, in [0, 1]
  uint64_t seed = 1;
};

/// Pointer-chasing: each region holds a random cyclic permutation of its
/// cachelines; the stream follows the chain, so consecutive accesses share
/// neither a line nor a predictable stride — the MRU filter's worst case.
Trace make_chase_trace(const GenParams& p);

/// Zipf-like hot set: accesses concentrate on a small hot subset of each
/// region's words (~80/20), with the cold tail touched occasionally —
/// server-churn locality rather than streaming locality.
Trace make_zipf_trace(const GenParams& p);

/// Bounded random walk: the offset wanders in small random steps with
/// occasional long jumps and variable record sizes (up to one cacheline),
/// the shape of heap-allocator and graph-traversal traffic.
Trace make_walk_trace(const GenParams& p);

/// All three interleaved round-robin, one pattern per region group of
/// max(1, regions / 3) regions. Emits 3 x floor(records / 3) records.
Trace make_mixed_trace(const GenParams& p);

/// Generator by name: "chase", "zipf", "walk", "mixed". Throws
/// std::invalid_argument for unknown names and out-of-range parameters.
Trace make_synthetic_trace(const std::string& pattern, const GenParams& p);

}  // namespace trace
}  // namespace avr
