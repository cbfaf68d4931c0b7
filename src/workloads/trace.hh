// The `trace:<path>` workload: replays a recorded access stream (binary
// trace format v1, src/trace/trace_format.hh) through the RegionHandle
// runtime API, so every trace file is a first-class sweep point —
// shardable, cacheable, `--check`- and `--assert-same`-able like the seven
// hand-written kernels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace/trace_format.hh"
#include "workloads/workload.hh"

namespace avr {

class System;
struct RegionHandle;

/// Workload over an in-memory trace (benches and tests); `name` becomes the
/// sweep-point key. Throws std::invalid_argument if `t` fails
/// trace::validate_trace.
std::unique_ptr<Workload> make_trace_workload(std::string name, trace::Trace t);

/// Workload for the sweep-point name "trace:<path>": loads and fully
/// validates the file EAGERLY, so a missing/corrupt trace fails here — at
/// make_workload time, i.e. at `avr_sweep --list`/startup — with a
/// diagnosable std::invalid_argument, never mid-sweep at replay time.
/// The parsed trace is memoised per process, keyed by the path and the
/// file's (device, inode, size, mtime): later calls on an unchanged file
/// share it instead of re-reading, and a changed file is parsed afresh.
/// A file rewritten in place with the same size within one mtime tick is
/// not noticed. Thread-safe.
std::unique_ptr<Workload> make_trace_workload_from_spec(const std::string& name);

/// How many times this process has read and validated a trace file for
/// make_trace_workload_from_spec (memo misses). For tests.
uint64_t trace_file_parses();

/// Image bytes the per-process region-image memo holds at most. Images
/// beyond it are generated for every request, as without the memo.
inline constexpr uint64_t kTraceImageMemoBudgetBytes = 32ull << 20;

/// Fills the replay region `h` with exactly the bytes
/// trace::init_region(sys, h, seed) writes. From the third request for one
/// (seed, h.bytes) on, the image is kept in a per-process memo (within
/// kTraceImageMemoBudgetBytes) and later requests copy it instead of
/// regenerating it. Thread-safe.
void fill_trace_region(System& sys, const RegionHandle& h, uint64_t seed);

/// Bytes of region images the memo behind fill_trace_region holds. For
/// tests.
uint64_t trace_image_memo_bytes();

/// True iff `name` is a trace sweep-point spec ("trace:<path>").
bool is_trace_workload_name(const std::string& name);

}  // namespace avr
