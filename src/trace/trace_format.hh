// Compact binary trace format v1: recorded memory-access streams replayable
// through the RegionHandle runtime API (the `trace:<path>` workload).
//
// Layout (all integers little-endian, serialized field by field — never by
// struct copy, so padding bytes can neither leak nor alias):
//
//   header   (24 B)  magic "AVRTRACE", u32 version (=1), u32 region_count,
//                    u64 record_count
//   regions  (40 B each)  char name[24] NUL-padded, u64 bytes, u32 flags
//                    (bit 0 = approx, others reserved-zero), u32 reserved
//   records  (16 B each)  u8 op (0 = load, 1 = store), u8 reserved,
//                    u16 region index, u32 size (bytes), u64 offset
//
// Reader contract (the tolerant-reader wall): trace bytes come from disk
// and are UNTRUSTED. Every reject path — wrong magic/version, truncated
// header or region table, torn final record, region index out of range,
// offset/size past the region end, zero regions, absurd counts — returns
// false with a one-line reason; no input may crash, over-allocate, or
// invoke UB. The expected file size is computed from the header *before*
// any record is parsed, so a hostile count cannot drive allocation beyond
// the actual file size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace avr {
namespace trace {

inline constexpr char kTraceMagic[8] = {'A', 'V', 'R', 'T', 'R', 'A', 'C', 'E'};
inline constexpr uint32_t kTraceVersion = 1;
inline constexpr size_t kHeaderBytes = 24;
inline constexpr size_t kRegionEntryBytes = 40;
inline constexpr size_t kRecordBytes = 16;
inline constexpr size_t kRegionNameBytes = 24;  // includes the NUL padding

// Sanity bounds enforced by reader AND writer. They exist so a hostile
// header cannot make replay allocate unbounded host memory: the region
// table is what sizes allocations, so it is capped independently of the
// (file-size-bounded) record stream.
inline constexpr uint32_t kMaxRegions = 4096;
inline constexpr uint64_t kMaxRegionBytes = 1ull << 30;        // 1 GiB each
inline constexpr uint64_t kMaxTraceFootprint = 256ull << 20;   // 256 MiB total
inline constexpr uint32_t kMaxRecordSize = 4096;               // bytes per record

enum class Op : uint8_t { kLoad = 0, kStore = 1 };

struct TraceRegion {
  std::string name;    // 1..23 printable non-comma chars
  uint64_t bytes = 0;  // > 0, <= kMaxRegionBytes
  bool approx = false;
};

struct TraceRecord {
  Op op = Op::kLoad;
  uint16_t region = 0;  // index into the region table
  uint32_t size = 0;    // bytes touched: 4-aligned, 4..kMaxRecordSize
  uint64_t offset = 0;  // 4-aligned, offset + size <= region bytes
};

struct Trace {
  std::vector<TraceRegion> regions;
  std::vector<TraceRecord> records;

  uint64_t footprint_bytes() const {
    uint64_t total = 0;
    for (const auto& r : regions) total += r.bytes;
    return total;
  }
  /// Total 4-byte words the record stream touches (= instrumented accesses a
  /// replay will issue); the scheduler's cost proxy.
  uint64_t access_count() const {
    uint64_t words = 0;
    for (const auto& r : records) words += r.size / 4;
    return words;
  }
};

/// Structural validity of an in-memory trace (the writer refuses to produce
/// a file the reader would reject). True, or false with a reason in *error.
bool validate_trace(const Trace& t, std::string* error);

/// Serializes `t` to `path`. False (with *error) on invalid trace or I/O
/// failure; a failed write never leaves a truncated file behind as `path`.
bool write_trace_file(const std::string& path, const Trace& t, std::string* error);

/// Parses `path` under the tolerant-reader contract above. On failure *out
/// is untouched.
bool read_trace_file(const std::string& path, Trace* out, std::string* error);

}  // namespace trace
}  // namespace avr
