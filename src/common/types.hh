// Core constants and small shared types for the AVR reproduction.
//
// Terminology follows the paper (ICPP'19):
//   cacheline (CL)      = 64 B, the DRAM access granularity
//   memory block        = 16 consecutive cachelines = 1 KB (1/4 of a 4 KB page)
//   CMS                 = compressed memory sub-block, one 64 B piece of a
//                         compressed block stored in the LLC
//   UCL                 = uncompressed cacheline stored in the LLC
#pragma once

#include <cstddef>
#include <cstdint>

namespace avr {

inline constexpr uint64_t kCachelineBytes = 64;
inline constexpr uint64_t kBlockLines = 16;                      // CLs per memory block
inline constexpr uint64_t kBlockBytes = kCachelineBytes * kBlockLines;  // 1 KB
inline constexpr uint64_t kPageBytes = 4096;
inline constexpr uint64_t kBlocksPerPage = kPageBytes / kBlockBytes;    // 4
inline constexpr uint64_t kValuesPerLine = kCachelineBytes / sizeof(float);   // 16
inline constexpr uint64_t kValuesPerBlock = kBlockBytes / sizeof(float);      // 256

// Maximum number of cachelines a *compressed* block may occupy. Beyond this
// the block is stored uncompressed (2:1 worst-case ratio, Sec. 3.1).
inline constexpr uint32_t kMaxCompressedLines = 8;

// Saturation limits of the CMT entry's failure-history counters (Fig. 3):
// the 4-bit failed count and the 2-bit skipped count.
inline constexpr uint32_t kMaxFailedCount = 15;
inline constexpr uint32_t kMaxSkippedCount = 3;

/// Address helpers. Simulated physical addresses are plain 64-bit integers.
constexpr uint64_t line_addr(uint64_t addr) { return addr & ~(kCachelineBytes - 1); }
constexpr uint64_t block_addr(uint64_t addr) { return addr & ~(kBlockBytes - 1); }
constexpr uint64_t page_addr(uint64_t addr) { return addr & ~(kPageBytes - 1); }
/// Offset of a cacheline within its memory block, 0..15.
constexpr uint32_t line_in_block(uint64_t addr) {
  return static_cast<uint32_t>((addr >> 6) & (kBlockLines - 1));
}

/// Datatype of values in an approximable region (Sec. 3.3 supports 32-bit
/// float and fixed point; the compressor dispatches on this).
enum class DType : uint8_t {
  kFloat32 = 0,
  kFixed32 = 1,  // Q16.16 two's-complement fixed point
};

/// Compression method recorded in the CMT (2-bit field, Fig. 3). The first
/// three values are the paper's; kBdiHybrid is the extension design point:
/// lossless base-delta-immediate fallback when a block blows the lossy
/// outlier budget (avr/method.hh maps each method to its tier and size
/// model). Four values fill the 2-bit field exactly.
enum class Method : uint8_t {
  kUncompressed = 0,
  kDownsample1D = 1,  // block treated as a 256-entry linear array
  kDownsample2D = 2,  // block treated as a 16x16 square array
  kBdiHybrid = 3,     // lossless BDI image (src/lossless), exact reconstruction
};

/// The design points evaluated in Sec. 4.
enum class Design : uint8_t {
  kBaseline = 0,
  kDoppelganger = 1,
  kTruncate = 2,
  kZeroAvr = 3,  // AVR hardware present, nothing marked approximate
  kAvr = 4,
};

const char* to_string(Design d);
const char* to_string(Method m);
const char* to_string(DType t);

}  // namespace avr
