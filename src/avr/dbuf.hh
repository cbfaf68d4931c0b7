// Decompressed Block Buffer (DBUF) and Prefetch Engine (PFE), Sec. 3.3.
//
// After decompression only the requested cacheline goes to the LLC; the
// remaining 15 reconstructed lines wait in the DBUF, serving later requests
// to the same block without touching DRAM. When a new block arrives the PFE
// decides whether the displaced block's lines should be promoted to the LLC:
// it promotes all remaining lines iff at least `threshold` of the block's
// lines were explicitly requested while it was buffered (paper: half).
#pragma once

#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace avr {

class Dbuf {
 public:
  /// Is a decompressed block currently buffered?
  bool valid() const { return valid_; }
  /// Block address of the buffered block (meaningful only when valid()).
  uint64_t block() const { return block_; }

  /// Does the buffer hold the block containing `addr`?
  bool holds(uint64_t addr) const { return valid_ && block_addr(addr) == block_; }

  /// Record an explicit request served from the buffer.
  void mark_requested(uint64_t line) { requested_ |= mask_of(line); }
  /// Record that a line was copied into the LLC (so the PFE skips it).
  void mark_in_llc(uint64_t line) { in_llc_ |= mask_of(line); }

  /// How many distinct lines were explicitly requested since the refill
  /// (the PFE's promotion criterion input).
  uint32_t requested_count() const { return std::popcount(requested_); }
  bool line_in_llc(uint64_t line) const { return in_llc_ & mask_of(line); }

  /// Load a freshly decompressed block, displacing the previous one.
  void refill(uint64_t block) {
    valid_ = true;
    block_ = block_addr(block);
    requested_ = 0;
    in_llc_ = 0;
  }
  /// Drop the buffered block (e.g. its backing block was recompressed).
  void invalidate() { valid_ = false; }

 private:
  static uint16_t mask_of(uint64_t line) {
    return static_cast<uint16_t>(1u << line_in_block(line));
  }
  bool valid_ = false;
  uint64_t block_ = 0;
  uint16_t requested_ = 0;
  uint16_t in_llc_ = 0;
};

}  // namespace avr
