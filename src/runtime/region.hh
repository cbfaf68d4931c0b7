// Region registry: maps simulated physical addresses to host memory.
//
// Workloads allocate buffers through the runtime; each allocation reserves a
// block-aligned simulated address range and registers whether it is
// approximable and what datatype it holds (the paper's malloc wrapper +
// OS page-table annotation, Sec. 3.1). The compression designs mutate the
// host memory through this registry, which is how approximation errors
// propagate into application output exactly as in the paper's methodology
// ("we actually update the values of the memory contents").
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace avr {

struct MemoryRegion {
  uint64_t base = 0;    // simulated physical address, kBlockBytes-aligned
  uint64_t bytes = 0;   // padded to a whole number of blocks
  bool approx = false;
  DType dtype = DType::kFloat32;
  std::string name;
  std::unique_ptr<std::byte[]> host;  // backing store, `bytes` long
};

/// Resolved view of one region, handed to workloads so the per-access
/// functional path is a plain pointer add instead of a registry search.
/// Valid for the owning RegionRegistry's lifetime: the backing array never
/// moves (regions are never freed, and `host` owns the array independently
/// of the registry's region vector reallocating).
struct RegionHandle {
  std::byte* host = nullptr;  // backing store base
  uint64_t sim_base = 0;      // simulated physical base address
  uint64_t bytes = 0;         // padded region length

  /// Simulated address of byte offset `off` (for the timing path).
  uint64_t addr(uint64_t off) const { return sim_base + off; }
  bool valid() const { return host != nullptr; }
};

class RegionRegistry {
 public:
  /// Allocates a region of `bytes` (rounded up to whole memory blocks).
  /// Returns its simulated base address.
  uint64_t allocate(std::string name, uint64_t bytes, bool approx,
                    DType dtype = DType::kFloat32);

  /// Region containing `addr`, or nullptr.
  const MemoryRegion* find(uint64_t addr) const;

  /// Handle for the region named `name` (first match), or an invalid handle.
  RegionHandle handle(const std::string& name);

  bool is_approx(uint64_t addr) const {
    const MemoryRegion* r = find(addr);
    return r && r->approx;
  }

  /// Host pointer backing simulated address `addr` (must be mapped).
  std::byte* host_ptr(uint64_t addr);
  const std::byte* host_ptr(uint64_t addr) const;

  /// Typed access to the backing store.
  template <typename T>
  T load(uint64_t addr) const {
    T v;
    __builtin_memcpy(&v, host_ptr(addr), sizeof(T));
    return v;
  }
  template <typename T>
  void store(uint64_t addr, T v) {
    __builtin_memcpy(host_ptr(addr), &v, sizeof(T));
  }

  /// The 256 floats of the memory block containing `addr`, viewed in place.
  std::span<float, kValuesPerBlock> block_values(uint64_t addr);
  std::span<const float, kValuesPerBlock> block_values(uint64_t addr) const;

  const std::vector<MemoryRegion>& regions() const { return regions_; }
  /// Position of `r`, one of this registry's regions, in regions(). Stable:
  /// regions are only ever appended.
  size_t ordinal(const MemoryRegion& r) const {
    assert(&r >= regions_.data() && &r < regions_.data() + regions_.size());
    return static_cast<size_t>(&r - regions_.data());
  }

  /// Total footprint of all regions / of approximable regions, in bytes.
  uint64_t total_bytes() const;
  uint64_t approx_bytes() const;

 private:
  std::vector<MemoryRegion> regions_;  // sorted by base
  uint64_t next_base_ = 0x1000'0000;   // leave low addresses unmapped
};

}  // namespace avr
