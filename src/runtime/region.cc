#include "runtime/region.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace avr {

uint64_t RegionRegistry::allocate(std::string name, uint64_t bytes, bool approx,
                                  DType dtype) {
  if (bytes == 0) throw std::invalid_argument("empty region");
  const uint64_t padded = (bytes + kBlockBytes - 1) & ~(kBlockBytes - 1);
  MemoryRegion r;
  r.base = next_base_;
  r.bytes = padded;
  r.approx = approx;
  r.dtype = dtype;
  r.name = std::move(name);
  r.host = std::make_unique<std::byte[]>(padded);  // value-initialized: zeroed
  // Separate consecutive regions by a page so a block never straddles two
  // regions and allocation stays page-aligned like the paper's wrapper.
  next_base_ += (padded + kPageBytes - 1) & ~(kPageBytes - 1);
  const uint64_t base = r.base;
  regions_.push_back(std::move(r));
  return base;
}

RegionHandle RegionRegistry::handle(const std::string& name) {
  for (auto& r : regions_)
    if (r.name == name) return {r.host.get(), r.base, r.bytes};
  return {};
}

const MemoryRegion* RegionRegistry::find(uint64_t addr) const {
  // Regions are allocated in ascending order; binary search on base.
  auto it = std::upper_bound(regions_.begin(), regions_.end(), addr,
                             [](uint64_t a, const MemoryRegion& r) { return a < r.base; });
  if (it == regions_.begin()) return nullptr;
  --it;
  if (addr < it->base + it->bytes) return &*it;
  return nullptr;
}

std::byte* RegionRegistry::host_ptr(uint64_t addr) {
  const MemoryRegion* r = find(addr);
  if (!r) throw std::out_of_range("unmapped simulated address");
  return const_cast<MemoryRegion*>(r)->host.get() + (addr - r->base);
}

const std::byte* RegionRegistry::host_ptr(uint64_t addr) const {
  return const_cast<RegionRegistry*>(this)->host_ptr(addr);
}

std::span<float, kValuesPerBlock> RegionRegistry::block_values(uint64_t addr) {
  auto* p = reinterpret_cast<float*>(host_ptr(block_addr(addr)));
  return std::span<float, kValuesPerBlock>(p, kValuesPerBlock);
}

std::span<const float, kValuesPerBlock> RegionRegistry::block_values(uint64_t addr) const {
  auto* p = reinterpret_cast<const float*>(host_ptr(block_addr(addr)));
  return std::span<const float, kValuesPerBlock>(p, kValuesPerBlock);
}

uint64_t RegionRegistry::total_bytes() const {
  uint64_t n = 0;
  for (const auto& r : regions_) n += r.bytes;
  return n;
}

uint64_t RegionRegistry::approx_bytes() const {
  uint64_t n = 0;
  for (const auto& r : regions_)
    if (r.approx) n += r.bytes;
  return n;
}

}  // namespace avr
