// In-memory representation of an AVR compressed memory block (Fig. 2a).
//
// Layout in the 1 KB memory block:
//   line 0          : block summary (16 sub-block averages)
//   line 1 (half)   : outlier bitmap (256 bits), present iff outliers exist
//   line 1.5 ..     : outliers, packed in block order
//   tail            : free space for lazily-evicted uncompressed cachelines
//
// The summary is kept in the biased fixed-point domain; `bias` and `method`
// travel in the CMT entry (Fig. 3) but are duplicated here for convenience.
// A lossless-exact encoding (Method::kBdiHybrid) uses none of the summary
// machinery: it is a pure size record (`encoded_bytes`) over the block's
// raw bit image — the simulator never stores BDI-encoded bytes, and the
// backing data itself is the exact reconstruction.
//
// The whole struct is trivially copyable: the outlier list is a
// fixed-capacity inline array (the 8-line budget bounds it at
// kMaxBlockOutliers entries), so building or copying an encoding never
// touches the heap — the compressor datapath reuses one of these per
// attempt through CompressorScratch.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "avr/method.hh"
#include "common/bitmap.hh"
#include "common/types.hh"

namespace avr {

// The size constants live in avr/method.hh with the per-method size model;
// the bitmap type must stay one-bit-per-block-value for them to agree.
static_assert(kBitmapBytes == Bitmap256::kBits / 8);

/// Fixed-capacity inline list of raw 32-bit outlier images. Mirrors the
/// std::vector surface the encoding consumers use (size/empty/iteration/
/// indexing) without per-attempt allocation; push_back beyond capacity is
/// the caller's bug (the error-check loop aborts an attempt *before*
/// exceeding kMaxBlockOutliers) — Debug builds trap it.
class OutlierList {
 public:
  constexpr uint32_t size() const { return n_; }
  constexpr bool empty() const { return n_ == 0; }
  constexpr void clear() { n_ = 0; }

  constexpr void push_back(uint32_t bits) {
    assert(n_ < kMaxBlockOutliers && "OutlierList overflow: attempt not aborted");
    v_[n_++] = bits;
  }
  /// In-place fill: a writer stores up to kMaxBlockOutliers images from
  /// storage() on, then sets the count once.
  constexpr uint32_t* storage() { return v_.data(); }
  constexpr void set_size(uint32_t n) {
    assert(n <= kMaxBlockOutliers && "OutlierList overflow: attempt not aborted");
    n_ = n;
  }
  constexpr void assign(uint32_t n, uint32_t bits) {
    n_ = n;
    for (uint32_t i = 0; i < n; ++i) v_[i] = bits;
  }

  constexpr uint32_t operator[](uint32_t i) const { return v_[i]; }
  constexpr uint32_t& operator[](uint32_t i) { return v_[i]; }
  constexpr const uint32_t* data() const { return v_.data(); }
  constexpr const uint32_t* begin() const { return v_.data(); }
  constexpr const uint32_t* end() const { return v_.data() + n_; }

  constexpr bool operator==(const OutlierList& o) const {
    if (n_ != o.n_) return false;
    for (uint32_t i = 0; i < n_; ++i)
      if (v_[i] != o.v_[i]) return false;
    return true;
  }

 private:
  std::array<uint32_t, kMaxBlockOutliers> v_{};
  uint32_t n_ = 0;
};

struct CompressedBlock {
  Method method = Method::kUncompressed;
  DType dtype = DType::kFloat32;
  int8_t bias = 0;  // exponent bias applied before fixed-point conversion
  std::array<int32_t, kSummaryValues> summary{};  // Q16.16 raw, biased domain
  Bitmap256 outlier_map;
  OutlierList outliers;  // raw 32-bit images of outlier values
  /// Lossless-exact tier only (method_is_exact): summed per-line encoded
  /// bytes of the block's raw bit image. Lossy-tier encodings leave it 0 —
  /// their size is a function of the outlier count alone.
  uint32_t encoded_bytes = 0;

  /// Number of 64 B cachelines the compressed image occupies, per the
  /// method's tier-specific size model (avr/method.hh). Everything that
  /// meters compressed space — CMT size fields, LLC free-space/eviction —
  /// consumes this, so new methods only extend the size model.
  uint32_t lines() const {
    return method_lines(method, outliers.size(), encoded_bytes);
  }

  bool compressed() const { return method != Method::kUncompressed; }

  static constexpr uint32_t kMaxOutliers = kMaxBlockOutliers;
};

}  // namespace avr
