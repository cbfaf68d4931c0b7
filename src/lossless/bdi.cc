#include "lossless/bdi.hh"

#include <cstring>
#include <limits>

namespace avr::lossless {
namespace {

/// Do all `n`-byte words of the line fit in `delta_bytes` signed deltas
/// from the first word? Returns the encoded size or 0 on failure.
template <typename Base, typename Delta>
uint32_t try_base_delta(const std::byte* p) {
  constexpr uint32_t kWords = kCachelineBytes / sizeof(Base);
  Base base;
  std::memcpy(&base, p, sizeof(Base));
  for (uint32_t i = 1; i < kWords; ++i) {
    Base w;
    std::memcpy(&w, p + i * sizeof(Base), sizeof(Base));
    // Modular difference: the value the hardware's subtractor produces. For
    // 4-byte bases it equals the exact difference; for 8-byte bases it
    // avoids the signed overflow of subtracting two int64 casts.
    const auto delta =
        static_cast<int64_t>(static_cast<uint64_t>(w) - static_cast<uint64_t>(base));
    if (delta < std::numeric_limits<Delta>::min() ||
        delta > std::numeric_limits<Delta>::max())
      return 0;
  }
  return sizeof(Base) + kWords * sizeof(Delta);
}

}  // namespace

BdiResult encode_line(std::span<const std::byte, kCachelineBytes> line) {
  const std::byte* p = line.data();

  bool zeros = true;
  for (std::byte b : line)
    if (b != std::byte{0}) {
      zeros = false;
      break;
    }
  if (zeros) return {BdiEncoding::kZeros, 1};

  uint64_t first;
  std::memcpy(&first, p, 8);
  bool repeated = true;
  for (uint32_t i = 1; i < 8; ++i) {
    uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    if (w != first) {
      repeated = false;
      break;
    }
  }
  if (repeated) return {BdiEncoding::kRepeated, 8};

  // Try encodings in increasing size order; first hit wins.
  struct Candidate {
    BdiEncoding e;
    uint32_t bytes;
  };
  const Candidate candidates[] = {
      {BdiEncoding::kBase8Delta1, try_base_delta<uint64_t, int8_t>(p)},
      {BdiEncoding::kBase4Delta1, try_base_delta<uint32_t, int8_t>(p)},
      {BdiEncoding::kBase8Delta2, try_base_delta<uint64_t, int16_t>(p)},
      {BdiEncoding::kBase4Delta2, try_base_delta<uint32_t, int16_t>(p)},
      {BdiEncoding::kBase8Delta4, try_base_delta<uint64_t, int32_t>(p)},
  };
  BdiResult best{BdiEncoding::kUncompressed, kCachelineBytes};
  for (const Candidate& c : candidates)
    if (c.bytes != 0 && c.bytes < best.bytes) best = {c.e, c.bytes};
  return best;
}

uint64_t encoded_bytes(std::span<const std::byte> data) {
  uint64_t total = 0;
  const uint64_t lines = data.size() / kCachelineBytes;
  for (uint64_t i = 0; i < lines; ++i)
    total += encode_line(std::span<const std::byte, kCachelineBytes>(
                             data.data() + i * kCachelineBytes, kCachelineBytes))
                 .bytes;
  return total;
}

const char* to_string(BdiEncoding e) {
  switch (e) {
    case BdiEncoding::kZeros: return "zeros";
    case BdiEncoding::kRepeated: return "repeated";
    case BdiEncoding::kBase8Delta1: return "b8d1";
    case BdiEncoding::kBase8Delta2: return "b8d2";
    case BdiEncoding::kBase8Delta4: return "b8d4";
    case BdiEncoding::kBase4Delta1: return "b4d1";
    case BdiEncoding::kBase4Delta2: return "b4d2";
    case BdiEncoding::kUncompressed: return "uncompressed";
  }
  return "?";
}

}  // namespace avr::lossless
