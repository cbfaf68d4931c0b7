// Golden-capture pin for the compressor datapath: the full CompressedBlock
// encoding (method, bias, summary, outlier bitmap, exact outlier bits,
// avg_error) plus the reconstructed float bits, folded into one FNV-1a
// digest per workload over a corpus of blocks taken from each workload
// generator's real memory contents. The digests below were captured on the
// pre-pipeline compressor (commit c056ccf): the staged scratch-reusing
// pipeline must reproduce every encoding byte for byte.
//
// The corpus comes from functional (timing=false) workload runs, so the
// digests inherit the workloads' libm usage — they are pinned for the
// glibc/x86-64 toolchain this repo builds and tests on (the same contract
// the golden-run output-error metric already relies on).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "avr/compressor.hh"
#include "common/fp_bits.hh"
#include "harness/experiment.hh"
#include "runtime/system.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void fold_bytes(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
}

template <typename T>
void fold(uint64_t& h, T v) {
  fold_bytes(h, &v, sizeof(v));
}

/// Folds one compression attempt (or its absence) and, on success, the full
/// reconstruction, into the digest.
void fold_attempt(uint64_t& h, const Compressor& comp,
                  std::span<const float, kValuesPerBlock> vals) {
  auto att = comp.compress(vals);
  if (!att) {
    fold<uint8_t>(h, 0xEE);  // "did not compress" marker
    return;
  }
  fold<uint8_t>(h, 0x01);
  fold(h, static_cast<uint8_t>(att->block.method));
  fold(h, uint8_t{0});  // the fp32 value-type byte the captures folded
  fold(h, att->block.bias);
  for (int32_t s : att->block.summary) fold(h, s);
  for (uint64_t w : att->block.outlier_map.words()) fold(h, w);
  fold(h, static_cast<uint32_t>(att->block.outliers.size()));
  for (uint32_t i = 0; i < att->block.outliers.size(); ++i)
    fold(h, att->block.outliers[i]);
  fold(h, att->block.lines());
  fold(h, std::bit_cast<uint64_t>(att->avg_error));

  std::array<float, kValuesPerBlock> out;
  comp.reconstruct(att->block, out);
  for (float v : out) fold(h, f32_bits(v));
}

/// Runs `name` functionally and digests a deterministic sample of blocks
/// from every approximable region (up to ~48 per region, evenly strided).
uint64_t workload_digest(const std::string& name) {
  auto wl = make_workload(name);
  const SimConfig cfg = ExperimentRunner({}, false, "").config_for(*wl);
  System sys(Design::kBaseline, cfg, 1, /*timing=*/false);
  wl->run(sys);

  const Compressor comp(cfg.avr);
  uint64_t h = kFnvOffset;
  for (const MemoryRegion& r : sys.regions().regions()) {
    if (!r.approx) continue;
    const uint64_t nblocks = r.bytes / kBlockBytes;
    const uint64_t stride = nblocks > 48 ? nblocks / 48 : 1;
    for (uint64_t b = 0; b < nblocks; b += stride) {
      const uint64_t addr = r.base + b * kBlockBytes;
      fold_attempt(h, comp, sys.regions().block_values(addr));
    }
  }
  return h;
}

// Captured on the pre-refactor compressor; see the header comment.
const std::map<std::string, uint64_t> kGolden = {
    {"heat", 0x79ea463748e3eebeull},     {"lattice", 0x4d463e18c9cf732bull},
    {"lbm", 0xa1e4d1942ef89044ull},      {"orbit", 0x332a89c7c9a37676ull},
    {"kmeans", 0x59b32a996f3b9e6full},   {"bscholes", 0x99ab328c9e97c3d0ull},
    {"wrf", 0x501130ea2ec9d9feull},
};

class CompressorIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(CompressorIdentity, EncodingsByteIdenticalToCapture) {
  const std::string wl = GetParam();
  const uint64_t digest = workload_digest(wl);
  EXPECT_EQ(digest, kGolden.at(wl))
      << "compressor output drifted for workload '" << wl << "'; digest is 0x"
      << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CompressorIdentity,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace avr
