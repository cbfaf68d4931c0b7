// Micro-benchmarks of the compressor/decompressor datapath (the functional
// model of the 49-cycle / 12-cycle pipelines of Sec. 3.3), plus per-kernel
// SIMD-vs-scalar comparisons of the dispatched batch kernels
// (common/simd.hh): the BM_Kernel* benches take the dispatch level as their
// argument (0 = scalar, 2 = avx2), so one run shows each
// kernel's vector speedup next to its scalar reference.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <vector>

#include "avr/bias.hh"
#include "avr/compressor.hh"
#include "avr/downsample.hh"
#include "common/prng.hh"
#include "common/simd.hh"

namespace {

using namespace avr;

std::array<float, kValuesPerBlock> make_block(int kind) {
  std::array<float, kValuesPerBlock> b;
  Xoshiro256 rng(kind + 1);
  switch (kind) {
    case 0:  // smooth: best case, no outliers
      for (uint32_t r = 0; r < 16; ++r)
        for (uint32_t c = 0; c < 16; ++c)
          b[r * 16 + c] = 50.0f + 0.2f * r + 0.1f * c;
      break;
    case 1:  // a few outliers (compresses with an outlier line)
      for (uint32_t i = 0; i < 256; ++i) b[i] = 50.0f + 0.05f * i;
      // Sparse x1.5 spikes: each becomes an outlier but shifts its
      // sub-block average by only ~3%, below T1 for the neighbours.
      for (uint32_t i = 7; i < 256; i += 64) b[i] *= 1.5f;
      break;
    case 3:  // dense outliers: a x1.25 spike in 3 of every 4 8-value groups.
             // One outlier per group in a fixed pattern, which a branch
             // predictor learns; trace blocks scatter theirs (see
             // trace_shaped_blocks).
      for (uint32_t i = 0; i < 256; ++i) b[i] = 50.0f + 0.05f * i;
      for (uint32_t g = 0; g < 32; ++g)
        if (g % 4 != 3) b[g * 8 + rng.below(8)] *= 1.25f;
      break;
    default:  // incompressible
      for (auto& v : b) v = static_cast<float>(rng.uniform(-1e6, 1e6));
  }
  return b;
}

/// Blocks shaped like the ones trace replay compresses: trace::init_region's
/// random walk with sparse spikes, with 3% of the values overwritten the way
/// replayed stores write them (a quarter of the walk plus jitter). Each
/// 8-value group then holds a seeded random outlier count from 0 to 8 (all
/// of them occur), about 54 outliers per passing block. Benches cycle
/// through the set so no branch predictor can learn one block's pattern.
std::vector<std::array<float, kValuesPerBlock>> trace_shaped_blocks() {
  std::vector<std::array<float, kValuesPerBlock>> blocks(64);
  Xoshiro256 rng(1);
  float v = 100.0f + 50.0f * static_cast<float>(rng.uniform());
  for (auto& b : blocks) {
    for (float& x : b) {
      v += static_cast<float>(rng.uniform(-1.0, 1.0));
      x = v;
      if (rng.uniform() < 0.02) x += 40.0f * static_cast<float>(rng.uniform(-1.0, 1.0));
      if (rng.uniform() < 0.03)
        x = 0.25f * v + static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  }
  return blocks;
}

void BM_Compress(benchmark::State& state) {
  // Persistent scratch, exactly how AvrSystem drives the pipeline: the
  // buffers stay cache-resident across compression events.
  Compressor comp(AvrConfig{});
  CompressorScratch scratch;
  const auto block = make_block(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto att = comp.compress(block, DType::kFloat32, scratch);
    benchmark::DoNotOptimize(att);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_Compress)->Arg(0)->Arg(1)->Arg(2);

void BM_CompressScattered(benchmark::State& state) {
  // One compression event per iteration over the trace-shaped blocks, in
  // turn: both variants scan, and some blocks fail the budget.
  Compressor comp(AvrConfig{});
  CompressorScratch scratch;
  const auto blocks = trace_shaped_blocks();
  size_t b = 0;
  for (auto _ : state) {
    auto att = comp.compress(blocks[b], DType::kFloat32, scratch);
    benchmark::DoNotOptimize(att);
    b = (b + 1) % blocks.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_CompressScattered);

void BM_CompressEventScattered(benchmark::State& state) {
  // A whole compression event as AvrSystem drives it, over the trace-shaped
  // blocks in turn: compress() the block's values in place, then write the
  // reconstruction back over them. Each iteration first restores the
  // block's original values (a 1 KB copy, part of the time).
  Compressor comp(AvrConfig{});
  CompressorScratch scratch;
  const auto blocks = trace_shaped_blocks();
  std::array<float, kValuesPerBlock> vals;
  size_t b = 0;
  for (auto _ : state) {
    vals = blocks[b];
    if (auto att = comp.compress(vals, DType::kFloat32, scratch))
      benchmark::DoNotOptimize(comp.write_reconstruction(att->block, scratch, vals));
    benchmark::DoNotOptimize(vals);
    b = (b + 1) % blocks.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_CompressEventScattered);

void BM_CompressColdScratch(benchmark::State& state) {
  // The convenience overload: a fresh stack scratch per call (one-off
  // library users); the delta against BM_Compress is the scratch setup.
  Compressor comp(AvrConfig{});
  const auto block = make_block(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto att = comp.compress(block);
    benchmark::DoNotOptimize(att);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_CompressColdScratch)->Arg(0);

void BM_CompressFixed32(benchmark::State& state) {
  // DType::kFixed32 datapath: raw Q16.16 images, no bias stage, the
  // relative-error scan instead of the mantissa scan.
  Compressor comp(AvrConfig{});
  CompressorScratch scratch;
  std::array<float, kValuesPerBlock> block;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i) {
    const Fixed32 f =
        Fixed32::from_float(100.0f + 0.05f * static_cast<float>(i % 64));
    block[i] = std::bit_cast<float>(f.raw());
  }
  for (auto _ : state) {
    auto att = comp.compress(block, DType::kFixed32, scratch);
    benchmark::DoNotOptimize(att);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_CompressFixed32);

void BM_Reconstruct(benchmark::State& state) {
  Compressor comp(AvrConfig{});
  const auto block = make_block(static_cast<int>(state.range(0)));
  auto att = comp.compress(block);
  if (!att) {
    state.SkipWithError("block did not compress");
    return;
  }
  std::array<float, kValuesPerBlock> out;
  for (auto _ : state) {
    comp.reconstruct(att->block, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_Reconstruct)->Arg(0)->Arg(1);

void BM_OutlierCheck(benchmark::State& state) {
  Compressor comp(AvrConfig{});
  for (auto _ : state) {
    bool o = comp.value_is_outlier(1.234f, 1.235f);
    benchmark::DoNotOptimize(o);
  }
}
BENCHMARK(BM_OutlierCheck);

// ---- per-kernel SIMD-vs-scalar benches ------------------------------------
// Each runs one dispatched batch kernel over a 256-value block with the
// dispatch pinned to the level in range(0); unsupported levels skip. All
// levels are bit-identical (test_simd_kernels), so the rows differ only in
// time.

/// Pins the dispatch level for one benchmark run, restoring it afterwards
/// so the end-to-end benches above keep measuring the default level.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(benchmark::State& state)
      : prev_(simd_level()),
        ok_(simd_set_level(static_cast<SimdLevel>(state.range(0)))) {
    if (!ok_) state.SkipWithError("simd level unsupported on this cpu/build");
  }
  ~ScopedSimdLevel() { simd_set_level(prev_); }
  bool ok() const { return ok_; }

 private:
  SimdLevel prev_;
  bool ok_;
};

void BM_KernelConvertBiased(benchmark::State& state) {
  // Stages 1 and 2 of compress(): bias and convert in one pass, at the
  // bias choose_bias picks for the block.
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  const auto block = make_block(0);
  const int8_t bias = choose_bias(block);
  std::array<Fixed32, kValuesPerBlock> out;
  for (auto _ : state) {
    fixed32_from_f32_batch(block, out, bias);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_KernelConvertBiased)->Arg(0)->Arg(2);

void BM_KernelSummarize1D(benchmark::State& state) {
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  const auto block = make_block(0);
  std::array<Fixed32, kValuesPerBlock> fixed;
  fixed32_from_f32_batch(block, fixed);
  for (auto _ : state) {
    auto avg = downsample::compress_1d(fixed);
    benchmark::DoNotOptimize(avg);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_KernelSummarize1D)->Arg(0)->Arg(2);

void BM_KernelSummarize2D(benchmark::State& state) {
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  const auto block = make_block(0);
  std::array<Fixed32, kValuesPerBlock> fixed;
  fixed32_from_f32_batch(block, fixed);
  for (auto _ : state) {
    auto avg = downsample::compress_2d(fixed);
    benchmark::DoNotOptimize(avg);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_KernelSummarize2D)->Arg(0)->Arg(2);

void BM_KernelReconstruct1D(benchmark::State& state) {
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  const auto block = make_block(0);
  std::array<Fixed32, kValuesPerBlock> fixed, recon;
  fixed32_from_f32_batch(block, fixed);
  const auto avg = downsample::compress_1d(fixed);
  for (auto _ : state) {
    downsample::reconstruct_1d(avg, recon);
    benchmark::DoNotOptimize(recon);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_KernelReconstruct1D)->Arg(0)->Arg(2);

void BM_KernelReconstruct2D(benchmark::State& state) {
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  const auto block = make_block(0);
  std::array<Fixed32, kValuesPerBlock> fixed, recon;
  fixed32_from_f32_batch(block, fixed);
  const auto avg = downsample::compress_2d(fixed);
  for (auto _ : state) {
    downsample::reconstruct_2d(avg, recon);
    benchmark::DoNotOptimize(recon);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_KernelReconstruct2D)->Arg(0)->Arg(2);

/// Error scans of `blocks` against their 1D reconstructions, in turn, at
/// the level state.range(0) pins, each writing the decompressed image as
/// compress() has it do. Blocks whose scan exceeds the outlier budget are
/// left out: they would abort early, and only whole scans are timed.
void run_error_scan(benchmark::State& state,
                    const std::vector<std::array<float, kValuesPerBlock>>& blocks) {
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  struct Scan {
    const float* original;
    std::array<Fixed32, kValuesPerBlock> recon;
    int8_t bias;
  };
  const uint32_t limit = 1u << (kMantissaBits - AvrConfig{}.t1_mantissa_msbit);
  Bitmap256 map;
  std::array<uint32_t, kMaxBlockOutliers> bits;
  std::array<float, kValuesPerBlock> image;
  auto scan = [&](const Scan& sc) {
    simd::ErrorScanState st;
    st.bitmap_words = map.words().data();
    st.outlier_bits = bits.data();
    st.image = image.data();
    st.max_outliers = kMaxBlockOutliers;
    return simd::kernels().error_scan_f32(
        sc.original, reinterpret_cast<const int32_t*>(sc.recon.data()),
        kValuesPerBlock, sc.bias, limit, &st);
  };
  std::vector<Scan> scans;
  for (const auto& block : blocks) {
    Scan sc{block.data(), {}, choose_bias(block)};
    std::array<Fixed32, kValuesPerBlock> fixed;
    fixed32_from_f32_batch(block, fixed, sc.bias);
    downsample::reconstruct_1d(downsample::compress_1d(fixed), sc.recon);
    if (scan(sc)) scans.push_back(sc);
  }
  if (scans.empty()) {
    state.SkipWithError("scan exceeds the outlier budget");
    return;
  }
  size_t k = 0;
  for (auto _ : state) {
    bool ok = scan(scans[k]);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(bits);
    benchmark::DoNotOptimize(image);
    k = (k + 1) % scans.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}

void BM_KernelErrorScan(benchmark::State& state) {
  // The sparse-spike block: mostly exact-or-near groups plus a few outlier
  // groups.
  run_error_scan(state, {make_block(1)});
}
BENCHMARK(BM_KernelErrorScan)->Arg(0)->Arg(2);

void BM_KernelErrorScanDense(benchmark::State& state) {
  // One outlier in 3 of 4 groups, in a fixed pattern.
  run_error_scan(state, {make_block(3)});
}
BENCHMARK(BM_KernelErrorScanDense)->Arg(0)->Arg(2);

void BM_KernelErrorScanScattered(benchmark::State& state) {
  // The trace-block shape: a random outlier count in every group, so the
  // count cannot be predicted group to group.
  run_error_scan(state, trace_shaped_blocks());
}
BENCHMARK(BM_KernelErrorScanScattered)->Arg(0)->Arg(2);

void BM_KernelTruncate(benchmark::State& state) {
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  auto block = make_block(0);  // truncation is idempotent: in-place reuse
  for (auto _ : state) {
    f32_truncate_low_bits_batch(block, 16);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBlockBytes);
}
BENCHMARK(BM_KernelTruncate)->Arg(0)->Arg(2);

void BM_KernelCrc32c(benchmark::State& state) {
  // The v5 result-cache checksum over a typical encoded record (~300 bytes):
  // the hardware levels use the crc32 instruction 8 bytes per cycle, the
  // scalar level a 256-entry table.
  ScopedSimdLevel pin(state);
  if (!pin.ok()) return;
  std::array<uint8_t, 320> buf;
  for (size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<uint8_t>(i * 131 + 17);
  for (auto _ : state) {
    uint32_t crc =
        ~simd::kernels().crc32c_update(0xFFFFFFFFu, buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_KernelCrc32c)->Arg(0)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
