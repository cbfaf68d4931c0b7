// BDI lossless kernel microbenchmarks plus the stacked-ratio analysis
// table (lossless BDI on top of / beside AVR; docs/ARCHITECTURE.md,
// "Two-tier method layer").
//
// Default mode runs the Google Benchmark kernels — the per-line encoder on
// each encoding class, the whole-block size model, and the compressor's
// BDI-hybrid fallback stage — so CI's microbench comparison sees BDI kernel
// regressions. `bench_lossless --table` prints the original analysis table
// instead:
//   (a) BDI ratio on each workload's raw approximable data (what a lossless
//       memory link like MemZip would achieve alone), and
//   (b) BDI ratio on AVR compressed-block images (summary lines + outliers),
//       i.e. the additional stacking headroom.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "avr/compressor.hh"
#include "lossless/bdi.hh"
#include "runtime/system.hh"
#include "workloads/workload_registry.hh"

namespace {

using namespace avr;

// ---- kernel benchmarks -----------------------------------------------------

/// One 64 B line exercising a specific BDI encoding class. The fill values
/// are chosen so encode_line() must scan every candidate it would for real
/// data of that class (e.g. the b8d2 line fails b8d1 and b4d1/2 first).
std::array<std::byte, kCachelineBytes> line_for(lossless::BdiEncoding e) {
  std::array<std::byte, kCachelineBytes> line{};
  auto put64 = [&line](uint32_t i, uint64_t v) {
    std::memcpy(line.data() + i * 8, &v, 8);
  };
  auto put32 = [&line](uint32_t i, uint32_t v) {
    std::memcpy(line.data() + i * 4, &v, 4);
  };
  switch (e) {
    case lossless::BdiEncoding::kZeros:
      break;
    case lossless::BdiEncoding::kRepeated:
      for (uint32_t i = 0; i < 8; ++i) put64(i, 0x0123456789abcdefull);
      break;
    case lossless::BdiEncoding::kBase8Delta1:
      for (uint32_t i = 0; i < 8; ++i) put64(i, 0x1122334455667700ull + i);
      break;
    case lossless::BdiEncoding::kBase8Delta2:
      for (uint32_t i = 0; i < 8; ++i) put64(i, 0x1122334455660000ull + i * 300);
      break;
    case lossless::BdiEncoding::kBase4Delta1:
      for (uint32_t i = 0; i < 16; ++i) put32(i, 0x40000000u + i);
      break;
    default:  // uncompressed: a different high byte in every 4 B word
      for (uint32_t i = 0; i < 16; ++i) put32(i, 0x01010101u * (i + 1) + (i << 28));
      break;
  }
  return line;
}

void BM_BdiEncodeLine(benchmark::State& state,
                      lossless::BdiEncoding e) {
  const auto line = line_for(e);
  for (auto _ : state) {
    auto r = lossless::encode_line(
        std::span<const std::byte, kCachelineBytes>(line));
    benchmark::DoNotOptimize(r);
  }
}

/// The whole-block size model the compressor's fallback stage runs: 16
/// per-line encodes over 1 KB of mixed-class data.
void BM_BdiEncodedBytesBlock(benchmark::State& state) {
  std::array<std::byte, kBlockBytes> block{};
  for (uint32_t l = 0; l < kBlockLines; ++l) {
    const auto line = line_for(static_cast<lossless::BdiEncoding>(l % 6));
    std::memcpy(block.data() + l * kCachelineBytes, line.data(), kCachelineBytes);
  }
  for (auto _ : state) {
    auto b = lossless::encoded_bytes(block);
    benchmark::DoNotOptimize(b);
  }
}

/// The full BDI-hybrid fallback path: every lossy variant fails on this
/// block (alternating distant values make nearly every value an outlier),
/// then the raw bit image BDI-encodes as 16 repeated-value lines.
void BM_CompressorBdiFallback(benchmark::State& state) {
  AvrConfig cfg;
  cfg.enable_bdi_hybrid = true;
  const Compressor comp(cfg);
  std::array<float, kValuesPerBlock> vals;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    vals[i] = (i % 2) ? 1.0e10f : 1.0f;
  CompressorScratch scratch;
  for (auto _ : state) {
    auto att = comp.compress(vals, scratch);
    benchmark::DoNotOptimize(att);
  }
}

// ---- the stacked-ratio analysis table (--table) ----------------------------

int print_table() {
  std::printf("Lossless BDI stacked on AVR (extension; not a paper figure)\n");
  std::printf("%-10s %16s %18s %16s\n", "workload", "BDI on raw",
              "AVR ratio", "BDI on AVR image");

  Compressor comp(AvrConfig{});
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name);
    System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
    wl->run(sys);

    uint64_t raw_bytes = 0, bdi_raw = 0;
    uint64_t avr_lines = 0, total_blocks = 0;
    uint64_t image_bytes = 0, bdi_image = 0;

    for (const auto& region : sys.regions().regions()) {
      if (!region.approx) continue;
      const std::span<const std::byte> data(region.host.get(), region.bytes);
      raw_bytes += region.bytes;
      bdi_raw += lossless::encoded_bytes(data);

      // Compress each block with AVR; serialize a faithful image of the
      // summary (fixed-point words) + bitmap + outliers and BDI it.
      for (uint64_t off = 0; off + kBlockBytes <= region.bytes; off += kBlockBytes) {
        std::span<const float, kValuesPerBlock> vals(
            reinterpret_cast<const float*>(region.host.get() + off), kValuesPerBlock);
        ++total_blocks;
        auto att = comp.compress(vals);
        if (!att) {
          avr_lines += kBlockLines;
          continue;
        }
        avr_lines += att->block.lines();
        std::vector<std::byte> image(att->block.lines() * kCachelineBytes,
                                     std::byte{0});
        std::memcpy(image.data(), att->block.summary.data(), 64);
        if (!att->block.outliers.empty()) {
          std::memcpy(image.data() + 64, att->block.outlier_map.words().data(), 32);
          std::memcpy(image.data() + 96, att->block.outliers.data(),
                      att->block.outliers.size() * 4);
        }
        image_bytes += image.size();
        bdi_image += lossless::encoded_bytes(image);
      }
    }

    const double bdi_ratio = bdi_raw ? double(raw_bytes) / bdi_raw : 1.0;
    const double avr_ratio =
        avr_lines ? double(total_blocks * kBlockLines) / avr_lines : 1.0;
    const double stack = bdi_image ? double(image_bytes) / bdi_image : 1.0;
    std::printf("%-10s %15.2fx %17.1fx %15.2fx\n", name.c_str(), bdi_ratio,
                avr_ratio, stack);
  }
  std::printf("\nReading: BDI alone reaches the 2:1-4:1 regime the paper cites "
              "for lossless\nschemes; AVR's lossy ratios are far higher, and its "
              "block images retain a\nsmall additional lossless margin.\n");
  return 0;
}

}  // namespace

BENCHMARK_CAPTURE(BM_BdiEncodeLine, zeros, lossless::BdiEncoding::kZeros);
BENCHMARK_CAPTURE(BM_BdiEncodeLine, repeated, lossless::BdiEncoding::kRepeated);
BENCHMARK_CAPTURE(BM_BdiEncodeLine, b8d1, lossless::BdiEncoding::kBase8Delta1);
BENCHMARK_CAPTURE(BM_BdiEncodeLine, b8d2, lossless::BdiEncoding::kBase8Delta2);
BENCHMARK_CAPTURE(BM_BdiEncodeLine, b4d1, lossless::BdiEncoding::kBase4Delta1);
BENCHMARK_CAPTURE(BM_BdiEncodeLine, uncompressed,
                  lossless::BdiEncoding::kUncompressed);
BENCHMARK(BM_BdiEncodedBytesBlock);
BENCHMARK(BM_CompressorBdiFallback);

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--table") return print_table();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
