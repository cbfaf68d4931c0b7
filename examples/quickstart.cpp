// Quickstart: compress one memory block by hand, then run a tiny workload
// under AVR and print the headline numbers.
//
//   build/examples/example_quickstart
#include <cstdio>

#include "avr/compressor.hh"
#include "common/fp_bits.hh"
#include "harness/experiment.hh"

int main() {
  using namespace avr;

  // --- 1. The compressor as a standalone library ---------------------------
  AvrConfig acfg;  // T1 = 6.25 % (N=4), both 1D and 2D variants enabled
  Compressor comp(acfg);

  // A smooth 16x16 field: exactly what downsampling loves.
  std::array<float, kValuesPerBlock> block;
  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      block[r * 16 + c] = 20.0f + 0.1f * static_cast<float>(r) + 0.07f * static_cast<float>(c);

  auto att = comp.compress(block);
  if (!att) {
    std::printf("block did not compress\n");
    return 1;
  }
  std::printf("compressed 1024 B block -> %u line(s) (%s, %u outliers), ratio %.1f:1\n",
              att->block.lines(), to_string(att->block.method),
              att->block.outliers.size(), 16.0 / att->block.lines());

  std::array<float, kValuesPerBlock> recon;
  comp.reconstruct(att->block, recon);
  double worst = 0;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    worst = std::max(worst, relative_error(recon[i], block[i]));
  std::printf("worst reconstruction error: %.4f%% (T1 = %.2f%%)\n", 100 * worst,
              100 * comp.t1());

  // --- 2. A full system run -------------------------------------------------
  ExperimentRunner runner({}, /*verbose=*/false);
  const auto& base = runner.run("heat", Design::kBaseline);
  const auto& avr = runner.run("heat", Design::kAvr);
  std::printf("\nheat: baseline %.2fM cycles, AVR %.2fM cycles (%.0f%% of baseline)\n",
              base.m.cycles / 1e6, avr.m.cycles / 1e6,
              100.0 * avr.m.cycles / base.m.cycles);
  std::printf("heat: DRAM traffic baseline %.2f MB -> AVR %.2f MB; output error %.2f%%\n",
              base.m.dram_bytes / 1048576.0, avr.m.dram_bytes / 1048576.0,
              100 * avr.m.output_error);
  std::printf("heat: AVR compression ratio %.1f:1\n", avr.m.compression_ratio);
  return 0;
}
