// Table 4: AVR compression ratio and total memory footprint relative to the
// baseline. Footprint here follows the paper's definition: compressed bytes
// of approximable data plus exact bytes of everything else, over the
// uncompressed total. A trailing section reports the extension design point
// (AVR with the lossless BDI-hybrid fallback tier, avr.enable_bdi_hybrid).
#include <cstdio>

#include "harness/experiment.hh"

int main() {
  using namespace avr;
  ExperimentRunner r;
  const auto wls = workload_names();
  // Warm the AVR points concurrently; printing below is then pure cache lookup.
  r.run_all(wls, {Design::kAvr});
  std::printf("Table 4: AVR compression ratio and footprint\n");
  std::printf("%-14s", "metric");
  for (const auto& w : wls) std::printf(" %9s", w.c_str());
  std::printf("\n");

  std::printf("%-14s", "compr. ratio");
  for (const auto& w : wls)
    std::printf(" %8.1fx", r.run(w, Design::kAvr).m.compression_ratio);
  std::printf("\n");

  std::printf("%-14s", "mem footprint");
  for (const auto& w : wls) {
    const RunMetrics& m = r.run(w, Design::kAvr).m;
    const double approx = static_cast<double>(m.approx_bytes);
    const double exact = static_cast<double>(m.footprint_bytes) - approx;
    const double ratio = m.compression_ratio > 0 ? m.compression_ratio : 1.0;
    const double frac = (exact + approx / ratio) / (exact + approx);
    std::printf(" %8.1f%%", 100.0 * frac);
  }
  std::printf("\n");

  std::printf("\npaper ratio    10.5x 9.6x 15.6x 16.0x 2.3x 4.7x 3.4x\n");
  std::printf("paper footprint 12.6%% 20.0%% 7.9%% 54.1%% 58.5%% 78.6%% 89.6%%\n");

  // Extension design point: same grid with avr.enable_bdi_hybrid set (the
  // lossless BDI fallback catches blocks that blow the T1/T2 outlier
  // budget). Its records share the cache file under their own config
  // fingerprint. `bdi blocks` counts compressions won by the fallback
  // tier; `uncompressed` counts failed compression attempts — fewer than
  // the AVR-only row means the fallback converted would-be-uncompressed
  // blocks.
  SimConfig bdi;
  bdi.avr.enable_bdi_hybrid = true;
  ExperimentRunner rb(bdi);
  rb.run_all(wls, {Design::kAvr});
  std::printf("\nExtension: AVR + BDI-hybrid fallback (avr.enable_bdi_hybrid=1)\n");
  std::printf("%-14s", "compr. ratio");
  for (const auto& w : wls)
    std::printf(" %8.1fx", rb.run(w, Design::kAvr).m.compression_ratio);
  std::printf("\n");
  std::printf("%-14s", "bdi blocks");
  for (const auto& w : wls) {
    const auto& d = rb.run(w, Design::kAvr).m.detail;
    const auto it = d.find("blocks_bdi");
    std::printf(" %9llu", static_cast<unsigned long long>(
                              it == d.end() ? 0 : it->second));
  }
  std::printf("\n");
  std::printf("%-14s", "uncompressed");
  for (const auto& w : wls) {
    const auto& d = rb.run(w, Design::kAvr).m.detail;
    const auto it = d.find("compress_failures");
    std::printf(" %9llu", static_cast<unsigned long long>(
                              it == d.end() ? 0 : it->second));
  }
  std::printf("\n");
  return 0;
}
