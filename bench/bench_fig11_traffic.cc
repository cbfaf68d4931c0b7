// Figure 11: DRAM traffic normalized to baseline, split into approximate and
// non-approximate bytes. A trailing section reports the extension design
// point: AVR with the lossless BDI-hybrid fallback (avr.enable_bdi_hybrid).
#include <cstdio>

#include "harness/experiment.hh"

int main() {
  using namespace avr;
  ExperimentRunner r;
  const auto wls = workload_names();
  // Warm every point concurrently; printing below is then pure cache lookup.
  r.run_all(wls, ExperimentRunner::paper_designs());
  print_normalized_table(r, "Fig. 11: Memory traffic", wls,
                         ExperimentRunner::paper_designs(),
                         [](const RunMetrics& m) { return double(m.dram_bytes); });

  std::printf("\n-- approx / non-approx split (bytes, AVR) --\n");
  std::printf("%-10s %14s %14s %14s\n", "workload", "approx", "other", "metadata");
  for (const auto& w : wls) {
    const RunMetrics& m = r.run(w, Design::kAvr).m;
    std::printf("%-10s %14llu %14llu %14llu\n", w.c_str(),
                static_cast<unsigned long long>(m.dram_bytes_approx),
                static_cast<unsigned long long>(m.dram_bytes_other),
                static_cast<unsigned long long>(m.metadata_bytes));
  }
  std::printf("\npaper AVR traffic (norm.): heat 0.29, lattice 0.49, lbm 0.33,"
              " orbit 0.52, kmeans 0.63, bscholes 0.94, wrf 0.97\n");

  // Extension design point: AVR with the BDI-hybrid fallback tier, traffic
  // normalized to the same (default-config) baseline as the table above.
  SimConfig bdi;
  bdi.avr.enable_bdi_hybrid = true;
  ExperimentRunner rb(bdi);
  rb.run_all(wls, {Design::kAvr});
  std::printf("\n-- AVR + BDI fallback (avr.enable_bdi_hybrid=1), norm. traffic --\n");
  std::printf("%-10s %10s %10s\n", "workload", "AVR", "AVR+bdi");
  for (const auto& w : wls) {
    const double base = double(r.run(w, Design::kBaseline).m.dram_bytes);
    std::printf("%-10s %10.3f %10.3f\n", w.c_str(),
                double(r.run(w, Design::kAvr).m.dram_bytes) / base,
                double(rb.run(w, Design::kAvr).m.dram_bytes) / base);
  }
  return 0;
}
