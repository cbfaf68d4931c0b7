// avr_report: prints the paper's evaluation — Figs. 9-15, Tables 3-4, the
// Sec. 4.2 overhead count — and the AVR ablation from the shared result
// cache ($AVR_RESULT_CACHE, default avr_results_cache.csv). Each report is
// one row of the table in reports(): the designs and config variants it
// reads, and a printer. A report first warms all its points with one
// sweep::run_grid, so over a cache avr_sweep already filled it simulates
// nothing and printing is pure lookup.
//
//   avr_report fig9 table3                       two reports, in that order
//   AVR_RESULT_CACHE=sweep.csv avr_report fig12  read a sweep's cache
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "avr/avr_llc.hh"
#include "avr/cmt.hh"
#include "common/config_table.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workloads/workload_registry.hh"

namespace {

using namespace avr;
using Workloads = std::vector<std::string>;

constexpr const char* kUsage = R"(usage: avr_report <name>...

Prints the named reports, in the order given, from the result cache
($AVR_RESULT_CACHE, default avr_results_cache.csv). Points missing from
the cache are simulated and appended first.

)";

/// The default config with `set` ("knob=value"; "" for none) applied through
/// the config table, the way avr_sweep --set applies it, so both hash to the
/// same fingerprint.
SimConfig config_of(const std::string& set) {
  SimConfig c;
  if (set.empty()) return c;
  std::vector<sweep::SetAxis> axes;
  sweep::add_set_axis(axes, set);
  set_knob_word(c, *axes[0].knob, axes[0].values[0]);
  return c;
}

/// AVR's metrics on `w` under config_of(set).
const RunMetrics& avr_under(ExperimentRunner& res, const std::string& w,
                            const std::string& set) {
  return res.run({config_of(set), {w, Design::kAvr}}).m;
}

uint64_t counter(const RunMetrics& m, const char* key) {
  const auto it = m.detail.find(key);
  return it == m.detail.end() ? 0 : it->second;
}

// ---- shared printers -------------------------------------------------------

/// One row per design, one column per workload, each cell metric(result) /
/// metric(baseline result), then the row's geomean: the shape of Figs. 9-13.
void print_normalized_table(ExperimentRunner& res, const char* title,
                            const Workloads& wls, const std::vector<Design>& designs,
                            double (*metric)(const RunMetrics&)) {
  std::printf("\n== %s (normalized to baseline) ==\n", title);
  std::printf("%-10s", "design");
  for (const auto& w : wls) std::printf(" %9s", w.c_str());
  std::printf(" %9s\n", "geomean");
  for (Design d : designs) {
    std::printf("%-10s", to_string(d));
    double logsum = 0;
    int n = 0;
    for (const auto& w : wls) {
      const double base = metric(res.run(w, Design::kBaseline).m);
      const double norm = base > 0 ? metric(res.run(w, d).m) / base : 0.0;
      std::printf(" %9.3f", norm);
      if (norm > 0) {
        logsum += std::log(norm);
        ++n;
      }
    }
    std::printf(" %9.3f\n", n ? std::exp(logsum / n) : 0.0);
  }
}

const std::vector<Design> kCompared = {Design::kDoppelganger, Design::kTruncate,
                                       Design::kZeroAvr, Design::kAvr};

struct Column {
  const char* label;
  const char* key;  // RunMetrics::detail counter
  int width;
};

/// The shape of Figs. 14 and 15: four AVR detail counters per workload, as
/// percent of their sum.
void print_detail_percent(ExperimentRunner& res, const Workloads& wls, const char* title,
                          const char* noun, std::span<const Column, 4> cols) {
  std::printf("%s (%%)\n%-10s", title, "workload");
  for (const Column& c : cols) std::printf(" %*s", c.width, c.label);
  std::printf("\n");
  for (const auto& w : wls) {
    const RunMetrics& m = res.run(w, Design::kAvr).m;
    double total = 0;
    for (const Column& c : cols) total += double(counter(m, c.key));
    if (total == 0) {
      std::printf("%-10s (no approximate %s)\n", w.c_str(), noun);
      continue;
    }
    std::printf("%-10s", w.c_str());
    for (const Column& c : cols)
      std::printf(" %*.1f%%", c.width - 1, 100 * double(counter(m, c.key)) / total);
    std::printf("\n");
  }
}

// ---- the reports -----------------------------------------------------------

double cycles(const RunMetrics& m) { return double(m.cycles); }
double energy(const RunMetrics& m) { return m.energy.total(); }
double traffic(const RunMetrics& m) { return double(m.dram_bytes); }
double amat(const RunMetrics& m) { return m.amat; }
double mpki(const RunMetrics& m) { return m.llc_mpki; }

void print_fig9(ExperimentRunner& res, const Workloads& wls) {
  print_normalized_table(res, "Fig. 9: Execution time", wls, kCompared, cycles);
  std::printf("\npaper AVR row: heat 0.57, lattice 0.49, lbm 0.43, orbit 0.79,"
              " kmeans ~0.85, bscholes ~1.0, wrf 0.98\n");
}

void print_fig10(ExperimentRunner& res, const Workloads& wls) {
  const auto designs = ExperimentRunner::paper_designs();
  print_normalized_table(res, "Fig. 10: Total energy", wls, designs, energy);
  std::printf("\n-- component breakdown (fraction of each design's total) --\n");
  for (const auto& w : wls) {
    std::printf("%s\n", w.c_str());
    std::printf("  %-10s %8s %8s %8s %8s %8s\n", "design", "core", "l1+l2", "llc",
                "dram", "comp");
    for (Design d : designs) {
      const EnergyBreakdown& e = res.run(w, d).m.energy;
      const double t = e.total();
      std::printf("  %-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", to_string(d),
                  100 * e.core / t, 100 * e.l1l2 / t, 100 * e.llc / t,
                  100 * e.dram / t, 100 * e.compressor / t);
    }
  }
  std::printf("\npaper AVR energy (norm.): heat 0.82, lattice 0.77, kmeans 0.98,"
              " orbit 0.92\n");
}

// The extension design point of Fig. 11 and Table 4: AVR with the lossless
// BDI-hybrid fallback tier.
constexpr const char* kBdi = "avr.enable_bdi_hybrid=1";

void print_fig11(ExperimentRunner& res, const Workloads& wls) {
  const auto designs = ExperimentRunner::paper_designs();
  print_normalized_table(res, "Fig. 11: Memory traffic", wls, designs, traffic);
  std::printf("\n-- approx / non-approx split (bytes, AVR) --\n");
  std::printf("%-10s %14s %14s %14s\n", "workload", "approx", "other", "metadata");
  for (const auto& w : wls) {
    const RunMetrics& m = res.run(w, Design::kAvr).m;
    std::printf("%-10s %14llu %14llu %14llu\n", w.c_str(),
                static_cast<unsigned long long>(m.dram_bytes_approx),
                static_cast<unsigned long long>(m.dram_bytes_other),
                static_cast<unsigned long long>(m.metadata_bytes));
  }
  std::printf("\npaper AVR traffic (norm.): heat 0.29, lattice 0.49, lbm 0.33,"
              " orbit 0.52, kmeans 0.63, bscholes 0.94, wrf 0.97\n");

  // Normalized to the same (default-config) baseline as the table above.
  std::printf("\n-- AVR + BDI fallback (%s), norm. traffic --\n", kBdi);
  std::printf("%-10s %10s %10s\n", "workload", "AVR", "AVR+bdi");
  for (const auto& w : wls) {
    const double base = traffic(res.run(w, Design::kBaseline).m);
    std::printf("%-10s %10.3f %10.3f\n", w.c_str(),
                traffic(res.run(w, Design::kAvr).m) / base,
                traffic(avr_under(res, w, kBdi)) / base);
  }
}

void print_fig12(ExperimentRunner& res, const Workloads& wls) {
  print_normalized_table(res, "Fig. 12: AMAT", wls, kCompared, amat);
  std::printf("\npaper AVR row: heat 0.80, lattice 0.57, lbm 0.70, orbit 0.84,"
              " kmeans 0.77, wrf ~1.0\n");
}

// An AVR request that hits a compressed block in the LLC or the DBUF counts
// as a hit (it avoided DRAM), which is what drives AVR's low MPKI.
void print_fig13(ExperimentRunner& res, const Workloads& wls) {
  print_normalized_table(res, "Fig. 13: LLC MPKI", wls, kCompared, mpki);
  std::printf("\npaper: ZeroAVR ~1.0 everywhere; AVR lattice 0.14 vs dganger"
              " 0.48 / truncate 0.53\n");
}

void print_fig14(ExperimentRunner& res, const Workloads& wls) {
  constexpr Column kCols[] = {
      {"miss", "req_miss", 9},
      {"uncomp", "req_hit_ucl", 9},
      {"dbuf", "req_hit_dbuf", 9},
      {"compr", "req_hit_compressed", 9},
  };
  print_detail_percent(res, wls, "Fig. 14: AVR LLC requests on approximate cachelines",
                       "requests", kCols);
  std::printf("\npaper: 40-80%% of requests hit the DBUF or compressed blocks;"
              " kmeans ~55%% compressed + ~20%% DBUF\n");
}

void print_fig15(ExperimentRunner& res, const Workloads& wls) {
  constexpr Column kCols[] = {
      {"recompr", "evict_recompress", 10},
      {"lazy", "evict_lazy_wb", 10},
      {"fetch+rec", "evict_fetch_recompress", 12},
      {"uncomp", "evict_uncompressed_wb", 10},
  };
  print_detail_percent(res, wls, "Fig. 15: AVR LLC evictions of approximate cachelines",
                       "evictions", kCols);
  std::printf("\npaper: kmeans/bscholes ~40%% fetch+recompress, rest uncompressed;"
              " other apps 45-80%% lazy writebacks\n");
}

// Table 3: the mean relative error of each output value vs the exact run.
void print_table3(ExperimentRunner& res, const Workloads& wls) {
  std::printf("Table 3: Application output error (%%)\n");
  std::printf("%-10s", "design");
  for (const auto& w : wls) std::printf(" %9s", w.c_str());
  std::printf("\n");
  for (Design d : {Design::kDoppelganger, Design::kTruncate, Design::kAvr}) {
    std::printf("%-10s", to_string(d));
    for (const auto& w : wls) {
      const double e = 100.0 * res.run(w, d).m.output_error;
      if (e < 0.05)
        std::printf(" %9s", "<0.05");
      else if (e > 100.0)
        std::printf(" %9s", ">100");
      else
        std::printf(" %8.1f%%", e);
    }
    std::printf("\n");
  }
  std::printf("\npaper     heat=0.7 lattice=0.6 lbm=0.1 orbit<0.05 kmeans=1.2 "
              "bscholes=0.5 wrf=8.9  (AVR row)\n");
}

// Table 4. Footprint follows the paper's definition: compressed bytes of
// approximable data plus exact bytes of everything else, over the
// uncompressed total. In the BDI extension, `bdi blocks` counts compressions
// won by the fallback tier and `uncompressed` counts failed compression
// attempts: fewer than AVR alone means the fallback converted
// would-be-uncompressed blocks.
void print_table4(ExperimentRunner& res, const Workloads& wls) {
  const auto row = [&](const char* label, const std::string& set, auto cell) {
    std::printf("%-14s", label);
    for (const auto& w : wls) cell(avr_under(res, w, set));
    std::printf("\n");
  };
  const auto ratio = [](const RunMetrics& m) {
    std::printf(" %8.1fx", m.compression_ratio);
  };
  const auto count = [](const char* key) {
    return [key](const RunMetrics& m) {
      std::printf(" %9llu", static_cast<unsigned long long>(counter(m, key)));
    };
  };

  std::printf("Table 4: AVR compression ratio and footprint\n");
  std::printf("%-14s", "metric");
  for (const auto& w : wls) std::printf(" %9s", w.c_str());
  std::printf("\n");
  row("compr. ratio", "", ratio);
  row("mem footprint", "", [](const RunMetrics& m) {
    const double approx = static_cast<double>(m.approx_bytes);
    const double exact = static_cast<double>(m.footprint_bytes) - approx;
    const double ratio = m.compression_ratio > 0 ? m.compression_ratio : 1.0;
    const double frac = (exact + approx / ratio) / (exact + approx);
    std::printf(" %8.1f%%", 100.0 * frac);
  });
  std::printf("\npaper ratio    10.5x 9.6x 15.6x 16.0x 2.3x 4.7x 3.4x\n");
  std::printf("paper footprint 12.6%% 20.0%% 7.9%% 54.1%% 58.5%% 78.6%% 89.6%%\n");

  std::printf("\nExtension: AVR + BDI-hybrid fallback (%s)\n", kBdi);
  row("compr. ratio", kBdi, ratio);
  row("bdi blocks", kBdi, count("blocks_bdi"));
  row("uncompressed", kBdi, count("compress_failures"));
}

// Sec. 4.2, computed from the implemented structure geometry, not simulated.
// Throws if a CMT entry does not round-trip through its 23 bits.
void print_overheads(ExperimentRunner&, const Workloads&) {
  // CMT: four 23-bit entries per 4 kB page, plus 1 approx bit in the TLB.
  // The paper's ~2x is the size of a TLB entry carrying them relative to
  // an unmodified one (52+36 bits).
  const unsigned cmt_bits = 4 * 23 + 1;
  const unsigned tlb_bits = 52 + 36;
  std::printf("Sec 4.2: AVR hardware overhead\n");
  std::printf("CMT+TLB bits per page: %u (paper: 93)\n", cmt_bits);
  std::printf("TLB entry size with CMT bits vs without ((52+36+%u)/(52+36)): %.2fx"
              " (paper: ~2x)\n",
              cmt_bits, static_cast<double>(tlb_bits + cmt_bits) / tlb_bits);

  // LLC: extra bits per 64 B data entry (tag-array block fields + BPA).
  SimConfig cfg;  // paper geometry: 8 MB, 16-way
  const uint64_t entries = cfg.llc.size_bytes / kCachelineBytes;
  const unsigned extra_bits = AvrLlc::kBpaExtraBitsPerEntry;
  const double extra_kb = entries * extra_bits / 8.0 / 1024.0;
  std::printf("LLC extra bits per entry: %u -> %.0f kB on 8 MB LLC (%.1f%%)"
              " (paper: 18 bits, 144 kB, 3.2%%)\n",
              extra_bits, extra_kb, 100.0 * extra_kb * 1024.0 / cfg.llc.size_bytes);

  BlockMeta m;
  m.method = Method::kDownsample2D;
  m.size_lines = 5;
  m.lazy_count = 7;
  m.bias = -42;
  m.failed = 3;
  m.skipped = 2;
  const bool ok = BlockMeta::unpack(m.pack()) == m && (m.pack() >> 23) == 0;
  std::printf("CMT 23-bit encoding round-trip: %s\n", ok ? "ok" : "FAILED");
  if (!ok) throw std::runtime_error("a CMT entry does not round-trip through 23 bits");
}

// The ablation's configs, each with one AVR mechanism off: lazy eviction
// (Sec. 3.1/3.5), PFE (Sec. 3.3), failure history (Sec. 3.2/3.5), or one of
// the two downsampling variants (Sec. 3.3). "" is the full design.
constexpr std::pair<const char*, const char*> kAblation[] = {
    {"full AVR", ""},
    {"no lazy eviction", "avr.enable_lazy_eviction=0"},
    {"no PFE", "avr.enable_pfe=0"},
    {"no failure history", "avr.enable_failure_history=0"},
    {"1D only", "avr.enable_2d=0"},
    {"2D only", "avr.enable_1d=0"},
};

void print_ablation(ExperimentRunner& res, const Workloads& wls) {
  std::printf("AVR ablation (each cell normalized to the full design)\n");
  for (const auto& w : wls) {
    std::printf("\n%s\n", w.c_str());
    std::printf("  %-20s %10s %10s %10s\n", "variant", "cycles", "traffic",
                "error(%)");
    const RunMetrics& full = res.run(w, Design::kAvr).m;
    for (const auto& [label, set] : kAblation) {
      const RunMetrics& m = avr_under(res, w, set);
      std::printf("  %-20s %10.3f %10.3f %9.2f%%\n", label, cycles(m) / cycles(full),
                  traffic(m) / traffic(full), 100 * m.output_error);
    }
  }
}

struct Report {
  const char* name;
  const char* what;  // the artifact, for the usage text
  Workloads workloads;
  std::vector<Design> designs;        // read under the default config
  std::vector<std::string> variants;  // "knob=value" configs AVR is read under
  void (*print)(ExperimentRunner&, const Workloads&);
};

std::vector<Report> reports() {
  const Workloads all = workload_names();
  const auto paper = ExperimentRunner::paper_designs();
  const std::vector<Design> avr = {Design::kAvr};
  const std::vector<Design> approx = {Design::kDoppelganger, Design::kTruncate,
                                      Design::kAvr};
  std::vector<std::string> ablation;
  for (const auto& v : kAblation) ablation.push_back(v.second);
  return {
      {"fig9", "Fig. 9: execution time", all, paper, {}, print_fig9},
      {"fig10", "Fig. 10: system energy and its breakdown", all, paper, {}, print_fig10},
      {"fig11", "Fig. 11: DRAM traffic, AVR+BDI", all, paper, {kBdi}, print_fig11},
      {"fig12", "Fig. 12: average memory access time", all, paper, {}, print_fig12},
      {"fig13", "Fig. 13: LLC misses per kilo-instruction", all, paper, {}, print_fig13},
      {"fig14", "Fig. 14: AVR LLC request breakdown", all, avr, {}, print_fig14},
      {"fig15", "Fig. 15: AVR LLC eviction breakdown", all, avr, {}, print_fig15},
      {"table3", "Table 3: application output error", all, approx, {}, print_table3},
      {"table4", "Table 4: compression, footprint, AVR+BDI", all, avr, {kBdi},
       print_table4},
      {"overheads", "Sec. 4.2: CMT/TLB/LLC hardware overheads", {}, {}, {},
       print_overheads},
      {"ablation", "lazy eviction / PFE / history / 1D-2D ablations",
       {"heat", "lattice", "kmeans"}, {}, ablation, print_ablation},
  };
}

/// Reads every point `r` prints in one sweep — its designs under the default
/// config, then AVR under each variant — simulating (and caching) missing ones.
void warm(ExperimentRunner& res, const Report& r) {
  auto grid = sweep::config_grid({}, r.workloads, r.designs);
  for (const std::string& set : r.variants)
    for (const auto& w : r.workloads) grid.push_back({config_of(set), {w, Design::kAvr}});
  (void)sweep::run_grid(grid, res, "", {});
}

void print_usage(std::FILE* out, const std::vector<Report>& table) {
  std::fputs(kUsage, out);
  for (const Report& r : table) std::fprintf(out, "  %-10s %s\n", r.name, r.what);
  std::fputs("  --help     this text\n", out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Report> table = reports();
  std::vector<const Report*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_usage(stdout, table);
      return 0;
    }
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const Report& r) { return arg == r.name; });
    if (it == table.end()) {
      std::fprintf(stderr, "avr_report: unknown report '%s'\n", arg.c_str());
      print_usage(stderr, table);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    print_usage(stderr, table);
    return 2;
  }

  ExperimentRunner res;
  try {
    for (const Report* r : selected) {
      warm(res, *r);
      r->print(res, r->workloads);
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "avr_report: %s\n", e.what());
    return 1;
  }
  return 0;
}
