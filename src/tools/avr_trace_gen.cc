// avr_trace_gen: produces replayable access-stream traces (binary trace
// format v1) for the `trace:<path>` workload frontend. Two modes:
//
//   synthesize  irregular patterns the hand-written kernels cannot produce
//               (pointer-chasing, Zipf hot sets, random walks):
//                 avr_trace_gen --out chase.trace --pattern chase --records 65536
//
//   re-record   any existing workload, by running it through a System with
//               the capture hook attached (functional run: capture costs
//               seconds, not a simulation):
//                 avr_trace_gen --out kmeans.trace --record kmeans --limit 1000000
//
// Output is deterministic for a given flag tuple, so CI shards can each
// regenerate an identical trace instead of shipping it between jobs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "runtime/system.hh"
#include "trace/trace_format.hh"
#include "trace/trace_gen.hh"
#include "workloads/workload.hh"

namespace {

constexpr const char* kUsage = R"(usage: avr_trace_gen --out path [options]

Synthesize a replayable access trace, or re-record a workload as one.

  --out path         output trace file (required)
  --pattern p        chase | zipf | walk | mixed (default mixed)
  --records N        synthetic records to emit (default 65536); mixed
                     emits 3 x floor(N/3), so 65536 gives 65535
  --regions K        regions to spread the stream over, 1..4096 (default
                     4); mixed uses three groups of max(1, floor(K/3))
  --bytes B          bytes per region, 4-aligned, at least 64 (default
                     262144)
  --stores F         store fraction 0..1 (default 0.25)
  --seed S           generator seed (default 1)
  --record W         re-record workload W (a kernel name or trace:<path>)
                     instead of synthesizing; captures its instrumented
                     access stream through a functional run
  --limit N          keep only the first N captured accesses (default
                     4194304); the overflow count is reported, not silently
                     dropped
  --help             this text
)";

struct Options {
  std::string out;
  std::string pattern = "mixed";
  std::string record_workload;
  avr::trace::GenParams gen;
  uint64_t limit = 4u << 20;
};

uint64_t parse_u64(const std::string& v, const char* flag) {
  size_t pos = 0;
  long long n = 0;
  try {
    n = std::stoll(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != v.size() || n < 0)
    throw std::invalid_argument(std::string("bad ") + flag + " value: " + v);
  return static_cast<uint64_t>(n);
}

Options parse_args(int argc, char** argv) {
  Options o;
  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out") {
      o.out = value(i, "--out");
    } else if (a == "--pattern") {
      o.pattern = value(i, "--pattern");
    } else if (a == "--records") {
      o.gen.records = parse_u64(value(i, "--records"), "--records");
    } else if (a == "--regions") {
      const std::string v = value(i, "--regions");
      const uint64_t n = parse_u64(v, "--regions");
      if (n > UINT32_MAX) throw std::invalid_argument("bad --regions value: " + v);
      o.gen.regions = static_cast<uint32_t>(n);
    } else if (a == "--bytes") {
      o.gen.region_bytes = parse_u64(value(i, "--bytes"), "--bytes");
    } else if (a == "--stores") {
      // Range checks are the generator's; this only insists on a number.
      const std::string v = value(i, "--stores");
      size_t pos = 0;
      try {
        o.gen.store_fraction = std::stod(v, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos == 0 || pos != v.size())
        throw std::invalid_argument("bad --stores value: " + v);
    } else if (a == "--seed") {
      o.gen.seed = parse_u64(value(i, "--seed"), "--seed");
    } else if (a == "--record") {
      o.record_workload = value(i, "--record");
    } else if (a == "--limit") {
      o.limit = parse_u64(value(i, "--limit"), "--limit");
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  if (o.out.empty()) throw std::invalid_argument("--out is required");
  return o;
}

/// Trace-legal region name: truncated to fit the 24-byte field, hostile
/// characters replaced, uniqueness restored with a numeric suffix.
std::string sanitize_name(std::string name, size_t index,
                          const std::vector<avr::trace::TraceRegion>& taken) {
  if (name.empty()) name = "region";
  for (char& c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u > 0x7E || c == ',') c = '_';
  }
  if (name.size() >= avr::trace::kRegionNameBytes)
    name.resize(avr::trace::kRegionNameBytes - 1);
  auto in_use = [&](const std::string& n) {
    return std::any_of(taken.begin(), taken.end(),
                       [&](const auto& r) { return r.name == n; });
  };
  if (!in_use(name)) return name;
  std::string suffix = "~" + std::to_string(index);
  std::string base = name.substr(
      0, avr::trace::kRegionNameBytes - 1 - suffix.size());
  return base + suffix;
}

avr::trace::Trace capture_workload(const std::string& name, uint64_t limit,
                                   uint64_t* dropped) {
  using namespace avr;
  auto wl = make_workload(name);  // throws a diagnosable error on bad names
  const SimConfig cfg = workload_config({}, *wl);

  struct Captured {
    uint64_t addr;
    bool write;
  };
  std::vector<Captured> stream;
  stream.reserve(std::min<uint64_t>(limit, 1u << 20));
  *dropped = 0;
  // Functional run: the hook sees the same instrumented stream a timing run
  // would issue, without paying for the simulation.
  System sys(Design::kBaseline, cfg, 1, /*timing=*/false);
  sys.set_access_hook([&](uint64_t addr, bool write) {
    if (stream.size() < limit)
      stream.push_back({addr, write});
    else
      ++*dropped;
  });
  wl->run(sys);
  sys.set_access_hook(nullptr);

  trace::Trace t;
  const auto& regions = sys.regions().regions();  // sorted by base
  std::vector<uint64_t> bases;
  for (size_t i = 0; i < regions.size(); ++i) {
    t.regions.push_back({sanitize_name(regions[i].name, i, t.regions),
                         regions[i].bytes, regions[i].approx});
    bases.push_back(regions[i].base);
  }
  t.records.reserve(stream.size());
  for (const Captured& c : stream) {
    // Region containing the address: last base <= addr (allocation is
    // block-aligned and regions never overlap).
    const auto it = std::upper_bound(bases.begin(), bases.end(), c.addr);
    if (it == bases.begin()) continue;  // below the first region: untracked
    const size_t idx = static_cast<size_t>(it - bases.begin()) - 1;
    const uint64_t off = (c.addr - bases[idx]) & ~uint64_t{3};  // f32-aligned
    if (off + 4 > regions[idx].bytes) continue;
    t.records.push_back({c.write ? trace::Op::kStore : trace::Op::kLoad,
                         static_cast<uint16_t>(idx), 4, off});
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace avr;
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avr_trace_gen: %s\n%s", e.what(), kUsage);
    return 2;
  }

  try {
    trace::Trace t;
    uint64_t dropped = 0;
    if (!o.record_workload.empty()) {
      t = capture_workload(o.record_workload, o.limit, &dropped);
    } else {
      t = trace::make_synthetic_trace(o.pattern, o.gen);
    }
    std::string err;
    if (!trace::write_trace_file(o.out, t, &err)) {
      std::fprintf(stderr, "avr_trace_gen: cannot write %s: %s\n",
                   o.out.c_str(), err.c_str());
      return 1;
    }
    const std::string extra =
        dropped ? " (+" + std::to_string(dropped) + " accesses beyond --limit dropped)"
                : "";
    std::printf(
        "%s: %zu region(s), %zu record(s), %llu replayed accesses, "
        "%llu B footprint%s\n",
        o.out.c_str(), t.regions.size(), t.records.size(),
        static_cast<unsigned long long>(t.access_count()),
        static_cast<unsigned long long>(t.footprint_bytes()), extra.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avr_trace_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
