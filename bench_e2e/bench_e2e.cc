// bench_e2e: end-to-end benchmark of a cold (workload x design) sweep, with
// an outside-in per-layer ledger.
//
// End-to-end rounds drive the unmodified avr_sweep binary as a child process
// — the command users run — each round with a fresh result cache, so every
// point simulates with empty modelled caches. Per round it measures wall
// time and CPU time of the process (wait4), the start-up time up to the
// sweep's "[sweep] claim mode" header, and reads back the result cache and
// the profile sidecar. The warm-up round runs every point in its own
// one-job avr_sweep process and gives the memory metrics from their peak
// RSS. Every point is checked against the committed reference
// (bench_e2e/reference/) or, for seeds without one, against the warm-up
// round.
//
// The traced run (--trace 1) re-runs each point in-process three times on a
// pool of J threads — functional, functional with a no-op access hook, and a
// *shadow chain* (IntervalCore -> MemoryHierarchy -> timed LLC decorator ->
// the design's real LLC) driven from the functional System's access hook —
// and times each layer from outside through its public interface. Stores
// land in the same region registry right after the hook, exactly as in
// System::touch, so LLC, DRAM and compressor behaviour is exact; the hook
// cannot see ops() instructions, so only cycles and latency totals may
// differ. The faithfulness check enforces exactly that split.
//
// Every host time is scaled by a speed probe run around each round (see
// "host speed probe" below), so times from a slow and a fast minute of a
// shared machine compare.
//
//   bench_e2e --workload paper-grid --seed 1 --seconds 25 [--trace 1]
//             [--out result.json] [--trace-out spans.json] [--write-reference]
//
// bench_e2e/README.md documents the metrics, workloads and output files.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "avr/avr_system.hh"
#include "baselines/baseline_system.hh"
#include "baselines/doppelganger_system.hh"
#include "baselines/truncate_system.hh"
#include "common/profile.hh"
#include "cpu/hierarchy.hh"
#include "cpu/interval_core.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "runtime/system.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;
using avr::Design;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// The whole benchmark must finish well inside the 180 s a run may take.
constexpr double kBenchDeadlineSeconds = 170;
// No new end-to-end round starts after this point, whatever --seconds says.
constexpr double kLastRoundStartSeconds = 120;

// ---- statistics -------------------------------------------------------------

/// Quantile by the 'exclusive' method of Python's statistics.quantiles, so
/// the medians and quartiles printed here are the ones compare.py computes.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 1) return v[0];
  const double pos = p * static_cast<double>(n + 1);
  size_t j = static_cast<size_t>(std::floor(pos));
  j = std::clamp<size_t>(j, 1, n - 1);
  const double delta = pos - static_cast<double>(j);
  return v[j - 1] + delta * (v[j] - v[j - 1]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  // per-round values (spread), or the value
  size_t n = 0;                 // samples behind `value`
};

/// A metric whose value is the median of per-round samples.
Metric per_round(std::string name, std::string unit, std::vector<double> samples) {
  const double value = median(samples);
  const size_t n = samples.size();
  return Metric{std::move(name), std::move(unit), value, std::move(samples), n};
}

/// A metric measured once (traced run, exact counts).
Metric single(std::string name, std::string unit, double value) {
  return Metric{std::move(name), std::move(unit), value, {value}, 1};
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Names printed on the final line: exactly BENCHMARK.json's lists.
const std::vector<std::string> kEndToEnd = {
    "wall_s",       "cpu_s",    "sim_mips",   "point_p50_ms",
    "point_p90_ms", "setup_s",  "point_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "workloads.functional_s",
    "workloads.load_s",
    "workloads.accesses",
    "workloads.ns_per_access",
    "tracing.hook_s",
    "tracing.overhead_frac",
    "tracing.count_mismatches",
    "cpu.self_s",
    "cpu.ns_per_access",
    "cpu.l1_hit_frac",
    "cpu.l2_accesses",
    "cpu.llc_requests",
    "cpu.llc_writebacks",
    "llc.self_s",
    "llc.ns_per_call",
    "llc.miss_frac",
    "baselines.dganger.llc_share",
    "baselines.dganger.dedup_hit_frac",
    "baselines.dganger.data_evictions",
    "avr.llc_share",
    "avr.compress_share",
    "avr.compress_calls",
    "avr.compress_success_frac",
    "avr.attempts_skipped",
    "avr.decompressions",
    "dram.reads",
    "dram.writes",
    "dram.mb",
    "dram.row_hit_frac",
    "dram.read_latency_avg_cyc",
    "harness.setup_s",
    "harness.golden_s",
    "harness.sim_s",
    "harness.cache_io_s",
    "harness.cache_io_calls",
    "harness.claims_won",
    "harness.claims_lost",
    "harness.sched_idle_frac"};

// ---- host speed probe -------------------------------------------------------
//
// Host speed on a shared VM drifts by tens of percent over minutes (on a
// 4-vCPU Xeon VM the same sweep's CPU time moved 40% within five minutes,
// tracking this probe with correlation 0.9), far more than a regression
// bound can absorb. Every round is therefore bracketed by a fixed, bench-owned probe —
// a small set-associative cache simulation on J threads, the load shape of
// the sweep itself — and every host time is scaled by kProbeRefSeconds /
// probe seconds: it is reported at the speed of a reference machine state.
// The probe's code does not change with the program, so a faster simulator
// still reads faster. Raw times and the factor are printed alongside.

// Per-thread CPU seconds of one probe on the reference machine state.
constexpr double kProbeRefSeconds = 0.2;
constexpr int kProbeIterations = 6000000;

uint64_t probe_kernel(uint64_t seed) {
  constexpr uint64_t kSets = 4096, kWays = 8;
  std::vector<uint64_t> tag(kSets * kWays, ~uint64_t{0}), lru(kSets * kWays, 0);
  std::vector<float> data(1u << 21);
  std::unordered_map<uint64_t, uint32_t> directory;
  uint64_t x = seed, clock = 0, hits = 0;
  for (int i = 0; i < kProbeIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // 80% of accesses to a hot 16 K-line set, the rest over 1 M lines.
    const uint64_t line = (x & 0xff) < 205 ? (x >> 20) & 0x3fff : (x >> 20) & 0xfffff;
    uint64_t* t = &tag[(line & (kSets - 1)) * kWays];
    uint64_t* l = &lru[(line & (kSets - 1)) * kWays];
    uint64_t hit = kWays, victim = 0;
    for (uint64_t w = 0; w < kWays; ++w) {
      if (t[w] == line) hit = w;
      if (l[w] < l[victim]) victim = w;
    }
    ++clock;
    if (hit < kWays) {
      l[hit] = clock;
      ++hits;
      data[(line * 16) & (data.size() - 1)] += 1.0f;
    } else {
      t[victim] = line;
      l[victim] = clock;
      if ((line & 15) == 0) ++directory[line];
    }
  }
  return hits + directory.size() + static_cast<uint64_t>(data[seed & 1023]);
}

/// Mean per-thread CPU seconds of the probe run on `jobs` threads at once.
double probe_cpu_seconds(unsigned jobs) {
  std::vector<double> cpu(jobs);
  std::atomic<uint64_t> sink{0};
  auto body = [&](unsigned t) {
    timespec a{}, b{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
    sink += probe_kernel(t + 1);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
    cpu[t] = static_cast<double>(b.tv_sec - a.tv_sec) +
             1e-9 * static_cast<double>(b.tv_nsec - a.tv_nsec);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < jobs; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& t : pool) t.join();
  double sum = 0;
  for (double c : cpu) sum += c;
  return sum / jobs;
}

/// probe_cpu_seconds in a forked child, so the probe's memory never raises
/// this process's peak RSS: a sweep spawned with vfork reports that peak as
/// its own ru_maxrss whenever it is the larger. Called only while this
/// process is single-threaded.
double speed_probe(unsigned jobs) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  const pid_t pid = fork();
  if (pid == 0) {
    const double cpu = probe_cpu_seconds(jobs);
    _exit(write(fds[1], &cpu, sizeof(cpu)) == sizeof(cpu) ? 0 : 1);
  }
  close(fds[1]);
  double cpu = 0;
  const bool got = pid > 0 && read(fds[0], &cpu, sizeof(cpu)) == sizeof(cpu);
  close(fds[0]);
  if (pid > 0)
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  if (!got || !(cpu > 0)) throw std::runtime_error("speed probe failed");
  return cpu;
}

/// Point key independent of where the trace files live: "trace:<stem>".
std::string display_name(const std::string& workload) {
  if (workload.rfind("trace:", 0) != 0) return workload;
  return "trace:" + fs::path(workload.substr(6)).stem().string();
}

// ---- minimal JSON reader (the avr-profile-v1 sidecar) -------------------------

struct Json {
  enum Kind { kNumber, kString, kArray, kObject } kind = kNumber;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json& at(const std::string& key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return v;
    throw std::runtime_error("sidecar: missing key '" + key + "'");
  }
  double num(const std::string& key) const {
    const Json& v = at(key);
    if (v.kind != kNumber)
      throw std::runtime_error("sidecar: '" + key + "' is not a number");
    return v.number;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("sidecar JSON: ") + what + " at byte " +
                             std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected character");
  }
  std::string string_body() {
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("bad escape");
        const char e = s_[i_++];
        if (e == 'u') {
          if (i_ + 4 > s_.size()) fail("bad \\u escape");
          c = static_cast<char>(std::stoi(s_.substr(i_, 4), nullptr, 16));
          i_ += 4;
        } else {
          c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
        }
      }
      out += c;
    }
    if (i_ >= s_.size()) fail("unterminated string");
    ++i_;
    return out;
  }
  Json value() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Json::kObject;
      if (eat('}')) return v;
      do {
        expect('"');
        std::string key = string_body();
        expect(':');
        v.fields.emplace_back(std::move(key), value());
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.kind = Json::kArray;
      if (eat(']')) return v;
      do v.items.push_back(value());
      while (eat(','));
      expect(']');
    } else if (c == '"') {
      ++i_;
      v.kind = Json::kString;
      v.text = string_body();
    } else {
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      v.kind = Json::kNumber;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad number");
      i_ += static_cast<size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  size_t i_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// What one sweep's avr-profile-v1 sidecar says about the harness.
struct Sidecar {
  double setup_s = 0, golden_s = 0, sim_s = 0, cache_io_s = 0;
  double cache_io_calls = 0, claims_won = 0, claims_lost = 0;
  // One slice per simulated point: "<workload> x <design>", wall seconds.
  std::vector<std::pair<std::string, double>> points;
};

Sidecar read_sidecar(const std::string& path) {
  const std::string text = read_file(path);
  const Json root = JsonReader(text).parse();
  const Json& agg = root.at("aggregate");
  const Json& phases = agg.at("phases");
  const Json& counters = agg.at("counters");
  Sidecar s;
  s.setup_s = phases.at("setup").num("ns") * 1e-9;
  s.golden_s = phases.at("functional").num("ns") * 1e-9;
  s.sim_s = phases.at("timing").num("ns") * 1e-9;
  s.cache_io_s = phases.at("cache_io").num("ns") * 1e-9;
  s.cache_io_calls = phases.at("cache_io").num("calls");
  s.claims_won = counters.num("claims_won");
  s.claims_lost = counters.num("claims_lost");
  for (const Json& p : root.at("points").items)
    s.points.emplace_back(
        display_name(p.at("workload").text) + " x " + p.at("design").text,
        p.num("wall_seconds"));
  return s;
}

// ---- child processes ----------------------------------------------------------

struct ChildRun {
  int status = -1;         // wait4 status
  double wall_s = 0;       // spawn -> exit
  double cpu_s = 0;        // user + sys
  double header_s = -1;    // spawn -> first `marker` in the output; -1 = never
  double max_rss_mb = 0;
  std::string output;      // merged stdout + stderr
  bool ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }
};

Clock::time_point g_start;

/// Runs argv[0] with stdout+stderr captured, stdin from /dev/null, killed if
/// it outlives the benchmark deadline (or this process). Always reaps it.
ChildRun run_child(const std::vector<std::string>& args, const std::string& marker = "") {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");

  const int devnull = open("/dev/null", O_RDONLY | O_CLOEXEC);

  ChildRun r;
  const auto t0 = Clock::now();
  // vfork: the spawn cost must not depend on this process's own memory,
  // which fork() would copy page tables for. The child makes raw system
  // calls only, then execs.
  const pid_t pid = vfork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (devnull >= 0) dup2(devnull, 0);
    dup2(fds[1], 1);
    dup2(fds[1], 2);
    execv(argv[0], argv.data());
    _exit(127);
  }
  if (devnull >= 0) close(devnull);
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    throw std::runtime_error("vfork failed");
  }
  bool killed = false;
  char buf[4096];
  for (;;) {
    const double left = kBenchDeadlineSeconds - seconds_between(g_start, Clock::now());
    if (left <= 0 && !killed) {
      kill(pid, SIGKILL);
      killed = true;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int timeout_ms =
        killed ? 1000 : static_cast<int>(std::min(left, 1.0) * 1000) + 1;
    if (poll(&p, 1, timeout_ms) < 0 && errno != EINTR) break;
    if (!(p.revents & (POLLIN | POLLHUP))) continue;
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    r.output.append(buf, static_cast<size_t>(n));
    if (r.header_s < 0 && !marker.empty() && r.output.find(marker) != std::string::npos)
      r.header_s = seconds_between(t0, Clock::now());
  }
  close(fds[0]);
  rusage ru{};
  while (wait4(pid, &r.status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_s = seconds_between(t0, Clock::now());
  r.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

// `bench_e2e --peak-rss PROG ARGS...` runs PROG and then prints this marker
// and PROG's peak RSS in KiB on standard output.
constexpr const char* kPeakRssMarker = "bench_e2e peak_rss_kib ";

/// The --peak-rss mode. exec counts the peak RSS of the address space it
/// replaces into the new program's ru_maxrss, so a program spawned straight
/// from the benchmark reports the benchmark's own peak whenever that is the
/// larger. Spawned from this freshly exec'd process, it reports its own, over
/// a small floor that is the same on every run.
int peak_rss_main(char** argv) {
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execv(argv[0], argv);
    _exit(127);
  }
  if (pid < 0) return 127;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  std::printf("%s%ld\n", kPeakRssMarker, ru.ru_maxrss);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---- workloads ------------------------------------------------------------------

/// One benchmark workload: which points one avr_sweep process runs.
struct WorkloadSpec {
  std::string name;
  std::vector<Design> designs;
  bool traces = false;  // trace-mix: generated traces instead of the kernels
};

const std::vector<Design> kAllDesigns = avr::ExperimentRunner::paper_designs();

const std::vector<WorkloadSpec> kWorkloads = {
    {"paper-grid", kAllDesigns, false},
    {"avr-designs", {Design::kZeroAvr, Design::kAvr}, false},
    {"exact-designs", {Design::kBaseline, Design::kTruncate}, false},
    {"trace-mix", kAllDesigns, true},
};

// trace-mix: 4 patterns x 2 store fractions x 6 traces of 32768 records.
const std::vector<std::string> kTracePatterns = {"chase", "zipf", "walk", "mixed"};
const std::vector<std::pair<std::string, std::string>> kStoreFractions = {
    {"st05", "0.05"}, {"st50", "0.5"}};
constexpr int kTracesPerGroup = 6;
constexpr const char* kTraceRecords = "32768";

using Key = std::pair<std::string, Design>;
using Records = std::map<Key, avr::ExperimentResult>;

/// Generates the trace-mix inputs into `dir` with avr_trace_gen; returns the
/// sweep workload specs. Per-trace seed = seed x 1000 + index.
std::vector<std::string> generate_traces(const std::string& bin_dir, const fs::path& dir,
                                         uint64_t seed) {
  fs::create_directories(dir);
  std::vector<std::string> specs;
  int index = 0;
  for (const auto& pattern : kTracePatterns)
    for (const auto& [tag, fraction] : kStoreFractions)
      for (int i = 0; i < kTracesPerGroup; ++i, ++index) {
        char name[64];
        std::snprintf(name, sizeof(name), "%s-%s-%d.trace", pattern.c_str(),
                      tag.c_str(), i);
        const std::string path = (dir / name).string();
        const ChildRun g = run_child(
            {bin_dir + "/avr_trace_gen", "--out", path, "--pattern", pattern,
             "--records", kTraceRecords, "--stores", fraction, "--seed",
             std::to_string(seed * 1000 + index)});
        if (!g.ok()) throw std::runtime_error("avr_trace_gen failed:\n" + g.output);
        specs.push_back("trace:" + path);
      }
  return specs;
}

// ---- reference records -----------------------------------------------------------

/// A record with wall time zeroed and a location-free workload name: the
/// form the reference files hold and every comparison uses.
avr::ExperimentResult canonical(avr::ExperimentResult r) {
  r.workload = display_name(r.workload);
  r.wall_seconds = 0;
  return r;
}

Records load_records(const std::string& path) {
  Records out;
  for (auto& [key, r] : avr::load_result_cache(path))
    out[{display_name(key.first), key.second}] = canonical(r);
  return out;
}

bool same_record(const avr::ExperimentResult& a, const avr::ExperimentResult& b) {
  return avr::encode_result_line(a) == avr::encode_result_line(b);
}

void write_reference(const std::string& path, const Records& records) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, r] : records) out << avr::encode_result_line(r) << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("wrote %zu reference records to %s\n", records.size(), path.c_str());
}

// ---- end-to-end rounds -----------------------------------------------------------

// Committed reference records, relative to the repository root.
constexpr const char* kReferenceDir = "bench_e2e/reference";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string build_dir = ".bench_build";  // avr/ holds the tools; e2e-work/ scratch
  std::string bin_dir() const { return build_dir + "/avr"; }
  fs::path work_dir() const { return fs::path(build_dir) / "e2e-work"; }
  std::string out;
  std::string trace_out;
  bool write_reference = false;
};

struct Round {
  double wall_s = 0, cpu_s = 0, setup_s = 0, rss_mb = 0;
  double speed = 1;  // host-time scale factor from the probes around the round
  size_t attempted = 0, failed = 0;
  Records records;
  Sidecar sidecar;
  std::vector<double> point_rss_mb;  // warm-up round: one per point process
};

/// A fresh, empty directory for round `index`.
fs::path round_dir(const Options& o, int index) {
  const fs::path dir = o.work_dir() / ("round-" + std::to_string(index));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The sweep workload names of one round: the kernels, or trace-mix's traces
/// freshly generated into `dir`/traces.
std::vector<std::string> round_workloads(const Options& o, const WorkloadSpec& spec,
                                         const fs::path& dir) {
  if (!spec.traces) return avr::workload_names();
  return generate_traces(o.bin_dir(), dir / "traces", o.seed);
}

std::set<Key> point_keys(const std::vector<std::string>& workloads,
                         const WorkloadSpec& spec) {
  std::set<Key> keys;
  for (const auto& w : workloads)
    for (Design d : spec.designs) keys.insert({display_name(w), d});
  return keys;
}

/// Counts the failed points of a round: those already in `bad`, plus every
/// point of `want` that is missing from `records` or differs from `expected`
/// (an empty `expected` checks completeness only). Reports each on stderr.
size_t count_failed(int index, const std::set<Key>& want, const Records& records,
                    const Records& expected, std::set<Key> bad = {}) {
  for (const Key& k : want) {
    auto it = records.find(k);
    const char* why = nullptr;
    if (it == records.end()) {
      why = "missing";
    } else if (!expected.empty()) {
      auto e = expected.find(k);
      if (e == expected.end())
        why = "not in the reference";
      else if (!same_record(it->second, e->second))
        why = "simulated values differ from the reference";
    }
    if (why && bad.insert(k).second)
      std::fprintf(stderr, "bench_e2e: round %d: %s x %s: %s\n", index, k.first.c_str(),
                   avr::to_string(k.second), why);
  }
  if (records.size() != want.size()) {
    std::fprintf(stderr, "bench_e2e: round %d: cache holds %zu points, expected %zu\n",
                 index, records.size(), want.size());
    return std::max<size_t>(bad.size(), 1);
  }
  return bad.size();
}

/// Runs one cold sweep in a fresh directory and checks it against
/// `expected` (every key, every simulated value); an empty `expected` checks
/// completeness only.
Round run_round(const Options& o, const WorkloadSpec& spec, unsigned jobs, int index,
                const Records& expected) {
  const fs::path dir = round_dir(o, index);
  Round r;
  std::vector<std::string> args = {
      o.bin_dir() + "/avr_sweep", "--claim", "--owner", "bench", "--jobs",
      std::to_string(jobs), "--cache", (dir / "cache.csv").string(),
      "--profile-out", (dir / "profile.json").string(), "--quiet"};
  const auto g0 = Clock::now();
  const std::vector<std::string> workloads = round_workloads(o, spec, dir);
  const double gen_s = spec.traces ? seconds_between(g0, Clock::now()) : 0;
  std::string wl_csv, design_csv;
  for (const auto& w : workloads) wl_csv += (wl_csv.empty() ? "" : ",") + w;
  for (Design d : spec.designs)
    design_csv += (design_csv.empty() ? "" : ",") + std::string(avr::to_string(d));
  args.insert(args.end(), {"--workloads", wl_csv, "--designs", design_csv});

  const std::set<Key> want = point_keys(workloads, spec);
  r.attempted = want.size();

  const ChildRun c = run_child(args, "[sweep] claim mode");
  r.wall_s = c.wall_s;
  r.cpu_s = c.cpu_s;
  r.rss_mb = c.max_rss_mb;
  r.setup_s = gen_s + std::max(c.header_s, 0.0);
  if (!c.ok() || c.header_s < 0) {
    std::fprintf(stderr, "bench_e2e: sweep round %d failed (status %d):\n%s\n", index,
                 c.status, c.output.c_str());
    r.failed = want.size();
    return r;
  }
  r.records = load_records((dir / "cache.csv").string());
  r.sidecar = read_sidecar((dir / "profile.json").string());
  r.failed = count_failed(index, want, r.records, expected);
  fs::remove_all(dir / "traces");
  return r;
}

/// The warm-up round, which is also the memory measurement: every point runs
/// alone in its own `avr_sweep --jobs 1` process (started through
/// --peak-rss), J processes at a time, longest first, all appending to one
/// fresh cache. The peak RSS of a one-point process depends on that point
/// only; that of a J-job sweep depends on which points happen to overlap in
/// time (38.7 to 58.8 MB over 24 cold paper-grid sweeps with 4 jobs on a
/// 4-vCPU VM), too unsteady to gate on.
Round run_memory_round(const Options& o, const WorkloadSpec& spec, unsigned jobs,
                       const Records& expected) {
  const fs::path dir = round_dir(o, 0);
  const std::string cache = (dir / "cache.csv").string();
  const std::vector<std::string> workloads = round_workloads(o, spec, dir);
  std::vector<std::pair<std::string, Design>> points;
  for (const auto& w : workloads)
    for (Design d : spec.designs) points.emplace_back(w, d);
  auto cost = [&](const std::pair<std::string, Design>& p) -> uint64_t {
    auto it = expected.find({display_name(p.first), p.second});
    return it == expected.end() ? 0 : it->second.m.instructions;
  };
  std::stable_sort(points.begin(), points.end(),
                   [&](const auto& a, const auto& b) { return cost(a) > cost(b); });

  std::vector<ChildRun> runs(points.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < points.size(); i = next.fetch_add(1)) {
      try {
        runs[i] = run_child({o.build_dir + "/bench_e2e", "--peak-rss",
                             o.bin_dir() + "/avr_sweep", "--jobs", "1", "--workloads",
                             points[i].first, "--designs",
                             avr::to_string(points[i].second), "--cache", cache,
                             "--profile-out", "", "--quiet"});
      } catch (const std::exception& e) {
        runs[i].output = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();

  Round r;
  std::set<Key> bad;
  for (size_t i = 0; i < points.size(); ++i) {
    const std::string& out = runs[i].output;
    const size_t at = out.rfind(kPeakRssMarker);
    const double kib = at == std::string::npos
                           ? 0
                           : std::atof(out.c_str() + at + std::strlen(kPeakRssMarker));
    r.point_rss_mb.push_back(kib / 1024.0);
    if (runs[i].ok() && kib > 0) continue;
    const Key k{display_name(points[i].first), points[i].second};
    bad.insert(k);
    std::fprintf(stderr, "bench_e2e: round 0: %s x %s failed (status %d):\n%s\n",
                 k.first.c_str(), avr::to_string(k.second), runs[i].status,
                 runs[i].output.c_str());
  }
  const std::set<Key> want = point_keys(workloads, spec);
  r.attempted = want.size();
  if (fs::exists(cache)) r.records = load_records(cache);
  r.failed = count_failed(0, want, r.records, expected, std::move(bad));
  fs::remove_all(dir / "traces");
  return r;
}


// ---- traced run (per-layer ledger) -----------------------------------------------

/// Times every call into the design's LLC subsystem (which includes the DRAM
/// model and, for AVR, the compressor) and forwards it unchanged.
class TimedLlc final : public avr::LlcSystem {
 public:
  explicit TimedLlc(std::unique_ptr<avr::LlcSystem> inner) : inner_(std::move(inner)) {}

  uint64_t request(uint64_t now, uint64_t line, bool write) override {
    const auto t0 = Clock::now();
    const uint64_t latency = inner_->request(now, line, write);
    ns += ns_between(t0, Clock::now());
    ++requests;
    return latency;
  }
  void writeback(uint64_t now, uint64_t line) override {
    const auto t0 = Clock::now();
    inner_->writeback(now, line);
    ns += ns_between(t0, Clock::now());
    ++writebacks;
  }
  void drain(uint64_t now) override {
    const auto t0 = Clock::now();
    inner_->drain(now);
    ns += ns_between(t0, Clock::now());
  }
  bool last_was_miss() const override { return inner_->last_was_miss(); }
  avr::StatGroup stats() const override { return inner_->stats(); }
  avr::Dram& dram() override { return inner_->dram(); }
  const avr::Dram& dram() const override { return inner_->dram(); }

  uint64_t ns = 0;
  uint64_t requests = 0;
  uint64_t writebacks = 0;

 private:
  std::unique_ptr<avr::LlcSystem> inner_;
};

avr::MemoryHierarchy::LlcReply timed_request(avr::LlcSystem& llc, uint64_t now,
                                             uint64_t line, bool write) {
  auto& t = static_cast<TimedLlc&>(llc);
  const uint64_t latency = t.request(now, line, write);
  return {latency, t.last_was_miss()};
}

std::unique_ptr<avr::LlcSystem> make_llc(Design d, const avr::SimConfig& cfg,
                                         avr::RegionRegistry& regions) {
  switch (d) {
    case Design::kBaseline:
      return std::make_unique<avr::BaselineSystem>(cfg, regions);
    case Design::kTruncate:
      return std::make_unique<avr::TruncateSystem>(cfg, regions);
    case Design::kDoppelganger:
      return std::make_unique<avr::DoppelgangerSystem>(cfg, regions);
    case Design::kZeroAvr:
    case Design::kAvr:
      return std::make_unique<avr::AvrSystem>(cfg, regions);
  }
  throw std::logic_error("unknown design");
}

/// One span of spans.json: host time of a layer boundary on one point.
/// Calls made many times per point (the LLC) are aggregated: start/end then
/// bound the enclosing run and total_ns sums the calls.
struct Span {
  std::string name;
  int parent = -1;  // index within the point's spans, -1 = root
  uint64_t start_ns = 0, end_ns = 0, calls = 1, total_ns = 0;
};

struct TracedPoint {
  std::string spec;  // sweep workload name (trace:<path> for traces)
  Design design = Design::kBaseline;
  std::string error;
  uint64_t load_ns = 0, functional_ns = 0, hook_ns = 0, shadow_ns = 0;
  uint64_t llc_ns = 0, llc_requests_calls = 0, llc_writebacks = 0;
  uint64_t accesses = 0, cycles = 0;
  uint64_t l1_accesses = 0, l1_hits = 0, l2_accesses = 0;
  uint64_t llc_requests = 0, llc_misses = 0, dram_bytes = 0;
  avr::DramCounters dram;
  std::map<std::string, uint64_t> detail;
  avr::prof::Totals sink;
  std::vector<Span> spans;
};

void run_traced_point(TracedPoint& p, const avr::ExperimentRunner& runner,
                      Clock::time_point epoch) {
  auto since = [&](Clock::time_point t) { return ns_between(epoch, t); };
  const auto t_point = Clock::now();
  p.spans.push_back({"point", -1, since(t_point), 0, 1, 0});

  auto t0 = Clock::now();
  auto wl = avr::make_workload(p.spec);
  auto t1 = Clock::now();
  p.load_ns = ns_between(t0, t1);
  p.spans.push_back({"workloads.load", 0, since(t0), since(t1), 1, p.load_ns});
  const avr::SimConfig cfg = runner.config_for(*wl);

  {  // 1. functional: the workload and runtime API alone
    avr::System sys(p.design, cfg, 1, /*timing=*/false);
    t0 = Clock::now();
    wl->run(sys);
    t1 = Clock::now();
    p.functional_ns = ns_between(t0, t1);
    p.spans.push_back(
        {"workloads.functional", 0, since(t0), since(t1), 1, p.functional_ns});
  }
  {  // 2. the same with a no-op access hook: the cost of observing accesses
    auto w = avr::make_workload(p.spec);
    avr::System sys(p.design, cfg, 1, /*timing=*/false);
    sys.set_access_hook([](uint64_t, bool) {});
    t0 = Clock::now();
    w->run(sys);
    t1 = Clock::now();
    p.hook_ns = ns_between(t0, t1);
    p.spans.push_back({"tracing.hook", 0, since(t0), since(t1), 1, p.hook_ns});
  }
  {  // 3. shadow chain: core -> L1/L2 -> timed LLC -> the design's LLC
    auto w = avr::make_workload(p.spec);
    avr::System sys(p.design, cfg, 1, /*timing=*/false);
    TimedLlc llc(make_llc(p.design, cfg, sys.regions()));
    avr::MemoryHierarchy hier(cfg, llc, 1, &timed_request);
    avr::IntervalCore core(cfg.core, hier, 0);
    const uint64_t ops_per_access = cfg.ops_per_access;
    uint64_t accesses = 0;
    sys.set_access_hook([&](uint64_t addr, bool write) {
      ++accesses;
      core.access(addr, write, ops_per_access);
    });
    t0 = Clock::now();
    {
      avr::prof::ScopedSink sink(&p.sink);
      w->run(sys);
      hier.drain(core.cycles());
    }
    t1 = Clock::now();
    p.shadow_ns = ns_between(t0, t1);
    p.llc_ns = llc.ns;
    p.llc_requests_calls = llc.requests;
    p.llc_writebacks = llc.writebacks;
    p.accesses = accesses;
    p.cycles = core.cycles();
    p.l1_accesses = hier.l1_accesses();
    p.l1_hits = hier.l1(0).counters().hits;
    p.l2_accesses = hier.l2_accesses();
    p.llc_requests = hier.llc_requests();
    p.llc_misses = hier.llc_misses();
    p.dram_bytes = llc.dram().total_bytes();
    p.dram = llc.dram().counters();
    p.detail = llc.stats().counters();

    const int shadow = static_cast<int>(p.spans.size());
    p.spans.push_back({"shadow", 0, since(t0), since(t1), 1, p.shadow_ns});
    const int llc_span = static_cast<int>(p.spans.size());
    p.spans.push_back({"llc", shadow, since(t0), since(t1),
                       llc.requests + llc.writebacks, llc.ns});
    using avr::prof::Phase;
    if (p.sink.phase_calls(Phase::kCompress)) {
      const int compress = static_cast<int>(p.spans.size());
      p.spans.push_back({"compress", llc_span, since(t0), since(t1),
                         p.sink.phase_calls(Phase::kCompress),
                         p.sink.phase_ns(Phase::kCompress)});
      if (p.sink.phase_calls(Phase::kBdi))
        p.spans.push_back({"bdi", compress, since(t0), since(t1),
                           p.sink.phase_calls(Phase::kBdi),
                           p.sink.phase_ns(Phase::kBdi)});
    }
  }
  const auto t_end = Clock::now();
  p.spans[0].end_ns = since(t_end);
  p.spans[0].total_ns = ns_between(t_point, t_end);
}

bool is_latency_total(const std::string& key) {
  const std::string suffix = "_latency_total";
  return key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Faithfulness of the shadow chain: every count field equals the sweep's
/// record. Only latency totals (and cycles, except on heat, which issues no
/// ops()) may differ. Returns the number of mismatching fields.
size_t count_mismatches(const TracedPoint& p, const avr::ExperimentResult& rec) {
  size_t bad = 0;
  auto check = [&](const char* field, uint64_t shadow, uint64_t real) {
    if (shadow == real) return;
    ++bad;
    std::fprintf(stderr, "bench_e2e: shadow mismatch %s x %s: %s %llu != %llu\n",
                 rec.workload.c_str(), avr::to_string(rec.design), field,
                 static_cast<unsigned long long>(shadow),
                 static_cast<unsigned long long>(real));
  };
  check("llc_requests", p.llc_requests, rec.m.llc_requests);
  check("llc_misses", p.llc_misses, rec.m.llc_misses);
  check("dram_bytes", p.dram_bytes, rec.m.dram_bytes);
  if (rec.workload == "heat") check("cycles", p.cycles, rec.m.cycles);
  std::set<std::string> keys;
  for (const auto& [k, v] : p.detail) keys.insert(k);
  for (const auto& [k, v] : rec.m.detail) keys.insert(k);
  for (const std::string& k : keys) {
    if (is_latency_total(k)) continue;
    auto a = p.detail.find(k);
    auto b = rec.m.detail.find(k);
    check(k.c_str(), a == p.detail.end() ? 0 : a->second,
          b == rec.m.detail.end() ? 0 : b->second);
  }
  return bad;
}

struct TracedRun {
  std::vector<TracedPoint> points;
  double seconds = 0;
};

TracedRun run_traced(const std::vector<std::string>& workloads, const WorkloadSpec& spec,
                     const Records& reference, unsigned jobs) {
  TracedRun run;
  for (const auto& w : workloads)
    for (Design d : spec.designs) {
      TracedPoint p;
      p.spec = w;
      p.design = d;
      run.points.push_back(std::move(p));
    }
  // Longest first, by the reference point's instruction count, so the pool
  // is not left waiting on one long point at the end.
  auto cost = [&](const TracedPoint& p) -> uint64_t {
    auto it = reference.find({display_name(p.spec), p.design});
    return it == reference.end() ? 0 : it->second.m.instructions;
  };
  std::stable_sort(
      run.points.begin(), run.points.end(),
      [&](const TracedPoint& a, const TracedPoint& b) { return cost(a) > cost(b); });

  const avr::ExperimentRunner runner(avr::SimConfig{}, /*verbose=*/false,
                                     /*cache_path=*/"");
  const auto epoch = Clock::now();
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < run.points.size(); i = next.fetch_add(1)) {
      TracedPoint& p = run.points[i];
      try {
        run_traced_point(p, runner, epoch);
      } catch (const std::exception& e) {
        p.error = e.what();
      } catch (...) {
        p.error = "unknown exception";
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  run.seconds = seconds_between(epoch, Clock::now());
  return run;
}

void write_spans(const std::string& path, const std::string& workload,
                 const TracedRun& run) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"schema\":\"avr-bench-spans-v1\",\"workload\":\"" << workload
      << "\",\"spans\":[";
  bool first = true;
  for (size_t i = 0; i < run.points.size(); ++i) {
    const TracedPoint& p = run.points[i];
    const std::string point = display_name(p.spec) + " x " + avr::to_string(p.design);
    for (const Span& s : p.spans) {
      out << (first ? "" : ",") << "\n{\"point\":\"" << point << "\",\"point_id\":" << i
          << ",\"name\":\"" << s.name << "\",\"parent\":";
      if (s.parent < 0)
        out << "null";
      else
        out << '"' << p.spans[static_cast<size_t>(s.parent)].name << '"';
      out << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"calls\":" << s.calls << ",\"total_ns\":" << s.total_ns << '}';
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- metric assembly ----------------------------------------------------------------

/// End-to-end metrics, with every host time scaled by its round's speed
/// factor, the memory metrics of the warm-up round, plus the harness layer's
/// numbers from the sidecars.
void add_end_to_end(std::vector<Metric>& m, const Round& warm,
                    const std::vector<Round>& rounds, unsigned jobs) {
  std::vector<double> wall, cpu, mips, setup, rss, p50, p90;
  std::map<std::string, std::vector<double>> per_point;
  size_t samples = 0;
  std::vector<double> raw_wall, raw_cpu, speed;
  for (const Round& r : rounds) {
    const double f = r.speed;
    wall.push_back(r.wall_s * f);
    cpu.push_back(r.cpu_s * f);
    double instructions = 0;
    for (const auto& [k, rec] : r.records)
      instructions += static_cast<double>(rec.m.instructions);
    mips.push_back(instructions / (r.cpu_s * f) / 1e6);
    setup.push_back(r.setup_s * f);
    rss.push_back(r.rss_mb);
    std::vector<double> point_ms;
    for (const auto& [point, s] : r.sidecar.points) {
      point_ms.push_back(s * 1e3 * f);
      per_point[point].push_back(s * 1e3 * f);
    }
    p50.push_back(quantile(point_ms, 0.5));
    p90.push_back(quantile(point_ms, 0.9));
    samples += point_ms.size();
    raw_wall.push_back(r.wall_s);
    raw_cpu.push_back(r.cpu_s);
    speed.push_back(f);
  }
  m.push_back(per_round("wall_s", "s", wall));
  m.push_back(per_round("cpu_s", "s", cpu));
  m.push_back(per_round("sim_mips", "Minstr/s", mips));
  // Point percentiles are taken over each point's median across the rounds,
  // so one slow round of one point does not move them; the per-round
  // percentiles give the spread.
  std::vector<double> point_medians;
  for (const auto& [point, ms] : per_point) point_medians.push_back(median(ms));
  m.push_back({"point_p50_ms", "ms", quantile(point_medians, 0.5), p50, samples});
  m.push_back({"point_p90_ms", "ms", quantile(point_medians, 0.9), p90, samples});
  m.push_back(per_round("setup_s", "s", setup));
  // Memory per point, from the one-point processes of the warm-up round: the
  // mean, which any point's growth moves, and the largest, what one job
  // needs. The J-job sweeps' own peak is printed, not gated.
  const std::vector<double>& point_rss = warm.point_rss_mb;
  double rss_sum = 0;
  for (double v : point_rss) rss_sum += v;
  const double rss_mean = point_rss.empty() ? 0 : rss_sum / point_rss.size();
  const double rss_max =
      point_rss.empty() ? 0 : *std::max_element(point_rss.begin(), point_rss.end());
  m.push_back({"point_rss_mb", "MB", rss_mean, {rss_mean}, point_rss.size()});
  m.push_back({"point_rss_max_mb", "MB", rss_max, {rss_max}, point_rss.size()});
  m.push_back(per_round("raw.sweep_rss_mb", "MB", rss));
  m.push_back(per_round("raw.wall_s", "s", raw_wall));
  m.push_back(per_round("raw.cpu_s", "s", raw_cpu));
  m.push_back(per_round("host.speed_factor", "ratio", speed));

  std::vector<double> h_setup, h_golden, h_sim, h_io, h_calls, h_won, h_lost, idle;
  for (const Round& r : rounds) {
    const Sidecar& s = r.sidecar;
    h_setup.push_back(s.setup_s * r.speed);
    h_golden.push_back(s.golden_s * r.speed);
    h_sim.push_back(s.sim_s * r.speed);
    h_io.push_back(s.cache_io_s * r.speed);
    h_calls.push_back(s.cache_io_calls);
    h_won.push_back(s.claims_won);
    h_lost.push_back(s.claims_lost);
    double busy = 0;
    for (const auto& [point, w] : s.points) busy += w;
    idle.push_back(1.0 - busy / (jobs * r.wall_s));
  }
  m.push_back(per_round("harness.setup_s", "s", h_setup));
  m.push_back(per_round("harness.golden_s", "s", h_golden));
  m.push_back(per_round("harness.sim_s", "s", h_sim));
  m.push_back(per_round("harness.cache_io_s", "s", h_io));
  m.push_back(per_round("harness.cache_io_calls", "count", h_calls));
  m.push_back(per_round("harness.claims_won", "count", h_won));
  m.push_back(per_round("harness.claims_lost", "count", h_lost));
  m.push_back(per_round("harness.sched_idle_frac", "ratio", idle));
}

/// Per-layer metrics of the traced run; host times are scaled by `speed`,
/// the factor from the probes around the traced run, and `e2e_sim_s` is the
/// end-to-end rounds' (scaled) median timing phase.
void add_traced(std::vector<Metric>& m, const TracedRun& run, double speed,
                double e2e_sim_s, size_t mismatches) {
  double load = 0, functional = 0, hook = 0, shadow = 0, llc = 0, llc_calls = 0;
  double accesses = 0, l1_acc = 0, l1_hits = 0, l2_acc = 0, llc_req = 0, llc_miss = 0,
         llc_wb = 0;
  double dganger_ns = 0, avr_ns = 0, compress_ns = 0, compress_calls = 0;
  double dedup_hits = 0, dganger_requests = 0, data_evictions = 0;
  double attempts = 0, successes = 0, skipped = 0, decompressions = 0;
  avr::DramCounters dram;
  auto detail = [](const TracedPoint& p, const char* key) -> double {
    auto it = p.detail.find(key);
    return it == p.detail.end() ? 0 : static_cast<double>(it->second);
  };
  for (const TracedPoint& p : run.points) {
    load += p.load_ns;
    functional += p.functional_ns;
    hook += p.hook_ns;
    shadow += p.shadow_ns;
    llc += p.llc_ns;
    llc_calls += p.llc_requests_calls + p.llc_writebacks;
    accesses += p.accesses;
    l1_acc += p.l1_accesses;
    l1_hits += p.l1_hits;
    l2_acc += p.l2_accesses;
    llc_req += p.llc_requests;
    llc_miss += p.llc_misses;
    llc_wb += p.llc_writebacks;
    if (p.design == Design::kDoppelganger) {
      dganger_ns += p.llc_ns;
      dedup_hits += detail(p, "dedup_hits");
      dganger_requests += detail(p, "requests");
      data_evictions += detail(p, "data_evictions");
    }
    if (p.design == Design::kAvr || p.design == Design::kZeroAvr) {
      avr_ns += p.llc_ns;
      compress_ns += p.sink.phase_ns(avr::prof::Phase::kCompress);
      compress_calls += p.sink.phase_calls(avr::prof::Phase::kCompress);
      attempts += detail(p, "compress_attempts");
      successes += detail(p, "compress_successes");
      skipped += detail(p, "attempts_skipped");
      decompressions += detail(p, "decompressions");
    }
    dram.reads += p.dram.reads;
    dram.writes += p.dram.writes;
    dram.bytes_read += p.dram.bytes_read;
    dram.bytes_written += p.dram.bytes_written;
    dram.row_hits += p.dram.row_hits;
    dram.read_latency_total += p.dram.read_latency_total;
  }
  for (double* t :
       {&load, &functional, &hook, &shadow, &llc, &dganger_ns, &avr_ns, &compress_ns})
    *t *= speed;
  const double cpu_self = shadow - hook - llc;
  m.push_back(single("workloads.functional_s", "s", functional * 1e-9));
  m.push_back(single("workloads.load_s", "s", load * 1e-9));
  m.push_back(single("workloads.accesses", "count", accesses));
  m.push_back(single("workloads.ns_per_access", "ns", ratio(functional, accesses)));
  m.push_back(single("tracing.hook_s", "s", hook * 1e-9));
  m.push_back(
      single("tracing.overhead_frac", "ratio", ratio(shadow * 1e-9, e2e_sim_s) - 1));
  m.push_back(
      single("tracing.count_mismatches", "count", static_cast<double>(mismatches)));
  m.push_back(single("cpu.self_s", "s", cpu_self * 1e-9));
  m.push_back(single("cpu.ns_per_access", "ns", ratio(cpu_self, accesses)));
  m.push_back(single("cpu.l1_hit_frac", "ratio", ratio(l1_hits, l1_acc)));
  m.push_back(single("cpu.l2_accesses", "count", l2_acc));
  m.push_back(single("cpu.llc_requests", "count", llc_req));
  m.push_back(single("cpu.llc_writebacks", "count", llc_wb));
  m.push_back(single("llc.self_s", "s", llc * 1e-9));
  m.push_back(single("llc.ns_per_call", "ns", ratio(llc, llc_calls)));
  m.push_back(single("llc.miss_frac", "ratio", ratio(llc_miss, llc_req)));
  m.push_back(single("baselines.dganger.llc_share", "ratio", ratio(dganger_ns, llc)));
  m.push_back(single("baselines.dganger.dedup_hit_frac", "ratio",
                     ratio(dedup_hits, dganger_requests)));
  m.push_back(single("baselines.dganger.data_evictions", "count", data_evictions));
  m.push_back(single("avr.llc_share", "ratio", ratio(avr_ns, llc)));
  m.push_back(single("avr.compress_share", "ratio", ratio(compress_ns, avr_ns)));
  m.push_back(single("avr.compress_calls", "count", compress_calls));
  m.push_back(single("avr.compress_success_frac", "ratio", ratio(successes, attempts)));
  m.push_back(single("avr.attempts_skipped", "count", skipped));
  m.push_back(single("avr.decompressions", "count", decompressions));
  m.push_back(single("dram.reads", "count", static_cast<double>(dram.reads)));
  m.push_back(single("dram.writes", "count", static_cast<double>(dram.writes)));
  m.push_back(single("dram.mb", "MB",
                     static_cast<double>(dram.bytes_read + dram.bytes_written) / 1e6));
  m.push_back(single("dram.row_hit_frac", "ratio",
                     ratio(static_cast<double>(dram.row_hits),
                           static_cast<double>(dram.reads + dram.writes))));
  m.push_back(single("dram.read_latency_avg_cyc", "cycles",
                     ratio(static_cast<double>(dram.read_latency_total),
                           static_cast<double>(dram.reads))));
}

/// Geomean over workloads of AVR / baseline for `metric` (simulated, exact).
double avr_geomean(const Records& recs,
                   const std::function<double(const avr::RunMetrics&)>& f) {
  double log_sum = 0;
  int n = 0;
  for (const auto& [key, r] : recs) {
    if (key.second != Design::kAvr) continue;
    auto base = recs.find({key.first, Design::kBaseline});
    if (base == recs.end() || f(base->second.m) <= 0 || f(r.m) <= 0) continue;
    log_sum += std::log(f(r.m) / f(base->second.m));
    ++n;
  }
  return n ? std::exp(log_sum / n) : 0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

const Metric& find_metric(const std::vector<Metric>& all, const std::string& name) {
  for (const Metric& m : all)
    if (m.name == name) return m;
  throw std::logic_error("metric not computed: " + name);
}

struct Verdict {
  bool correct = false;
  size_t attempted = 0, failed = 0;
};

/// The --out file: every metric with its quartiles, sample count and samples.
void write_result(const std::string& path, const Options& o, const std::string& workload,
                  unsigned jobs, size_t rounds, const Verdict& v,
                  const std::vector<Metric>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"schema\":\"avr-bench-e2e-v1\",\"workload\":\"" << workload
      << "\",\"seed\":" << o.seed << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"jobs\":" << jobs << ",\"rounds\":" << rounds
      << ",\"correct\":" << (v.correct ? "true" : "false")
      << ",\"attempted\":" << v.attempted << ",\"failed\":" << v.failed
      << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? "," : "") << "\n\"" << m.name << "\":{\"value\":" << json_number(m.value)
        << ",\"unit\":\"" << m.unit << "\",\"q1\":"
        << json_number(quantile(m.samples, 0.25))
        << ",\"q3\":" << json_number(quantile(m.samples, 0.75)) << ",\"n\":" << m.n
        << ",\"samples\":[";
    for (size_t k = 0; k < m.samples.size(); ++k)
      out << (k ? "," : "") << json_number(m.samples[k]);
    out << "]}";
  }
  out << "\n}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
std::string final_line(const Verdict& v, const std::vector<Metric>& metrics,
                       const std::vector<std::string>& names) {
  std::string line = std::string("{\"correct\": ") + (v.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(v.attempted) +
                     ", \"failed\": " + std::to_string(v.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric& m = find_metric(metrics, names[i]);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return line + "}}";
}

// ---- command line -------------------------------------------------------------------

constexpr const char* kUsage = R"(usage: bench_e2e --workload NAME [options]

Cold-sweep end-to-end benchmark of avr_sweep. Run from the repository root.

  --workload NAME     paper-grid | avr-designs | exact-designs | trace-mix
  --seed N            input seed (trace-mix traces; default 1)
  --seconds S         measured time: rounds start while they fit (default 10)
  --trace 0|1         1 adds the traced per-layer run; the final JSON line
                      then carries the per-layer metrics (default 0)
  --out PATH          full result JSON (every metric with quartiles/samples)
  --trace-out PATH    spans of the traced run (implies --trace 1)
  --build-dir DIR     where bench_e2e/CMakeLists.txt was built; the tools are
                      in DIR/avr, DIR/e2e-work is scratch (default .bench_build)
  --write-reference   regenerate the reference file for this workload
                      (paper-grid -> kernels.csv, trace-mix --seed 1 ->
                      trace-mix-seed1.csv) instead of checking against it
)";

Options parse_args(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  auto number = [](const std::string& v, const char* flag) {
    size_t pos = 0;
    double d = 0;
    try {
      d = std::stod(v, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != v.size() || !(d >= 0))
      throw std::invalid_argument(std::string("bad ") + flag);
    return d;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      o.workload = value(i);
    } else if (a == "--seed") {
      const double s = number(value(i), "--seed");
      if (s != std::floor(s) || s > 1e12) throw std::invalid_argument("bad --seed");
      o.seed = static_cast<uint64_t>(s);
    } else if (a == "--seconds") {
      o.seconds = number(value(i), "--seconds");
    } else if (a == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") throw std::invalid_argument("--trace wants 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = value(i);
    } else if (a == "--trace-out") {
      o.trace_out = value(i);
      o.trace = true;
    } else if (a == "--build-dir") {
      o.build_dir = value(i);
    } else if (a == "--write-reference") {
      o.write_reference = true;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

unsigned bench_jobs() {
  cpu_set_t set;
  unsigned n = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    n = static_cast<unsigned>(CPU_COUNT(&set));
  return std::clamp(n, 1u, 4u);
}

int run(const Options& o) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads)
    if (w.name == o.workload) spec = &w;
  if (!spec) throw std::invalid_argument("unknown workload: " + o.workload);
  if (o.write_reference && spec->name != "paper-grid" &&
      !(spec->name == "trace-mix" && o.seed == 1))
    throw std::invalid_argument(
        "--write-reference applies to paper-grid and to trace-mix --seed 1");
  const unsigned jobs = bench_jobs();
  fs::remove_all(o.work_dir());
  fs::create_directories(o.work_dir());

  // Kernels ignore the seed, so one reference serves every seed; trace-mix
  // has a committed reference for seed 1 and self-consistency otherwise.
  const std::string ref_path = std::string(kReferenceDir) +
                               (spec->traces ? "/trace-mix-seed1.csv" : "/kernels.csv");
  const bool has_reference = !spec->traces || o.seed == 1;
  Records reference;
  if (has_reference && !o.write_reference) {
    if (!fs::exists(ref_path)) throw std::runtime_error("missing reference " + ref_path);
    reference = load_records(ref_path);
  }

  std::printf("bench_e2e: workload %s, seed %llu, %u jobs, %.0f s measured\n",
              spec->name.c_str(), static_cast<unsigned long long>(o.seed), jobs,
              o.seconds);
  std::fflush(stdout);
  // Warm-up round: checked like the others, and measures memory only.
  const auto t_warm = Clock::now();
  Round warm = run_memory_round(o, *spec, jobs, reference);
  size_t attempted = warm.attempted, failed = warm.failed;
  const Records& expected = reference.empty() ? warm.records : reference;

  // Measured rounds, each bracketed by speed probes (the probe after one
  // round is the probe before the next), while the next round should fit.
  std::vector<Round> rounds;
  double probe = speed_probe(jobs);
  double used = 0, last = seconds_between(t_warm, Clock::now());
  while (rounds.empty() ||
         (used + last <= o.seconds &&
          seconds_between(g_start, Clock::now()) + last < kLastRoundStartSeconds)) {
    const auto t0 = Clock::now();
    Round r = run_round(o, *spec, jobs, static_cast<int>(rounds.size()) + 1, expected);
    const double next = speed_probe(jobs);
    r.speed = kProbeRefSeconds / (0.5 * (probe + next));
    probe = next;
    attempted += r.attempted;
    failed += r.failed;
    last = seconds_between(t0, Clock::now());
    used += last;
    rounds.push_back(std::move(r));
  }
  if (o.write_reference) {
    if (failed) throw std::runtime_error("not writing a reference from a failed run");
    write_reference(ref_path, warm.records);
  }

  std::vector<Metric> metrics;
  add_end_to_end(metrics, warm, rounds, jobs);

  size_t mismatches = 0;
  if (o.trace) {
    // Fresh inputs for the traced run, generated outside any timing.
    std::vector<std::string> workloads = avr::workload_names();
    if (spec->traces)
      workloads = generate_traces(o.bin_dir(), o.work_dir() / "traced", o.seed);
    const TracedRun traced = run_traced(workloads, *spec, expected, jobs);
    const double traced_speed = kProbeRefSeconds / (0.5 * (probe + speed_probe(jobs)));
    for (const TracedPoint& p : traced.points) {
      ++attempted;
      const auto rec = expected.find({display_name(p.spec), p.design});
      if (!p.error.empty() || rec == expected.end()) {
        std::fprintf(stderr, "bench_e2e: traced %s x %s failed: %s\n", p.spec.c_str(),
                     avr::to_string(p.design),
                     p.error.empty() ? "no record" : p.error.c_str());
        ++failed;
        continue;
      }
      const size_t bad = count_mismatches(p, rec->second);
      mismatches += bad;
      if (bad) ++failed;
    }
    std::vector<double> sim;
    for (const Round& r : rounds) sim.push_back(r.sidecar.sim_s * r.speed);
    add_traced(metrics, traced, traced_speed, median(sim), mismatches);
    if (!o.trace_out.empty()) write_spans(o.trace_out, spec->name, traced);
    std::printf("traced run: %zu points in %.2f s\n", traced.points.size(),
                traced.seconds);
  }
  const bool correct = failed == 0;

  std::printf("rounds: %zu measured + 1 warm-up, %zu points each\n", rounds.size(),
              warm.attempted);
  std::printf("%-34s %-9s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3",
              "n");
  for (const Metric& m : metrics)
    std::printf("%-34s %-9s %14.6g %14.6g %14.6g %6zu\n", m.name.c_str(), m.unit.c_str(),
                m.value, quantile(m.samples, 0.25), quantile(m.samples, 0.75), m.n);
  if (spec->name == "paper-grid" || spec->traces) {
    const double traffic = avr_geomean(expected, [](const avr::RunMetrics& m) {
      return static_cast<double>(m.dram_bytes + m.metadata_bytes);
    });
    const double cycles = avr_geomean(
        expected, [](const avr::RunMetrics& m) { return static_cast<double>(m.cycles); });
    std::printf("simulated (exact): avr_traffic_ratio %.6f, avr_cycles_ratio %.6f "
                "(geomean AVR / baseline)\n",
                traffic, cycles);
  }
  std::printf("correct: %s (%zu of %zu points failed)\n", correct ? "yes" : "NO", failed,
              attempted);

  const Verdict v{correct, attempted, failed};
  if (!o.out.empty()) write_result(o.out, o, spec->name, jobs, rounds.size(), v, metrics);
  // The last line: the metrics BENCHMARK.json declares for this mode.
  std::printf("%s\n", final_line(v, metrics, o.trace ? kPerLayer : kEndToEnd).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--peak-rss") return peak_rss_main(argv + 2);
  g_start = Clock::now();
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n%s", e.what(), kUsage);
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
