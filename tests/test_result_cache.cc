// Result-cache format and writer-safety tests: encode/decode round-trips
// bit-exactly, loads tolerate corrupt/truncated/duplicate lines, and
// concurrent writer *processes* (fork) never tear records.
#include "harness/result_cache.hh"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace avr {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("avr_rc_" + tag + "_" + std::to_string(::getpid()) + ".csv"))
      .string();
}

ExperimentResult sample_result(const std::string& wl, Design d, uint64_t salt) {
  ExperimentResult r;
  r.workload = wl;
  r.design = d;
  r.config_hash = config_fingerprint(SimConfig{});
  r.m.cycles = 1000 + salt;
  r.m.instructions = 5000 + salt;
  r.m.ipc = 1.0 / 3.0 + static_cast<double>(salt);
  r.m.amat = 7.25;
  r.m.llc_requests = 42 + salt;
  r.m.llc_misses = 7;
  r.m.llc_mpki = 0.1 + 1e-17;  // needs max_digits10 to round-trip
  r.m.dram_bytes = 1 << 20;
  r.m.dram_bytes_approx = 1 << 10;
  r.m.dram_bytes_other = 123;
  r.m.metadata_bytes = 456;
  r.m.energy.core = 1.5;
  r.m.energy.l1l2 = 2.5;
  r.m.energy.llc = 3.5;
  r.m.energy.dram = 4.5;
  r.m.energy.compressor = 5.5;
  r.m.compression_ratio = 2.6666666666666665;
  r.m.footprint_bytes = 789;
  r.m.approx_bytes = 321;
  r.m.output_error = 0.0123456789012345678;
  r.m.detail["requests"] = 99 + salt;
  r.m.detail["evictions"] = 17;
  r.wall_seconds = 0.25 + static_cast<double>(salt);
  return r;
}

void expect_equal(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.design, b.design);
  // The encoded line covers every field; string equality == bit equality
  // because doubles are written with max_digits10.
  EXPECT_EQ(encode_result_line(a), encode_result_line(b));
}

TEST(ResultCache, EncodeDecodeRoundTrip) {
  const ExperimentResult r = sample_result("kmeans", Design::kAvr, 3);
  ExperimentResult back;
  ASSERT_TRUE(decode_result_line(encode_result_line(r), &back));
  expect_equal(r, back);
  EXPECT_DOUBLE_EQ(back.m.llc_mpki, r.m.llc_mpki);
  EXPECT_DOUBLE_EQ(back.m.output_error, r.m.output_error);
  EXPECT_DOUBLE_EQ(back.wall_seconds, r.wall_seconds);
  EXPECT_EQ(back.m.detail, r.m.detail);
}

TEST(ResultCache, DecodeRejectsMalformedLines) {
  ExperimentResult out;
  EXPECT_FALSE(decode_result_line("", &out));
  EXPECT_FALSE(decode_result_line("garbage", &out));
  EXPECT_FALSE(decode_result_line("999,kmeans,0,1,2", &out));  // wrong version

  const std::string good = encode_result_line(sample_result("heat", Design::kAvr, 0));
  // A reader racing the final append sees a truncated last line.
  EXPECT_FALSE(decode_result_line(good.substr(0, good.size() / 2), &out));
  // A tear inside the final numeric token leaves a shorter, valid-looking
  // number — only the missing end sentinel gives it away.
  EXPECT_FALSE(decode_result_line(good.substr(0, good.size() - 5), &out));
  EXPECT_FALSE(decode_result_line(good.substr(0, good.size() - 6), &out));
  // Junk after the sentinel (e.g. a dangling detail key).
  EXPECT_FALSE(decode_result_line(good + ",dangling_key", &out));
  // Corrupt numeric field: fully non-numeric, and numeric-prefix junk.
  std::string corrupt = good;
  corrupt.replace(corrupt.find(',', corrupt.find(',', 0) + 1) + 1, 1, "x");
  EXPECT_FALSE(decode_result_line(corrupt, &out));
  const size_t c1 = good.find(',');
  const size_t c2 = good.find(',', c1 + 1);
  const size_t c3 = good.find(',', c2 + 1);
  std::string junk_suffix = good;
  junk_suffix.insert(c3, "junk");  // design "4" -> "4junk"
  EXPECT_FALSE(decode_result_line(junk_suffix, &out));
  // Negative integers must not wrap through stoull to 2^64-1.
  std::string negative = good;
  negative.replace(c2 + 1, c3 - c2 - 1, "-1");
  EXPECT_FALSE(decode_result_line(negative, &out));

  EXPECT_TRUE(decode_result_line(good, &out));
}

TEST(ResultCache, LoadSkipsJunkAndToleratesDuplicates) {
  const std::string path = temp_path("load");
  std::remove(path.c_str());
  const ExperimentResult a = sample_result("heat", Design::kBaseline, 1);
  const ExperimentResult b = sample_result("wrf", Design::kAvr, 2);
  {
    std::ofstream out(path);
    out << encode_result_line(a) << '\n';
    out << "not,a,record\n";
    out << encode_result_line(b) << '\n';
    out << encode_result_line(a) << '\n';  // duplicate: identical values
    const std::string tail = encode_result_line(b);
    out << tail.substr(0, tail.size() - 9);  // torn final append
  }
  const auto cache = load_result_cache(path);
  ASSERT_EQ(cache.size(), 2u);
  expect_equal(cache.at({"heat", Design::kBaseline}), a);
  expect_equal(cache.at({"wrf", Design::kAvr}), b);
  std::remove(path.c_str());
}

TEST(ResultCache, AppendAfterTornTailStartsAFreshLine) {
  // A writer killed mid-record leaves a partial line with no newline. The
  // next append must not glue its (valid) record onto that torn tail.
  const std::string path = temp_path("heal");
  std::remove(path.c_str());
  const ExperimentResult dead = sample_result("heat", Design::kBaseline, 1);
  const ExperimentResult good = sample_result("wrf", Design::kAvr, 2);
  {
    const std::string torn = encode_result_line(dead);
    std::ofstream out(path);
    out << torn.substr(0, torn.size() / 2);  // no trailing '\n'
  }
  ASSERT_TRUE(append_result_line(path, good));
  const auto cache = load_result_cache(path);
  ASSERT_EQ(cache.size(), 1u);
  expect_equal(cache.at({"wrf", Design::kAvr}), good);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadOfMissingFileIsEmpty) {
  EXPECT_TRUE(load_result_cache(temp_path("nosuch")).empty());
}

TEST(ResultCache, ConfigFilterSelectsOnlyMatchingRecords) {
  const std::string path = temp_path("filter");
  std::remove(path.c_str());
  ExperimentResult def = sample_result("heat", Design::kAvr, 1);
  SimConfig tweaked;
  tweaked.avr.enable_2d = false;
  ExperimentResult abl = sample_result("heat", Design::kAvr, 2);
  abl.config_hash = config_fingerprint(tweaked);
  ASSERT_NE(def.config_hash, abl.config_hash);
  {
    std::ofstream out(path);
    out << encode_result_line(def) << '\n';
    out << encode_result_line(abl) << '\n';
    out << encode_result_line(sample_result("wrf", Design::kAvr, 3)) << '\n';
  }
  // Unfiltered: both (workload, design) keys; the hash-colliding pair keeps
  // the later record (duplicates-last-wins, as for identical points).
  EXPECT_EQ(load_result_cache(path).size(), 2u);
  // Default-config filter: the ablation record is skipped, the default-config
  // wrf record is kept.
  const auto defs = load_result_cache(path, config_fingerprint(SimConfig{}));
  ASSERT_EQ(defs.size(), 2u);
  expect_equal(defs.at({"heat", Design::kAvr}), def);
  // Ablation filter: exactly its own record.
  const auto abls = load_result_cache(path, config_fingerprint(tweaked));
  ASSERT_EQ(abls.size(), 1u);
  EXPECT_EQ(abls.at({"heat", Design::kAvr}).config_hash, abl.config_hash);
  std::remove(path.c_str());
}

TEST(ResultCache, ConfigFingerprintSeparatesAblationAxes) {
  // Stable across calls, and every bench_ablation axis lands on a distinct
  // fingerprint (a missed field in the fold list would alias two of them).
  const SimConfig def;
  EXPECT_EQ(config_fingerprint(def), config_fingerprint(SimConfig{}));
  std::vector<SimConfig> axes(5);
  axes[0].avr.enable_lazy_eviction = false;
  axes[1].avr.enable_pfe = false;
  axes[2].avr.enable_failure_history = false;
  axes[3].avr.enable_2d = false;
  axes[4].avr.enable_1d = false;
  std::vector<uint64_t> hashes{config_fingerprint(def)};
  for (const SimConfig& c : axes) hashes.push_back(config_fingerprint(c));
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(ResultCache, ConcurrentForkedWritersProduceLoadableCache) {
  // The writer-safety contract: multiple *processes* appending to one cache
  // path concurrently yield a file where every record is intact. Each child
  // writes 64 distinct records; the parent must read back all of them with
  // exact values and zero torn lines.
  const std::string path = temp_path("fork");
  std::remove(path.c_str());
  constexpr int kChildren = 4;
  constexpr int kRecords = 64;

  std::vector<pid_t> pids;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (int k = 0; k < kRecords; ++k) {
        const auto r = sample_result("w" + std::to_string(c * kRecords + k),
                                     Design::kAvr, static_cast<uint64_t>(k));
        if (!append_result_line(path, r)) _exit(2);
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  // Every line must decode — torn/interleaved records would fail.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ExperimentResult r;
    EXPECT_TRUE(decode_result_line(line, &r)) << "torn record: " << line;
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<size_t>(kChildren * kRecords));

  const auto cache = load_result_cache(path);
  ASSERT_EQ(cache.size(), static_cast<size_t>(kChildren * kRecords));
  for (int c = 0; c < kChildren; ++c)
    for (int k = 0; k < kRecords; ++k) {
      const auto want = sample_result("w" + std::to_string(c * kRecords + k),
                                      Design::kAvr, static_cast<uint64_t>(k));
      expect_equal(cache.at({want.workload, want.design}), want);
    }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace avr
