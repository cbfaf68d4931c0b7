// Result-cache format and writer-safety tests: encode/decode round-trips
// bit-exactly, loads tolerate corrupt/truncated/duplicate lines, concurrent
// writer *processes* (fork) never tear records, and the incremental claim
// scan agrees with a full scan after every kind of append.
#include "harness/result_cache.hh"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/file_lock.hh"
#include "harness/fsck.hh"

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

// ---- the incremental claim scan ---------------------------------------------

using PointKey = std::tuple<std::string, Design, uint64_t>;

/// The reference verdict: a getline pass over the whole file, as
/// try_claim_point did before it kept a cursor.
std::map<PointKey, CacheScan::PointState> full_scan(const std::string& path) {
  std::map<PointKey, CacheScan::PointState> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    ExperimentResult r;
    ClaimRecord c;
    switch (classify_cache_line(line, &r, &c)) {
      case CacheLineKind::kResult:
        out[{r.workload, r.design, r.config_hash}].done = true;
        break;
      case CacheLineKind::kClaim:
        out[{c.workload, c.design, c.config_hash}].governing = c;
        break;
      default:
        break;
    }
  }
  return out;
}

/// Runs `fn` in a forked child: the appends a cursor must pick up come from
/// other processes.
void in_child(const std::function<void()>& fn) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fn();
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

/// Appends raw bytes under the cache flock; `fresh_line` first terminates an
/// unterminated tail, as the cache's own writers do.
void append_raw(const std::string& path, std::string bytes, bool fresh_line) {
  FileLock lock(path, O_RDWR | O_CREAT | O_APPEND);
  if (!lock.ok()) _exit(3);
  struct stat st;
  if (::fstat(lock.fd(), &st) != 0) _exit(4);
  char last = '\n';
  if (fresh_line && st.st_size > 0 &&
      ::pread(lock.fd(), &last, 1, st.st_size - 1) == 1 && last != '\n')
    bytes.insert(bytes.begin(), '\n');
  if (::write(lock.fd(), bytes.data(), bytes.size()) !=
      static_cast<ssize_t>(bytes.size()))
    _exit(5);
}

std::string describe(const CacheScan::PointState& st) {
  return std::string(st.done ? "done" : "open") + " / " +
         (st.governing ? encode_claim_line(*st.governing) : "no claim");
}

TEST(CacheScan, MatchesAFullScanAfterEveryAppend) {
  const std::string path = temp_path("cursor");
  std::remove(path.c_str());
  std::mt19937_64 rng(20261017);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };

  const std::vector<std::string> workloads = {"kmeans", "heat", "trace:t.trace"};
  const std::vector<Design> designs = {Design::kBaseline, Design::kAvr};
  const std::vector<uint64_t> hashes = {7, 8};
  const std::vector<std::string> owners = {"A", "B", "C"};
  std::vector<PointKey> keys;
  for (const auto& w : workloads)
    for (Design d : designs)
      for (uint64_t h : hashes) keys.emplace_back(w, d, h);
  auto random_result = [&] {
    const auto& [w, d, h] = keys[pick(keys.size())];
    ExperimentResult r = sample_result(w, d, rng() % 1000);
    r.config_hash = h;
    return r;
  };
  auto random_claim = [&] {
    const auto& [w, d, h] = keys[pick(keys.size())];
    ClaimRecord c;
    c.workload = w;
    c.design = d;
    c.config_hash = h;
    c.owner = owners[pick(owners.size())];
    c.claimed_at = 100 + rng() % 100;
    c.lease_seconds = 30;
    return c;
  };
  auto random_line = [&] {
    return pick(2) ? encode_result_line(random_result())
                   : encode_claim_line(random_claim());
  };

  CacheScan cursor;
  std::string torn_rest;  // the rest of a torn tail, if the file ends in one
  std::vector<size_t> counts(11, 0);
  for (int step = 0; step < 400; ++step) {
    const size_t kind = pick(counts.size());
    // Each kind but 7 appends its own line, ending any torn tail.
    if (kind != 7) torn_rest.clear();
    switch (kind) {
      case 0: {  // a result, by the cache's own writer
        const ExperimentResult r = random_result();
        in_child([&] { _exit(append_result_line(path, r) ? 0 : 2); });
        break;
      }
      case 1: {  // a stake through try_claim_point (no cursor)
        const ClaimRecord c = random_claim();
        in_child([&] { (void)try_claim_point(path, c, c.claimed_at); });
        break;
      }
      case 2: {  // a foreign-version line: an old record or a future format
        const std::string line =
            pick(2) ? "4,claim#,heat,0,9,x,1,2,end#" : "6,L3,C00000000,new,end#";
        in_child([&] { append_raw(path, line + "\n", true); });
        break;
      }
      case 3: {  // a corrupt line: one payload byte flipped
        std::string line = random_line();
        line[line.size() - 6] ^= 0x01;
        in_child([&] { append_raw(path, line + "\n", true); });
        break;
      }
      case 4: {  // a torn tail: a record cut short, no newline
        const std::string line = random_line();
        const size_t cut = 1 + pick(line.size() - 1);
        in_child([&] { append_raw(path, line.substr(0, cut), true); });
        torn_rest = line.substr(cut) + "\n";
        break;
      }
      case 5: {  // a whole record whose newline was lost
        const std::string line = random_line();
        in_child([&] { append_raw(path, line, true); });
        break;
      }
      case 6: {  // --fsck --repair: a clean rewrite renamed into place
        if (!std::filesystem::exists(path)) break;
        std::string err;
        ASSERT_TRUE(repair_cache(path, 100 + rng() % 100, &err)) << err;
        break;
      }
      case 7:  // the torn tail's writer finishes it, newline and all
        if (!torn_rest.empty()) in_child([&] { append_raw(path, torn_rest, false); });
        torn_rest.clear();
        break;
      case 8: {  // a longer rewrite renamed into place: only the inode says so
        const uintmax_t old_size =
            std::filesystem::exists(path) ? std::filesystem::file_size(path) : 0;
        std::string bytes;
        while (bytes.size() <= old_size) bytes += random_line() + "\n";
        const std::string tmp = path + ".tmp";
        std::ofstream(tmp, std::ios::binary) << bytes;
        ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
        break;
      }
      case 9: {  // the file shrinks in place
        if (!std::filesystem::exists(path)) break;
        const auto size = std::filesystem::file_size(path);
        std::filesystem::resize_file(path, size - std::min<uintmax_t>(size, pick(200)));
        break;
      }
      case 10: {  // our own stake, through the cursor
        const ClaimRecord want = random_claim();
        const auto ref = full_scan(path)[{want.workload, want.design, want.config_hash}];
        ClaimOutcome expect = ClaimOutcome::kClaimed;
        if (ref.done)
          expect = ClaimOutcome::kDone;
        else if (ref.governing && !ref.governing->expired(want.claimed_at))
          expect = ref.governing->owner == want.owner ? ClaimOutcome::kClaimed
                                                      : ClaimOutcome::kBusy;
        else if (ref.governing)
          expect = ClaimOutcome::kReclaimed;
        EXPECT_EQ(try_claim_point(path, want, want.claimed_at, &cursor), expect)
            << "step " << step;
        break;
      }
    }
    ++counts[kind];

    const int fd = ::open(path.c_str(), O_RDONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(cursor.scan(fd));
    CacheScan fresh;
    ASSERT_TRUE(fresh.scan(fd));
    ::close(fd);
    auto ref = full_scan(path);
    for (const auto& [w, d, h] : keys) {
      const std::string want = describe(ref[{w, d, h}]);
      EXPECT_EQ(describe(cursor.state(w, d, h)), want)
          << "step " << step << " (kind " << kind << "), " << w << " x "
          << to_string(d) << " cfg " << h;
      EXPECT_EQ(describe(fresh.state(w, d, h)), want) << "step " << step;
    }
  }
  for (size_t k = 0; k < counts.size(); ++k) EXPECT_GT(counts[k], 0u) << k;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace avr
