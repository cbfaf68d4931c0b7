// Adversarial byte-surgery wall for the v5 checksummed cache format, plus
// fsck/repair coverage: every case hand-mutates real encoded bytes the way a
// crash, a bad disk or a buggy writer would, and asserts the loader
// quarantines (or fsck reports, or repair heals) exactly that wound.
// Mirrors the test wall in test_trace_format.cc.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/fsck.hh"
#include "harness/result_cache.hh"

namespace avr {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("avr_v5_" + tag + "_" + std::to_string(::getpid()) + ".csv"))
      .string();
}

ExperimentResult sample_result(const std::string& wl, Design d, uint64_t salt) {
  ExperimentResult r;
  r.workload = wl;
  r.design = d;
  r.config_hash = config_fingerprint(SimConfig{});
  r.m.cycles = 1000 + salt;
  r.m.instructions = 5000 + salt;
  r.m.ipc = 1.0 / 3.0;
  r.m.llc_mpki = 0.1 + 1e-17;  // needs max_digits10 to round-trip
  r.m.dram_bytes = 1 << 20;
  r.m.compression_ratio = 2.6666666666666665;
  r.m.output_error = 0.0123456789012345678;
  r.m.detail["requests"] = 99 + salt;
  r.m.detail["evictions"] = 17;
  r.wall_seconds = 0.25;
  return r;
}

ClaimRecord sample_claim(const std::string& wl, Design d,
                         const std::string& owner, uint64_t claimed_at,
                         uint64_t lease = 60) {
  ClaimRecord c;
  c.workload = wl;
  c.design = d;
  c.config_hash = config_fingerprint(SimConfig{});
  c.owner = owner;
  c.claimed_at = claimed_at;
  c.lease_seconds = lease;
  return c;
}

/// The payload's byte offset within a framed v5 line (after "5,L<len>,C<crc>,").
size_t payload_offset(const std::string& line) {
  const size_t c1 = line.find(',');
  const size_t c2 = line.find(',', c1 + 1);
  const size_t c3 = line.find(',', c2 + 1);
  return c3 + 1;
}

/// Strips the v5 framing and re-tags the payload as version `v` (a v3/v4
/// line: same payload, no length or checksum).
std::string legacy_line(const std::string& v5, int v) {
  return std::to_string(v) + "," + v5.substr(payload_offset(v5));
}

/// Classification + quarantine reason for one line.
CacheLineKind classify(const std::string& line, std::string* reason = nullptr) {
  ExperimentResult r;
  ClaimRecord c;
  return classify_cache_line(line, &r, &c, reason);
}

// ---- the wall: one wound per case ------------------------------------------

TEST(CacheV5, WellFormedLineRoundTrips) {
  const ExperimentResult r = sample_result("kmeans", Design::kAvr, 1);
  const std::string line = encode_result_line(r);
  EXPECT_EQ(line.substr(0, 2), "5,");
  EXPECT_EQ(line[2], 'L');
  ExperimentResult back;
  ClaimRecord c;
  EXPECT_EQ(classify_cache_line(line, &back, &c), CacheLineKind::kResult);
  EXPECT_EQ(encode_result_line(back), line);
}

TEST(CacheV5, FlippedCrcHexDigitIsQuarantined) {
  std::string line = encode_result_line(sample_result("heat", Design::kAvr, 2));
  const size_t crc_pos = line.find(",C") + 2;
  line[crc_pos] = line[crc_pos] == 'f' ? '0' : 'f';
  std::string reason;
  EXPECT_EQ(classify(line, &reason), CacheLineKind::kCorrupt);
  EXPECT_NE(reason.find("crc mismatch"), std::string::npos) << reason;
}

TEST(CacheV5, FlippedPayloadByteThatStillParsesIsCaught) {
  // The case pre-v5 caches could NOT catch: corrupt one digit of a numeric
  // field. The payload still splits and parses — only the checksum knows.
  std::string line = encode_result_line(sample_result("wrf", Design::kAvr, 3));
  const size_t pos = line.find(",1001,");  // cycles = 1000 + salt(3)... 1003
  ASSERT_EQ(pos, std::string::npos);
  const size_t cyc = line.find(",1003,");
  ASSERT_NE(cyc, std::string::npos);
  line[cyc + 1] = '9';  // 1003 -> 9003: numerically valid, wrong value
  std::string reason;
  EXPECT_EQ(classify(line, &reason), CacheLineKind::kCorrupt);
  EXPECT_NE(reason.find("crc mismatch"), std::string::npos) << reason;
}

TEST(CacheV5, EveryTruncationIsRejected) {
  // A torn append can stop after any byte; no prefix may decode as valid.
  const std::string line =
      encode_result_line(sample_result("lattice", Design::kTruncate, 4));
  ExperimentResult out;
  for (size_t n = 0; n < line.size(); ++n)
    EXPECT_FALSE(decode_result_line(line.substr(0, n), &out)) << "len " << n;
  EXPECT_TRUE(decode_result_line(line, &out));
}

TEST(CacheV5, TornTailQuarantineNamesTheShortWrite) {
  std::string reason;
  const std::string line =
      encode_result_line(sample_result("heat", Design::kAvr, 5));
  EXPECT_EQ(classify(line.substr(0, line.size() - 7), &reason),
            CacheLineKind::kCorrupt);
  EXPECT_NE(reason.find("short write"), std::string::npos) << reason;
}

TEST(CacheV5, TamperedLengthFieldIsQuarantined) {
  std::string line = encode_result_line(sample_result("heat", Design::kAvr, 6));
  const size_t lpos = line.find(",L") + 2;
  line[lpos] = line[lpos] == '9' ? '8' : '9';
  std::string reason;
  EXPECT_EQ(classify(line, &reason), CacheLineKind::kCorrupt);
  EXPECT_NE(reason.find("length mismatch"), std::string::npos) << reason;
}

TEST(CacheV5, OversizedFieldsAreRejectedNotOverflowed) {
  const ExperimentResult r = sample_result("heat", Design::kAvr, 7);
  // An oversized L field: 20+ pure digits overflow uint64 — a range
  // failure, never a silent wraparound to some tiny length.
  std::string line = encode_result_line(r);
  const size_t lpos = line.find(",L") + 2;
  line.insert(lpos, "99999999999999999");
  std::string reason;
  EXPECT_EQ(classify(line, &reason), CacheLineKind::kCorrupt) << reason;
}

TEST(CacheV5, PreV5LinesAreForeign) {
  // Lines written by pre-v5 binaries (v2 without config_hash, v3/v4
  // unframed) are another format's records: they classify as foreign, loads
  // skip them and fsck counts them, so their points simply re-simulate.
  const ExperimentResult a = sample_result("heat", Design::kBaseline, 1);
  std::string v2 = legacy_line(encode_result_line(a), 2);
  size_t p = 0;  // drop the config_hash (3rd payload field)
  for (int i = 0; i < 3; ++i) p = v2.find(',', p) + 1;
  v2.erase(p, v2.find(',', p) + 1 - p);
  const std::vector<std::string> old = {
      v2, legacy_line(encode_result_line(a), 3),
      legacy_line(encode_result_line(a), 4)};
  for (const auto& line : old)
    EXPECT_EQ(classify(line), CacheLineKind::kForeign) << line;

  const std::string path = temp_path("prev5");
  std::remove(path.c_str());
  const ExperimentResult c = sample_result("kmeans", Design::kTruncate, 3);
  {
    std::ofstream out(path);
    for (const auto& line : old) out << line << '\n';
    out << encode_result_line(c) << '\n';
  }
  testing::internal::CaptureStderr();
  const auto cache = load_result_cache(path);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");  // no quarantine
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(encode_result_line(cache.at({"kmeans", Design::kTruncate})),
            encode_result_line(c));
  const FsckReport r = fsck_cache(path, 0);
  EXPECT_EQ(r.foreign_lines, 3u);
  EXPECT_EQ(r.results, 1u);
  EXPECT_FALSE(r.has_issues());
  std::remove(path.c_str());
}

TEST(CacheV5, ClaimRoundTripAndCorruptClaim) {
  const ClaimRecord c = sample_claim("wrf", Design::kAvr, "host-1", 12345, 90);
  const std::string line = encode_claim_line(c);
  EXPECT_EQ(line.substr(0, 2), "5,");
  ClaimRecord back;
  ASSERT_TRUE(decode_claim_line(line, &back));
  EXPECT_EQ(back.owner, "host-1");
  EXPECT_EQ(back.claimed_at, 12345u);
  EXPECT_EQ(back.lease_seconds, 90u);
  // One flipped payload byte: the CRC quarantines claims too.
  std::string bad = line;
  bad[bad.find("host-1") + 5] = '2';
  EXPECT_FALSE(decode_claim_line(bad, &back));
  std::string reason;
  EXPECT_EQ(classify(bad, &reason), CacheLineKind::kCorrupt);
  // Legacy-version claims are foreign (stale epoch), never decoded.
  EXPECT_EQ(classify(legacy_line(line, 4)), CacheLineKind::kForeign);
}

TEST(CacheV5, DuplicateClaimsLastWins) {
  const std::string path = temp_path("dupclaim");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << encode_claim_line(sample_claim("heat", Design::kAvr, "w0", 100))
        << '\n';
    out << encode_claim_line(sample_claim("heat", Design::kAvr, "w1", 200))
        << '\n';
  }
  const auto claims = load_claims(path);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims.at({"heat", Design::kAvr}).owner, "w1");
  EXPECT_EQ(claims.at({"heat", Design::kAvr}).claimed_at, 200u);
  std::remove(path.c_str());
}

TEST(CacheV5, SwappedDetailPairsAreCaughtByCrc) {
  // Reordering two detail pairs leaves a syntactically perfect payload with
  // the same length — only the checksum notices.
  std::string line =
      encode_result_line(sample_result("heat", Design::kAvr, 10));
  const size_t ev = line.find("evictions,17");
  const size_t rq = line.find("requests,109");
  ASSERT_NE(ev, std::string::npos);
  ASSERT_NE(rq, std::string::npos);
  std::string swapped = line;
  swapped.replace(ev, 12, "requests,109");
  swapped.replace(rq, 12, "evictions,17");
  ASSERT_EQ(swapped.size(), line.size());
  ASSERT_NE(swapped, line);
  std::string reason;
  EXPECT_EQ(classify(swapped, &reason), CacheLineKind::kCorrupt);
  EXPECT_NE(reason.find("crc mismatch"), std::string::npos) << reason;
}

TEST(CacheV5, BlankAndGarbageLinesClassify) {
  EXPECT_EQ(classify(""), CacheLineKind::kBlank);
  std::string reason;
  EXPECT_EQ(classify("not,a,record", &reason), CacheLineKind::kCorrupt);
  EXPECT_EQ(classify("9999,future,format,end#"), CacheLineKind::kForeign);
}

TEST(CacheV5, QuarantineWarningsNameLineAndReason) {
  const std::string path = temp_path("warn");
  std::remove(path.c_str());
  std::string bad = encode_result_line(sample_result("heat", Design::kAvr, 11));
  bad[bad.find(",C") + 2] ^= 1;  // flip one CRC bit's hex digit
  {
    std::ofstream out(path);
    out << encode_result_line(sample_result("wrf", Design::kAvr, 12)) << '\n';
    out << bad << '\n';
  }
  testing::internal::CaptureStderr();
  const auto cache = load_result_cache(path);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(err.find("quarantined"), std::string::npos) << err;
  EXPECT_NE(err.find(":2:"), std::string::npos) << err;  // 1-based line number
  EXPECT_NE(err.find("crc mismatch"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---- fsck / repair ---------------------------------------------------------

/// A cache bearing one of every wound fsck must account for.
struct WoundedCache {
  std::string path;
  ExperimentResult live_a, live_b;
  ClaimRecord live_claim;
};

WoundedCache make_wounded(const std::string& tag, uint64_t now) {
  WoundedCache w;
  w.path = temp_path(tag);
  std::remove(w.path.c_str());
  w.live_a = sample_result("heat", Design::kAvr, 1);
  w.live_b = sample_result("wrf", Design::kTruncate, 2);
  w.live_claim = sample_claim("kmeans", Design::kAvr, "alive", now, 3600);
  std::ofstream out(w.path);
  out << legacy_line(encode_result_line(w.live_a), 4) << '\n';   // pre-v5
  out << encode_result_line(w.live_a) << '\n';
  out << encode_result_line(w.live_a) << '\n';        // duplicate (identical)
  out << encode_result_line(w.live_b) << '\n';
  out << '\n';                                                   // blank
  out << "9999,future,format,end#\n";                            // foreign
  std::string torn = encode_result_line(sample_result("lattice", Design::kAvr, 3));
  out << torn.substr(0, torn.size() / 2) << '\n';                // torn line
  // Superseded then expired-dangling claim on an unfinished point.
  out << encode_claim_line(sample_claim("bscholes", Design::kAvr, "dead1",
                                        now - 1000, 60))
      << '\n';
  out << encode_claim_line(sample_claim("bscholes", Design::kAvr, "dead2",
                                        now - 500, 60))
      << '\n';
  // Moot claim: its point has a result.
  out << encode_claim_line(sample_claim("wrf", Design::kTruncate, "done",
                                        now - 10, 60))
      << '\n';
  // Live dangling claim: a healthy mid-sweep worker.
  out << encode_claim_line(w.live_claim) << '\n';
  return w;
}

TEST(CacheFsck, AccountsForEveryWound) {
  const uint64_t now = 1700000000;
  const WoundedCache w = make_wounded("fsck", now);
  const FsckReport r = fsck_cache(w.path, now);
  EXPECT_TRUE(r.io_error.empty());
  EXPECT_EQ(r.total_lines, 11u);
  EXPECT_EQ(r.blank_lines, 1u);
  EXPECT_EQ(r.foreign_lines, 2u);
  EXPECT_EQ(r.results, 3u);
  EXPECT_EQ(r.duplicate_results, 1u);
  EXPECT_EQ(r.conflicting_results, 0u);
  ASSERT_EQ(r.corrupt.size(), 1u);
  EXPECT_EQ(r.corrupt[0].line_no, 7u);
  EXPECT_EQ(r.claims, 4u);
  EXPECT_EQ(r.superseded_claims, 1u);
  EXPECT_EQ(r.moot_claims, 1u);
  EXPECT_EQ(r.dangling_expired, 1u);
  EXPECT_EQ(r.dangling_live, 1u);
  EXPECT_TRUE(r.has_issues());
  EXPECT_TRUE(r.needs_repair());
  std::remove(w.path.c_str());
}

TEST(CacheFsck, ConflictingDuplicateIsAnIssueIdenticalIsNot) {
  const std::string path = temp_path("conflict");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << encode_result_line(sample_result("heat", Design::kAvr, 1)) << '\n';
    out << encode_result_line(sample_result("heat", Design::kAvr, 1)) << '\n';
  }
  FsckReport r = fsck_cache(path, 0);
  EXPECT_EQ(r.duplicate_results, 1u);
  EXPECT_EQ(r.conflicting_results, 0u);
  EXPECT_FALSE(r.has_issues());
  EXPECT_TRUE(r.needs_repair());  // clutter, not damage
  {
    std::ofstream out(path, std::ios::app);
    out << encode_result_line(sample_result("heat", Design::kAvr, 999)) << '\n';
  }
  r = fsck_cache(path, 0);
  EXPECT_EQ(r.conflicting_results, 1u);
  EXPECT_TRUE(r.has_issues());
  std::remove(path.c_str());
}

TEST(CacheFsck, LiveDanglingClaimAloneIsHealthy) {
  // A mid-sweep cache — results plus live claims — must audit clean, or CI
  // could never fsck while workers run.
  const std::string path = temp_path("midsweep");
  std::remove(path.c_str());
  const uint64_t now = 1700000000;
  {
    std::ofstream out(path);
    out << encode_result_line(sample_result("heat", Design::kAvr, 1)) << '\n';
    out << encode_claim_line(sample_claim("wrf", Design::kAvr, "w0", now, 600))
        << '\n';
  }
  const FsckReport r = fsck_cache(path, now);
  EXPECT_EQ(r.dangling_live, 1u);
  EXPECT_FALSE(r.has_issues());
  EXPECT_FALSE(r.needs_repair());
  std::remove(path.c_str());
}

TEST(CacheFsck, MissingFileIsAnIoError) {
  const FsckReport r = fsck_cache(temp_path("nosuch"), 0);
  EXPECT_FALSE(r.io_error.empty());
  EXPECT_TRUE(r.has_issues());
}

TEST(CacheFsck, RepairHealsEveryWoundAndPreservesValues) {
  const uint64_t now = 1700000000;
  const WoundedCache w = make_wounded("repair", now);
  std::string error;
  ASSERT_TRUE(repair_cache(w.path, now, &error)) << error;

  const FsckReport post = fsck_cache(w.path, now);
  EXPECT_FALSE(post.has_issues());
  EXPECT_FALSE(post.needs_repair());
  // One record per point; the pre-v5 and future lines are gone.
  EXPECT_EQ(post.results, 2u);
  EXPECT_EQ(post.foreign_lines, 0u);
  EXPECT_EQ(post.claims, 1u);
  EXPECT_EQ(post.dangling_live, 1u);  // the live worker's claim survived

  // Values preserved bit-exactly through the re-encode.
  const auto cache = load_result_cache(w.path);
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(encode_result_line(cache.at({"heat", Design::kAvr})),
            encode_result_line(w.live_a));
  EXPECT_EQ(encode_result_line(cache.at({"wrf", Design::kTruncate})),
            encode_result_line(w.live_b));
  const auto claims = load_claims(w.path);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims.at({"kmeans", Design::kAvr}).owner, "alive");
  std::remove(w.path.c_str());
}

TEST(CacheFsck, RepairKeepsLastResultOnConflict) {
  // Conflicting duplicates: repair keeps what a load would have used (the
  // last record), so repairing never changes downstream table values.
  const std::string path = temp_path("conflictrepair");
  std::remove(path.c_str());
  const ExperimentResult last = sample_result("heat", Design::kAvr, 999);
  {
    std::ofstream out(path);
    out << encode_result_line(sample_result("heat", Design::kAvr, 1)) << '\n';
    out << encode_result_line(last) << '\n';
  }
  std::string error;
  ASSERT_TRUE(repair_cache(path, 0, &error)) << error;
  const auto cache = load_result_cache(path);
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(encode_result_line(cache.at({"heat", Design::kAvr})),
            encode_result_line(last));
  EXPECT_FALSE(fsck_cache(path, 0).has_issues());
  std::remove(path.c_str());
}

TEST(CacheFsck, RepairOfUnreadableFileFailsUntouched) {
  std::string error;
  EXPECT_FALSE(repair_cache(temp_path("nosuch"), 0, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace avr
