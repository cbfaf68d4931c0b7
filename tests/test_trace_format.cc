// Trace format v1 wall: round-trip fidelity plus an adversarial corpus.
// Replay consumes untrusted bytes from disk, so every malformed input —
// truncated, torn, foreign, out-of-range, oversized — must fail by clean
// error return (never by crash or UB; this suite runs under the ASan/UBSan
// CI lane).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/prng.hh"
#include "trace/trace_format.hh"
#include "trace/trace_gen.hh"

namespace avr {
namespace trace {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trace_format_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Exactly 2 regions (chase emits one per p.regions — mixed would add its
// own sub-trace split), so the byte-surgery offsets below are stable.
Trace small_trace() {
  GenParams p;
  p.records = 64;
  p.regions = 2;
  p.region_bytes = 4096;
  p.seed = 3;
  return make_chase_trace(p);
}

/// Valid serialized bytes of small_trace(), for bit-surgery.
std::string valid_bytes() {
  const std::string path = temp_path("valid.trace");
  std::string err;
  EXPECT_TRUE(write_trace_file(path, small_trace(), &err)) << err;
  return slurp(path);
}

/// The reader must reject `bytes` by clean error return.
void expect_rejected(const std::string& bytes, const std::string& why) {
  const std::string path = temp_path("bad.trace");
  spit(path, bytes);
  Trace t;
  std::string read_err;
  EXPECT_FALSE(read_trace_file(path, &t, &read_err)) << why;
  EXPECT_FALSE(read_err.empty()) << why;
}

// ---- round trip ------------------------------------------------------------

TEST(TraceFormat, RoundTripIsBitIdentical) {
  for (const char* pattern : {"chase", "zipf", "walk", "mixed"}) {
    GenParams p;
    p.records = 500;
    p.regions = 3;
    p.region_bytes = 8192;
    p.seed = 17;
    const Trace t = make_synthetic_trace(pattern, p);
    const std::string path = temp_path(std::string(pattern) + ".trace");
    std::string err;
    ASSERT_TRUE(write_trace_file(path, t, &err)) << pattern << ": " << err;

    Trace back;
    ASSERT_TRUE(read_trace_file(path, &back, &err)) << pattern << ": " << err;
    ASSERT_EQ(back.regions.size(), t.regions.size());
    for (size_t i = 0; i < t.regions.size(); ++i) {
      EXPECT_EQ(back.regions[i].name, t.regions[i].name);
      EXPECT_EQ(back.regions[i].bytes, t.regions[i].bytes);
      EXPECT_EQ(back.regions[i].approx, t.regions[i].approx);
    }
    ASSERT_EQ(back.records.size(), t.records.size()) << pattern;
    for (size_t i = 0; i < t.records.size(); ++i) {
      EXPECT_EQ(back.records[i].op, t.records[i].op) << i;
      EXPECT_EQ(back.records[i].region, t.records[i].region) << i;
      EXPECT_EQ(back.records[i].size, t.records[i].size) << i;
      EXPECT_EQ(back.records[i].offset, t.records[i].offset) << i;
    }
    EXPECT_EQ(back.access_count(), t.access_count());
    EXPECT_EQ(back.footprint_bytes(), t.footprint_bytes());
  }
}

// The writer's exact bytes, pinned as one FNV-1a digest per generator
// setting, in the style of the compressor-identity digests: any change to
// the encoding or to a generator fails here, not only in the end-to-end
// benchmark's reference records. The first four settings have the shape of
// the benchmark's trace-mix inputs, the last is CI's trace-replay sweep
// input. Captured before the fixed-slot codec.
uint64_t file_digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

TEST(TraceFormat, WriterBytesArePinned) {
  auto expect_digest = [](const char* pattern, const GenParams& p, uint64_t digest) {
    const std::string path = temp_path(std::string("pinned_") + pattern + ".trace");
    std::string err;
    ASSERT_TRUE(write_trace_file(path, make_synthetic_trace(pattern, p), &err)) << err;
    const uint64_t got = file_digest(slurp(path));
    EXPECT_EQ(got, digest)
        << pattern << " seed " << p.seed << ": writer bytes drifted; digest is 0x"
        << std::hex << got;
  };
  GenParams mix;  // defaults: 4 regions of 256 KiB
  mix.records = 32768;
  mix.store_fraction = 0.05;
  mix.seed = 1000;
  GenParams mix50 = mix;
  mix50.store_fraction = 0.5;
  expect_digest("chase", mix, 0x64d3567e5ec2c11aull);
  expect_digest("zipf", mix50, 0x46f3af1f3449bc8full);
  expect_digest("walk", mix, 0x63cd32bf47bd14abull);
  expect_digest("mixed", mix50, 0xf03f6627329c9f48ull);

  GenParams ci;
  ci.records = 8192;
  ci.regions = 3;
  ci.region_bytes = 65536;
  ci.seed = 42;
  expect_digest("mixed", ci, 0x5e5ed9d40443e3e1ull);
}

// Out-of-range generator parameters throw naming the field: none is
// clamped or passed through (a NaN store fraction would act as 0).
TEST(TraceGen, RejectsOutOfRangeParams) {
  struct Bad {
    const char* field;
    void (*set)(GenParams&);
  };
  const Bad bad[] = {
      {"store_fraction", [](GenParams& p) { p.store_fraction = std::nan(""); }},
      {"store_fraction", [](GenParams& p) { p.store_fraction = 1.5; }},
      {"store_fraction", [](GenParams& p) { p.store_fraction = -1; }},
      {"region_bytes", [](GenParams& p) { p.region_bytes = 6; }},
      {"region_bytes", [](GenParams& p) { p.region_bytes = 0; }},
      {"region_bytes", [](GenParams& p) { p.region_bytes = 32; }},
      {"region_bytes", [](GenParams& p) { p.region_bytes = kMaxRegionBytes + 4; }},
      {"regions", [](GenParams& p) { p.regions = 0; }},
      {"regions", [](GenParams& p) { p.regions = kMaxRegions + 1; }},
      {"footprint", [](GenParams& p) { p.region_bytes = kMaxTraceFootprint; }},
  };
  for (const char* pattern : {"chase", "zipf", "walk", "mixed"})
    for (const Bad& b : bad) {
      GenParams p;
      p.records = 64;
      b.set(p);
      try {
        (void)make_synthetic_trace(pattern, p);
        ADD_FAILURE() << pattern << ": bad " << b.field << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
            << pattern << ": " << e.what();
      }
    }
  // mixed builds three groups of max(1, regions / 3) regions, so one region
  // of 100 MiB asks for a 300 MiB trace.
  GenParams p;
  p.records = 64;
  p.regions = 1;
  p.region_bytes = 100ull << 20;
  try {
    (void)make_mixed_trace(p);
    ADD_FAILURE() << "mixed: 3 x 100 MiB footprint accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("footprint"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, WriterProducesCanonicalLength) {
  const Trace t = small_trace();
  const std::string bytes = valid_bytes();
  EXPECT_EQ(bytes.size(), kHeaderBytes + t.regions.size() * kRegionEntryBytes +
                              t.records.size() * kRecordBytes);
}

// ---- adversarial corpus ----------------------------------------------------

TEST(TraceFormat, RejectsMissingAndEmptyFiles) {
  Trace t;
  std::string err;
  EXPECT_FALSE(read_trace_file(temp_path("nonexistent.trace"), &t, &err));
  EXPECT_FALSE(err.empty());
  expect_rejected("", "empty file");
}

TEST(TraceFormat, RejectsTruncatedHeader) {
  const std::string bytes = valid_bytes();
  expect_rejected(bytes.substr(0, 10), "mid-header cut");
  expect_rejected(bytes.substr(0, kHeaderBytes - 1), "one byte short of header");
}

TEST(TraceFormat, RejectsTruncatedRegionTable) {
  const std::string bytes = valid_bytes();
  expect_rejected(bytes.substr(0, kHeaderBytes + kRegionEntryBytes / 2),
                  "mid-region cut");
}

TEST(TraceFormat, RejectsTornFinalRecord) {
  const std::string bytes = valid_bytes();
  expect_rejected(bytes.substr(0, bytes.size() - 1), "last byte missing");
  expect_rejected(bytes.substr(0, bytes.size() - kRecordBytes + 3),
                  "record cut after 3 bytes");
}

TEST(TraceFormat, RejectsTrailingGarbage) {
  expect_rejected(valid_bytes() + "extra", "bytes past the promised length");
}

TEST(TraceFormat, RejectsWrongMagicAndVersion) {
  std::string bytes = valid_bytes();
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "wrong magic");

  std::string bad_version = bytes;
  bad_version[8] = 9;  // u32 version little-endian low byte
  expect_rejected(bad_version, "foreign version");

  const std::string path = temp_path("badver.trace");
  spit(path, bad_version);
  Trace t;
  std::string err;
  ASSERT_FALSE(read_trace_file(path, &t, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsZeroRegionFile) {
  std::string bytes = valid_bytes();
  bytes[12] = bytes[13] = bytes[14] = bytes[15] = 0;  // region_count = 0
  expect_rejected(bytes, "zero regions");
}

TEST(TraceFormat, RejectsAbsurdRegionCount) {
  std::string bytes = valid_bytes();
  bytes[12] = static_cast<char>(0xFF);  // region_count = huge
  bytes[13] = static_cast<char>(0xFF);
  bytes[14] = static_cast<char>(0xFF);
  bytes[15] = static_cast<char>(0x7F);
  expect_rejected(bytes, "region count beyond limit");
}

TEST(TraceFormat, RejectsRecordCountMismatch) {
  std::string bytes = valid_bytes();
  bytes[16] = static_cast<char>(bytes[16] + 1);  // record_count += 1, no bytes
  expect_rejected(bytes, "count promises more records than the file holds");
}

TEST(TraceFormat, RejectsRecordCountWhoseLengthWraps) {
  // count = 2^60: count x 16 wraps to 0, so a file with no records at all
  // would match the promised length if the product were taken unchecked.
  const std::string bytes = valid_bytes();
  std::string header_only = bytes.substr(0, kHeaderBytes + 2 * kRegionEntryBytes);
  for (size_t b = 16; b < 24; ++b) header_only[b] = 0;
  header_only[23] = 0x10;
  expect_rejected(header_only, "record count wraps the length check");
}

// Byte offsets of the first record's fields (header + 2 region entries).
constexpr size_t kRec0 = kHeaderBytes + 2 * kRegionEntryBytes;

TEST(TraceFormat, RejectsRegionIndexOutOfRange) {
  std::string bytes = valid_bytes();
  bytes[kRec0 + 2] = static_cast<char>(0xFF);  // u16 region index
  bytes[kRec0 + 3] = static_cast<char>(0xFF);
  const std::string path = temp_path("oor.trace");
  spit(path, bytes);
  Trace t;
  std::string err;
  ASSERT_FALSE(read_trace_file(path, &t, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;

  // Two bad records: the first one in file order is the one reported,
  // whichever check each fails.
  bytes = valid_bytes();
  bytes[kRec0 + 3 * kRecordBytes] = 7;  // record 3: bad op
  bytes[kRec0 + 9 * kRecordBytes + 2] = static_cast<char>(0xFF);  // record 9: region
  bytes[kRec0 + 9 * kRecordBytes + 3] = static_cast<char>(0xFF);
  spit(path, bytes);
  ASSERT_FALSE(read_trace_file(path, &t, &err));
  EXPECT_EQ(err, "record 3: bad op 7");
  bytes[kRec0 + 2 * kRecordBytes + 1] = 1;  // record 2: reserved byte
  spit(path, bytes);
  ASSERT_FALSE(read_trace_file(path, &t, &err));
  EXPECT_EQ(err, "record 2: nonzero reserved byte");
}

TEST(TraceFormat, RejectsOffsetPastRegionEnd) {
  std::string bytes = valid_bytes();
  for (size_t b = 0; b < 8; ++b)
    bytes[kRec0 + 8 + b] = static_cast<char>(0xF4);  // u64 offset = huge, 4-aligned
  const std::string path = temp_path("pastend.trace");
  spit(path, bytes);
  Trace t;
  std::string err;
  ASSERT_FALSE(read_trace_file(path, &t, &err));
  EXPECT_NE(err.find("past region"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsBadOpSizeAlignmentAndReservedBytes) {
  const std::string base = valid_bytes();
  {
    std::string bytes = base;
    bytes[kRec0] = 7;  // op
    expect_rejected(bytes, "unknown op");
  }
  {
    std::string bytes = base;
    bytes[kRec0 + 1] = 1;  // reserved byte
    expect_rejected(bytes, "nonzero record reserved byte");
  }
  for (uint32_t bad_size : {0u, 2u, 6u, kMaxRecordSize + 4}) {
    std::string bytes = base;
    for (size_t b = 0; b < 4; ++b)
      bytes[kRec0 + 4 + b] = static_cast<char>((bad_size >> (8 * b)) & 0xFF);
    expect_rejected(bytes, "bad size " + std::to_string(bad_size));
  }
  {
    std::string bytes = base;
    bytes[kRec0 + 8] = 2;  // offset = 2: unaligned
    for (size_t b = 1; b < 8; ++b) bytes[kRec0 + 8 + b] = 0;
    expect_rejected(bytes, "unaligned offset");
  }
}

TEST(TraceFormat, RejectsHostileRegionTable) {
  const std::string base = valid_bytes();
  constexpr size_t kRegion0 = kHeaderBytes;
  {
    std::string bytes = base;
    bytes[kRegion0] = 0;  // empty name
    expect_rejected(bytes, "empty region name");
  }
  {
    std::string bytes = base;
    // bytes = 2^40: single region beyond kMaxRegionBytes.
    for (size_t b = 0; b < 8; ++b) bytes[kRegion0 + kRegionNameBytes + b] = 0;
    bytes[kRegion0 + kRegionNameBytes + 5] = 1;
    expect_rejected(bytes, "region size beyond limit");
  }
  {
    std::string bytes = base;
    bytes[kRegion0 + kRegionNameBytes + 8] = 0x04;  // unknown flag bit
    expect_rejected(bytes, "unknown region flags");
  }
  {
    std::string bytes = base;
    bytes[kRegion0 + kRegionNameBytes + 12] = 1;  // reserved field
    expect_rejected(bytes, "nonzero region reserved field");
  }
  {
    std::string bytes = base;
    bytes[kRegion0 + kRegionNameBytes - 2] = 'x';  // nonzero name padding
    expect_rejected(bytes, "nonzero name padding");
  }
  {
    // Duplicate region names: copy region 0's name field over region 1's.
    std::string bytes = base;
    for (size_t b = 0; b < kRegionNameBytes; ++b)
      bytes[kRegion0 + kRegionEntryBytes + b] = bytes[kRegion0 + b];
    expect_rejected(bytes, "duplicate region names");
  }
}

TEST(TraceFormat, WriterRefusesInvalidTraces) {
  std::string err;
  Trace t = small_trace();
  t.records[0].region = 99;
  EXPECT_FALSE(write_trace_file(temp_path("w1.trace"), t, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;

  Trace zero;
  EXPECT_FALSE(write_trace_file(temp_path("w2.trace"), zero, &err));
  EXPECT_NE(err.find("zero regions"), std::string::npos) << err;

  Trace dup = small_trace();
  dup.regions[1].name = dup.regions[0].name;
  EXPECT_FALSE(write_trace_file(temp_path("w3.trace"), dup, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;

  Trace past = small_trace();
  past.records[0].offset = past.regions[past.records[0].region].bytes;
  EXPECT_FALSE(write_trace_file(temp_path("w4.trace"), past, &err));
  EXPECT_NE(err.find("past region"), std::string::npos) << err;

  Trace two_bad = small_trace();
  two_bad.records[5].size = 6;
  two_bad.records[8].region = 99;
  EXPECT_FALSE(write_trace_file(temp_path("w5.trace"), two_bad, &err));
  EXPECT_EQ(err, "record 5: bad size 6");
}

// ---- seeded corruption corpus ----------------------------------------------

bool same_trace(const Trace& a, const Trace& b) {
  if (a.regions.size() != b.regions.size() || a.records.size() != b.records.size())
    return false;
  for (size_t i = 0; i < a.regions.size(); ++i)
    if (a.regions[i].name != b.regions[i].name ||
        a.regions[i].bytes != b.regions[i].bytes ||
        a.regions[i].approx != b.regions[i].approx)
      return false;
  for (size_t i = 0; i < a.records.size(); ++i)
    if (a.records[i].op != b.records[i].op ||
        a.records[i].region != b.records[i].region ||
        a.records[i].size != b.records[i].size ||
        a.records[i].offset != b.records[i].offset)
      return false;
  return true;
}

/// Every mutation of a valid file either fails cleanly — a non-empty
/// one-line reason, *out untouched — or is itself a canonical trace: the
/// writer reproduces the mutated bytes exactly. Byte flips land in each
/// of the header, the region table and the record stream; truncations cut
/// anywhere; appends add 1..40 bytes.
TEST(TraceFormat, SeededCorruptionCorpus) {
  GenParams p;
  p.records = 48;
  p.regions = 3;
  p.region_bytes = 256;
  p.seed = 5;
  const std::string path = temp_path("corpus_valid.trace");
  std::string err;
  ASSERT_TRUE(write_trace_file(path, make_mixed_trace(p), &err)) << err;
  const std::string base = slurp(path);
  const size_t regions_end = kHeaderBytes + 3 * kRegionEntryBytes;
  ASSERT_GT(base.size(), regions_end);

  Trace sentinel;
  sentinel.regions.push_back({"sentinel", 64, false});
  sentinel.records.push_back({Op::kStore, 0, 8, 16});

  Xoshiro256 rng(0xC0442u);
  const std::pair<size_t, size_t> zones[] = {
      {0, kHeaderBytes}, {kHeaderBytes, regions_end}, {regions_end, base.size()}};
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 900; ++i) {
    std::string bytes = base;
    const int kind = i % 5;  // 0..2 flip in zone `kind`, 3 truncate, 4 append
    if (kind < 3) {
      const auto [lo, hi] = zones[kind];
      const int flips = 1 + static_cast<int>(rng.below(3));
      for (int f = 0; f < flips; ++f)
        bytes[lo + rng.below(hi - lo)] ^= static_cast<char>(1 + rng.below(255));
    } else if (kind == 3) {
      bytes.resize(rng.below(base.size()));
    } else {
      const size_t extra = 1 + rng.below(40);
      for (size_t b = 0; b < extra; ++b)
        bytes.push_back(static_cast<char>(rng.below(256)));
    }
    const std::string bad = temp_path("corpus_bad.trace");
    spit(bad, bytes);
    Trace out = sentinel;
    err.clear();
    if (!read_trace_file(bad, &out, &err)) {
      ++rejected;
      EXPECT_FALSE(err.empty()) << "case " << i;
      EXPECT_EQ(err.find('\n'), std::string::npos) << "case " << i << ": " << err;
      EXPECT_TRUE(same_trace(out, sentinel)) << "case " << i << ": *out was touched";
      continue;
    }
    ++accepted;
    const std::string again = temp_path("corpus_again.trace");
    ASSERT_TRUE(write_trace_file(again, out, &err)) << "case " << i << ": " << err;
    EXPECT_EQ(slurp(again), bytes) << "case " << i << ": accepted but not canonical";
  }
  // Both outcomes occur: a flip inside a record's offset or op can still be
  // a valid record, and most header damage cannot.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(TraceFormat, FailedWriteLeavesNoFileBehind) {
  const std::string path = temp_path("never.trace");
  Trace bad;
  std::string err;
  ASSERT_FALSE(write_trace_file(path, bad, &err));
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "invalid trace must not be materialized";
}

}  // namespace
}  // namespace trace
}  // namespace avr
