#include "dram/dram.hh"

#include <gtest/gtest.h>

#include "common/types.hh"

namespace avr {
namespace {

DramConfig cfg() { return DramConfig{}; }

TEST(Dram, ReadReturnsPositiveLatency) {
  Dram d(cfg());
  EXPECT_GT(d.read(0, 0x1000, 64, false), 0u);
}

TEST(Dram, RowHitFasterThanRowConflict) {
  Dram d(cfg());
  // Prime a row.
  d.read(0, 0x0, 64, false);
  // Same row (same 1 KB block region on the same bank/row).
  const uint64_t hit = d.read(100000, 0x40, 64, false);
  // Conflict: same bank, different row. Bank stride = row_bytes per channel
  // group; pick a far address mapping to bank 0 row 1.
  Dram d2(cfg());
  d2.read(0, 0x0, 64, false);
  const uint64_t row_stride =
      cfg().row_bytes * cfg().channels * cfg().banks_per_channel;
  const uint64_t miss = d2.read(100000, row_stride, 64, false);
  EXPECT_LT(hit, miss);
}

TEST(Dram, BlockReadStreamsCheaperThanScatteredLines) {
  // One 1 KB block read must complete far sooner than 16 dependent
  // line reads (the core of AVR's bandwidth advantage).
  Dram a(cfg());
  const uint64_t block_lat = a.read(0, 0x10000, 1024, false);

  Dram b(cfg());
  uint64_t t = 0;
  for (int i = 0; i < 16; ++i) t += b.read(t, 0x10000 + i * 64, 64, false);
  EXPECT_LT(block_lat * 4, t);  // at least 4x cheaper in total service time
}

TEST(Dram, BytesAccounting) {
  Dram d(cfg());
  d.read(0, 0x0, 64, false);
  d.write(0, 0x40, 64, false);
  d.read(0, 0x10000, 1024, false);
  EXPECT_EQ(d.bytes_read(), 64u + 1024u);
  EXPECT_EQ(d.bytes_written(), 64u);
  EXPECT_EQ(d.total_bytes(), 64u + 1024u + 64u);
}

TEST(Dram, ApproxBytesSplitTheTrafficInChops) {
  Dram d(cfg());
  d.read(0, 0x0, 1024, true);
  d.write(0, 0x400, 20, true);  // one 32 B chop
  d.write(0, 0x40, 64, false);
  EXPECT_EQ(d.approx_bytes(), 1024u + 32u);
  EXPECT_EQ(d.other_bytes(), 64u);
  EXPECT_EQ(d.approx_bytes() + d.other_bytes(), d.total_bytes());
  // The split belongs to the design record, not to the DRAM keys.
  EXPECT_EQ(d.stats().counters().count("approx_bytes"), 0u);
  StatGroup g;
  d.add_traffic_split(g);
  EXPECT_EQ(g.get("traffic_approx_bytes"), 1024u + 32u);
  EXPECT_EQ(g.get("traffic_other_bytes"), 64u);
}

TEST(Dram, HalfLineTransfersCountHalfBytes) {
  Dram d(cfg());
  d.read(0, 0x0, 32, false);  // Truncate-style half-line
  EXPECT_EQ(d.bytes_read(), 32u);
  Dram d2(cfg());
  const uint64_t full = d2.read(0, 0x0, 64, false);
  Dram d3(cfg());
  const uint64_t half = d3.read(0, 0x0, 32, false);
  EXPECT_LE(half, full);
}

TEST(Dram, ReadAndWriteLatencyStatsBothAdvance) {
  // Dram::write used to silently drop the latency accumulation that
  // Dram::read performs; both must advance their *_latency_total counter.
  Dram d(cfg());
  const uint64_t rlat = d.read(0, 0x0, 64, false);
  EXPECT_EQ(d.counters().read_latency_total, rlat);
  EXPECT_EQ(d.counters().write_latency_total, 0u);
  const uint64_t wlat = d.write(0, 0x10000, 64, false);
  EXPECT_GT(wlat, 0u);
  EXPECT_EQ(d.counters().write_latency_total, wlat);
  EXPECT_EQ(d.counters().read_latency_total, rlat);  // unchanged by the write
  // The snapshot exposes both under the historical key names.
  EXPECT_EQ(d.stats().get("read_latency_total"), rlat);
  EXPECT_EQ(d.stats().get("write_latency_total"), wlat);
}

TEST(Dram, StatsSnapshotMatchesCounters) {
  Dram d(cfg());
  d.read(0, 0x0, 1024, false);
  d.write(0, 0x40, 64, false);
  const StatGroup g = d.stats();
  EXPECT_EQ(g.get("reads"), d.counters().reads);
  EXPECT_EQ(g.get("writes"), d.counters().writes);
  EXPECT_EQ(g.get("bytes_read"), d.counters().bytes_read);
  EXPECT_EQ(g.get("bytes_written"), d.counters().bytes_written);
  EXPECT_EQ(g.get("activations"), d.counters().activations);
  // Zero-valued counters are omitted from the snapshot (a never-touched
  // string key was absent from the old map-backed StatGroup too).
  Dram fresh(cfg());
  EXPECT_EQ(fresh.stats().counters().size(), 0u);
}

TEST(DramConfigValidation, ValidConfigsConstructAndMapBanks) {
  // A legal non-default geometry must construct and spread rows over banks.
  DramConfig c;
  c.channels = 4;
  c.banks_per_channel = 8;
  c.row_bytes = 4096;
  Dram d(c);
  d.read(0, 0x0, 64, false);
  EXPECT_EQ(d.activations(), 1u);
}

TEST(Dram, ActivationsCounted) {
  Dram d(cfg());
  d.read(0, 0x0, 64, false);
  EXPECT_EQ(d.activations(), 1u);
  d.read(1000, 0x40, 64, false);  // row hit: no new activation
  EXPECT_EQ(d.activations(), 1u);
}

TEST(Dram, ChannelsInterleaveAtBlockGranularity) {
  Dram d(cfg());
  // Two consecutive 1 KB blocks land on different channels: issuing both at
  // t=0 should overlap rather than serialize on one bus.
  const uint64_t l1 = d.read(0, 0x0, 1024, false);
  const uint64_t l2 = d.read(0, 0x400, 1024, false);
  // If they were on one channel, the second would wait a full block burst.
  EXPECT_LT(l2, l1 + 16 * cfg().t_burst * cfg().cpu_per_dram_cycle / 2);
}

TEST(Dram, BusContentionDelaysBackToBackReads) {
  Dram d(cfg());
  const uint64_t first = d.read(0, 0x0, 1024, false);
  // Same channel (stride 2 blocks), immediately after: queues behind.
  const uint64_t second = d.read(0, 0x800, 1024, false);
  EXPECT_GT(second, first);
}

TEST(Dram, LatencyIndependentOfAbsoluteTime) {
  Dram a(cfg()), b(cfg());
  const uint64_t l0 = a.read(0, 0x0, 64, false);
  const uint64_t l1 = b.read(1'000'000, 0x0, 64, false);
  EXPECT_EQ(l0, l1);
}

class DramBurstSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DramBurstSweep, LatencyMonotoneInSize) {
  const uint32_t lines = GetParam();
  Dram a(cfg()), b(cfg());
  const uint64_t small = a.read(0, 0x0, 64, false);
  const uint64_t big = b.read(0, 0x0, lines * 64, false);
  EXPECT_GE(big, small);
  // First-line latency grows only by burst slots, not by full penalties.
  EXPECT_LE(big, small + lines * cfg().t_burst * cfg().cpu_per_dram_cycle);
}

INSTANTIATE_TEST_SUITE_P(Lines, DramBurstSweep, ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace avr
