// Tests for the deterministic fault-injection layer (common/fault_inject.hh):
// the AVR_FAULTS grammar, nth- and probability-triggered rules, hit/fired
// counters, interleaving-independence of the seeded decisions, the EINTR
// storm cap, and environment (re)initialization.
#include "common/fault_inject.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace avr::fault {
namespace {

// ---- grammar ---------------------------------------------------------------

TEST(FaultSchedule, ParsesSeedAndRules) {
  Schedule s;
  std::string err;
  ASSERT_TRUE(parse_schedule("42:cache.append=eintr@0.4,claim.stake=kill@n2",
                             &s, &err))
      << err;
  EXPECT_EQ(s.seed, 42u);
  const SiteRule& append = s.rules[size_t(Site::kCacheAppend)];
  EXPECT_EQ(append.kind, Kind::kEintr);
  EXPECT_EQ(append.nth, 0u);
  EXPECT_DOUBLE_EQ(append.prob, 0.4);
  const SiteRule& stake = s.rules[size_t(Site::kClaimStake)];
  EXPECT_EQ(stake.kind, Kind::kKill);
  EXPECT_EQ(stake.nth, 2u);
  EXPECT_TRUE(s.any());
}

TEST(FaultSchedule, ParsesEverySiteAndKind) {
  const char* sites[] = {"cache.append",   "cache.load",    "lock.acquire",
                         "claim.stake",    "point.complete", "sidecar.write",
                         "sidecar.rename"};
  const char* kinds[] = {"short_write", "eintr", "eio", "enospc", "timeout",
                         "kill"};
  for (const char* site : sites) {
    for (const char* kind : kinds) {
      Schedule s;
      std::string err;
      const std::string spec =
          std::string("7:") + site + "=" + kind + "@n1";
      EXPECT_TRUE(parse_schedule(spec, &s, &err)) << spec << ": " << err;
    }
  }
}

TEST(FaultSchedule, SiteAndKindNamesRoundTrip) {
  for (size_t i = 0; i < kNumSites; ++i) {
    Schedule s;
    std::string err;
    const std::string spec =
        std::string("1:") + site_name(Site(i)) + "=eio@n1";
    ASSERT_TRUE(parse_schedule(spec, &s, &err)) << spec << ": " << err;
    EXPECT_EQ(s.rules[i].kind, Kind::kEio);
  }
  EXPECT_STREQ(kind_name(Kind::kNone), "none");
  EXPECT_STREQ(kind_name(Kind::kKill), "kill");
}

TEST(FaultSchedule, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                            // empty
      "42",                          // no rules
      "42:",                         // empty rule list
      "x:cache.append=eio@n1",       // non-numeric seed
      "42:cache.append=eio",         // missing @when
      "42:cache.append@n1",          // missing =kind
      "42:nosuch.site=eio@n1",       // unknown site
      "42:cache.append=nosuch@n1",   // unknown kind
      "42:cache.append=eio@n0",      // nth must be >= 1
      "42:cache.append=eio@0",       // prob must be > 0
      "42:cache.append=eio@1.5",     // prob must be <= 1
      "42:cache.append=eio@-0.5",    // negative prob
      "42:cache.append=eio@wat",     // unparseable when
      "42:cache.append=eio@n1,",     // trailing comma = empty rule
      "cache.append=eio@n1",         // missing seed prefix
  };
  for (const char* spec : bad) {
    Schedule s;
    std::string err;
    EXPECT_FALSE(parse_schedule(spec, &s, &err)) << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(FaultSchedule, LaterRuleForSameSiteWins) {
  Schedule s;
  std::string err;
  ASSERT_TRUE(parse_schedule("1:cache.load=eio@n1,cache.load=enospc@n3", &s,
                             &err))
      << err;
  EXPECT_EQ(s.rules[size_t(Site::kCacheLoad)].kind, Kind::kEnospc);
  EXPECT_EQ(s.rules[size_t(Site::kCacheLoad)].nth, 3u);
}

// Arm/disarm around every runtime test: leaked arming would inject faults
// into other tests' cache I/O.
class FaultRuntime : public ::testing::Test {
 protected:
  void TearDown() override {
    disarm();
    unsetenv("AVR_FAULTS");
  }
  static Schedule parse_ok(const std::string& spec) {
    Schedule s;
    std::string err;
    EXPECT_TRUE(parse_schedule(spec, &s, &err)) << err;
    return s;
  }
};

TEST_F(FaultRuntime, UnarmedFiresNothingAndCountsNothing) {
  disarm();
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(fire(Site::kCacheAppend), Kind::kNone);
  EXPECT_EQ(hits(Site::kCacheAppend), 0u);
  EXPECT_EQ(fired(Site::kCacheAppend), 0u);
}

TEST_F(FaultRuntime, NthRuleFiresOnExactlyThatHit) {
  arm(parse_ok("9:cache.append=eio@n3"));
  std::vector<Kind> got;
  for (int i = 0; i < 6; ++i) got.push_back(fire(Site::kCacheAppend));
  EXPECT_EQ(got[0], Kind::kNone);
  EXPECT_EQ(got[1], Kind::kNone);
  EXPECT_EQ(got[2], Kind::kEio);  // the 3rd hit, 1-based
  EXPECT_EQ(got[3], Kind::kNone);
  EXPECT_EQ(got[4], Kind::kNone);
  EXPECT_EQ(got[5], Kind::kNone);
  EXPECT_EQ(hits(Site::kCacheAppend), 6u);
  EXPECT_EQ(fired(Site::kCacheAppend), 1u);
  // An unruled site stays silent but still proceeds.
  EXPECT_EQ(fire(Site::kCacheLoad), Kind::kNone);
  EXPECT_EQ(hits(Site::kCacheLoad), 1u);
  EXPECT_EQ(fired(Site::kCacheLoad), 0u);
}

TEST_F(FaultRuntime, ProbabilisticDecisionsReplayExactly) {
  // Same seed => identical per-hit decisions, independent of when/where the
  // hits happen — the property that makes chaos schedules replayable.
  auto run = [&](uint64_t seed) {
    Schedule s = parse_ok(std::to_string(seed) + ":cache.load=eio@0.5");
    arm(s);
    std::vector<Kind> out;
    for (int i = 0; i < 64; ++i) out.push_back(fire(Site::kCacheLoad));
    disarm();
    return out;
  };
  const auto a = run(1234), b = run(1234), c = run(5678);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // (2^-64 false-failure odds: the streams are independent)
  // p=0.5 over 64 hits: both outcomes must appear.
  EXPECT_GT(std::count(a.begin(), a.end(), Kind::kEio), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), Kind::kNone), 0);
}

TEST_F(FaultRuntime, EintrStormIsCappedPerSite) {
  // Probability 1.0 EINTR would wedge a retry loop forever; the layer caps
  // consecutive injections at kMaxEintrStorm, lets one through, and starts
  // a fresh storm — so armed loops always make progress.
  arm(parse_ok("5:lock.acquire=eintr@1.0"));
  uint64_t consecutive = 0, max_run = 0;
  for (int i = 0; i < 100; ++i) {
    if (fire(Site::kLockAcquire) == Kind::kEintr) {
      max_run = std::max(max_run, ++consecutive);
    } else {
      consecutive = 0;
    }
  }
  EXPECT_EQ(max_run, kMaxEintrStorm);
  EXPECT_LT(fired(Site::kLockAcquire), hits(Site::kLockAcquire));
}

TEST_F(FaultRuntime, ArmResetsCounters) {
  arm(parse_ok("1:cache.append=eio@n1"));
  EXPECT_EQ(fire(Site::kCacheAppend), Kind::kEio);
  EXPECT_EQ(hits(Site::kCacheAppend), 1u);
  arm(parse_ok("1:cache.append=eio@n1"));
  EXPECT_EQ(hits(Site::kCacheAppend), 0u);
  EXPECT_EQ(fire(Site::kCacheAppend), Kind::kEio);  // n1 fires again
}

TEST_F(FaultRuntime, ReinitFromEnvArmsAndDisarms) {
  setenv("AVR_FAULTS", "77:sidecar.write=enospc@n1", 1);
  EXPECT_TRUE(reinit_from_env());
  EXPECT_EQ(fire(Site::kSidecarWrite), Kind::kEnospc);
  unsetenv("AVR_FAULTS");
  EXPECT_FALSE(reinit_from_env());
  EXPECT_EQ(fire(Site::kSidecarWrite), Kind::kNone);
}

TEST_F(FaultRuntime, MalformedEnvDisarmsLoudly) {
  // A chaos run with a typoed schedule must not silently run fault-free:
  // the layer warns on stderr and stays disarmed.
  setenv("AVR_FAULTS", "not-a-schedule", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(reinit_from_env());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("malformed AVR_FAULTS"), std::string::npos) << err;
  EXPECT_EQ(fire(Site::kCacheAppend), Kind::kNone);
}

}  // namespace
}  // namespace avr::fault
