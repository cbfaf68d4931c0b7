// Workload-level tests: registry completeness, determinism of the golden
// runs, output sanity and the error metric.
#include <gtest/gtest.h>
#include <cmath>
#include <limits>

#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

TEST(Workloads, RegistryHasAllSeven) {
  const auto names = workload_names();
  ASSERT_EQ(names.size(), 7u);
  for (const auto& n : names) {
    auto wl = make_workload(n);
    ASSERT_NE(wl, nullptr) << n;
    EXPECT_EQ(wl->name(), n);
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(make_workload("nosuch"), std::invalid_argument);
}

class WorkloadGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadGolden, RunsAndProducesFiniteOutput) {
  auto wl = make_workload(GetParam());
  System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
  wl->run(sys);
  const auto out = wl->output(sys);
  ASSERT_FALSE(out.empty());
  double mean_abs = 0;
  for (double v : out) {
    EXPECT_TRUE(std::isfinite(v)) << GetParam();
    mean_abs += std::abs(v);
  }
  EXPECT_GT(mean_abs / out.size(), 0.0) << "output must not be all zero";
}

TEST_P(WorkloadGolden, DeterministicAcrossRuns) {
  auto w1 = make_workload(GetParam());
  System s1(Design::kBaseline, SimConfig{}, 1, false);
  w1->run(s1);
  const auto o1 = w1->output(s1);

  auto w2 = make_workload(GetParam());
  System s2(Design::kBaseline, SimConfig{}, 1, false);
  w2->run(s2);
  const auto o2 = w2->output(s2);

  ASSERT_EQ(o1.size(), o2.size());
  for (size_t i = 0; i < o1.size(); ++i) EXPECT_EQ(o1[i], o2[i]) << i;
}

TEST_P(WorkloadGolden, AllocatesApproxData) {
  auto wl = make_workload(GetParam());
  System sys(Design::kBaseline, SimConfig{}, 1, false);
  wl->run(sys);
  EXPECT_GT(sys.regions().approx_bytes(), 0u);
  EXPECT_GE(sys.regions().total_bytes(), sys.regions().approx_bytes());
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadGolden,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

TEST(ErrorMetric, ZeroForIdenticalOutputs) {
  const std::vector<double> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(mean_relative_error(a, a), 0.0);
}

TEST(ErrorMetric, SimpleRelativeError) {
  EXPECT_NEAR(mean_relative_error({1.1, 2.2}, {1.0, 2.0}), 0.1, 1e-9);
}

TEST(ErrorMetric, SizeMismatchThrows) {
  EXPECT_THROW(mean_relative_error({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(mean_relative_error({}, {}), std::invalid_argument);
}

TEST(ErrorMetric, NearZeroValuesScoredAgainstScale) {
  // exact = {100, 1e-9}: the tiny element must not dominate the metric.
  const double err = mean_relative_error({100.0, 0.5}, {100.0, 1e-9});
  EXPECT_LT(err, 0.1);
}

TEST(ErrorMetric, NonFinitePenalized) {
  const double err = mean_relative_error(
      {std::numeric_limits<double>::quiet_NaN(), 2.0}, {1.0, 2.0});
  EXPECT_NEAR(err, 0.5, 1e-12);
}

}  // namespace
}  // namespace avr
