#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace gpuperf {
namespace {

TEST(MeanTest, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StdDevTest, KnownValue) {
  // Sample std dev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0),
              1e-12);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

TEST(GeoMeanTest, KnownValue) {
  EXPECT_NEAR(GeoMean({1, 4, 16}), 4.0, 1e-12);
}

TEST(GeoMeanDeathTest, NonPositiveIsError) {
  EXPECT_DEATH(GeoMean({1.0, 0.0}), "check failed");
}

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25);
  EXPECT_NEAR(Percentile(v, 25), 17.5, 1e-12);
}

TEST(PercentileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Percentile({30, 10, 20}, 50), 20);
}

TEST(PercentileTest, SingleElementIsEveryPercentile) {
  EXPECT_DOUBLE_EQ(Percentile({42}, 0), 42);
  EXPECT_DOUBLE_EQ(Percentile({42}, 50), 42);
  EXPECT_DOUBLE_EQ(Percentile({42}, 100), 42);
}

TEST(PercentileDeathTest, EmptyInputIsError) {
  EXPECT_DEATH(Percentile({}, 50), "check failed");
}

TEST(PercentileDeathTest, NanInputIsError) {
  EXPECT_DEATH(Percentile({1.0, std::nan(""), 3.0}, 50), "NaN");
}

/** Random inputs with many ties (a few distinct values) or none. */
std::vector<double> RandomValues(Rng& rng, std::size_t n, bool ties) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = ties ? static_cast<double>(rng.NextBelow(5)) * 1.5
             : rng.NextRange(-1e3, 1e3);
  }
  return values;
}

TEST(PercentileTest, SelectionMatchesSortBitForBit) {
  Rng rng(17);
  const std::vector<double> ps = {0, 1, 50, 50, 95, 99, 99.9, 100};
  for (std::size_t n : {1u, 2u, 3u, 7u, 100u, 1001u}) {
    for (bool ties : {false, true}) {
      std::vector<double> values = RandomValues(rng, n, ties);
      const std::vector<double> original = values;
      const std::vector<double> selected = SelectPercentiles(&values, ps);
      ASSERT_EQ(selected.size(), ps.size());
      for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(selected[i]),
                  std::bit_cast<std::uint64_t>(Percentile(original, ps[i])))
            << n << " " << ties << " p" << ps[i];
      }
      // A reordering, not a change of the values.
      std::sort(values.begin(), values.end());
      std::vector<double> sorted = original;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(values, sorted);
    }
  }
}

TEST(PercentileDeathTest, SelectionChecksItsInput) {
  std::vector<double> empty;
  EXPECT_DEATH(SelectPercentiles(&empty, {50}), "check failed");
  std::vector<double> with_nan = {1.0, std::nan(""), 3.0};
  EXPECT_DEATH(SelectPercentiles(&with_nan, {50}), "NaN");
  std::vector<double> values = {1.0, 2.0};
  EXPECT_DEATH(SelectPercentiles(&values, {95, 50}), "ascending");
}

TEST(PercentileTest, RunningPercentileMatchesSortAfterEveryAdd) {
  Rng rng(23);
  for (double p : {0.0, 50.0, 95.0, 99.0, 99.99, 100.0}) {
    for (bool ties : {false, true}) {
      RunningPercentile running(p);
      std::vector<double> seen;
      for (double v : RandomValues(rng, 600, ties)) {
        running.Add(v);
        seen.push_back(v);
        ASSERT_EQ(running.size(), seen.size());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(running.Value()),
                  std::bit_cast<std::uint64_t>(Percentile(seen, p)))
            << p << " " << ties << " n=" << seen.size();
      }
    }
  }
}

TEST(HistogramQuantileTest, InterpolatesInsideABucket) {
  // 4 observations in (0, 10]: p50 sits at rank 2 of 4 -> half-way.
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {4, 0, 0}, 50), 5.0);
  // rank 1 of 4 -> a quarter of the way through the first bucket.
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {4, 0, 0}, 25), 2.5);
}

TEST(HistogramQuantileTest, BucketBoundaries) {
  // Rank exactly on a bucket's cumulative edge returns its upper bound.
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {2, 2, 0}, 50), 10.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {2, 2, 0}, 100), 20.0);
  // p=0 lands in the first non-empty bucket at its lower edge.
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {0, 3, 0}, 0), 10.0);
}

TEST(HistogramQuantileTest, OverflowBucketClampsToLastBound) {
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {0, 0, 5}, 50), 20.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {1, 0, 3}, 99), 20.0);
}

TEST(HistogramQuantileTest, EmptyHistogramIsZero) {
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {0, 0, 0}, 50), 0.0);
}

TEST(HistogramQuantileDeathTest, ShapeAndRangeAreChecked) {
  EXPECT_DEATH(HistogramQuantile({}, {1}, 50), "check failed");
  EXPECT_DEATH(HistogramQuantile({10.0}, {1}, 50), "check failed");
  EXPECT_DEATH(HistogramQuantile({10.0}, {1, 1}, -1), "check failed");
  EXPECT_DEATH(HistogramQuantile({10.0}, {1, 1}, 101), "check failed");
  EXPECT_DEATH(HistogramQuantile({20.0, 10.0}, {1, 1, 1}, 50),
               "check failed");
}

TEST(RelativeErrorTest, Symmetric) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90, 100), 0.1);
}

TEST(MapeTest, KnownValue) {
  EXPECT_NEAR(Mape({110, 80}, {100, 100}), 0.15, 1e-12);
}

TEST(MapeDeathTest, SizeMismatchIsError) {
  std::vector<double> a{1.0};
  std::vector<double> b{1.0, 2.0};
  EXPECT_DEATH(Mape(a, b), "check failed");
}

TEST(PearsonTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSideYieldsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(SCurveTest, SortedAscendingWithPercentEndpoints) {
  auto curve = SCurve({50, 200, 100}, {100, 100, 100});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].ratio, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].ratio, 1.0);
  EXPECT_DOUBLE_EQ(curve[2].ratio, 2.0);
  EXPECT_DOUBLE_EQ(curve.front().percent, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().percent, 100.0);
}

TEST(FractionWithinTest, CountsBelowThreshold) {
  EXPECT_DOUBLE_EQ(
      FractionWithin({105, 90, 200}, {100, 100, 100}, 0.15), 2.0 / 3.0);
}

// Property: MAPE is invariant under common positive scaling.
class MapeScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(MapeScaleTest, ScaleInvariant) {
  const double k = GetParam();
  std::vector<double> pred{110, 85, 130}, meas{100, 100, 120};
  std::vector<double> pred_k, meas_k;
  for (double v : pred) pred_k.push_back(v * k);
  for (double v : meas) meas_k.push_back(v * k);
  EXPECT_NEAR(Mape(pred, meas), Mape(pred_k, meas_k), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, MapeScaleTest,
                         ::testing::Values(0.001, 0.5, 3.0, 1e6));

// Property: percentile is monotone in p.
TEST(PercentileTest, MonotoneInP) {
  Rng rng(4);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(rng.NextRange(-5, 5));
  double previous = Percentile(values, 0);
  for (double p = 5; p <= 100; p += 5) {
    double current = Percentile(values, p);
    EXPECT_GE(current, previous);
    previous = current;
  }
}

}  // namespace
}  // namespace gpuperf
