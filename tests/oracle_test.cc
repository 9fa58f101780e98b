#include "gpuexec/oracle.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "dnn/builder.h"
#include "gpuexec/lowering.h"

namespace gpuperf::gpuexec {
namespace {

using dnn::Chw;

KernelLaunch MakeLaunch(KernelFamily family, std::int64_t flops,
                        std::int64_t bytes, std::int64_t blocks) {
  KernelLaunch launch;
  launch.name = "test_kernel";
  launch.family = family;
  launch.flops = flops;
  launch.bytes_in = bytes / 2;
  launch.bytes_out = bytes - bytes / 2;
  launch.blocks = blocks;
  launch.batch = 1;
  launch.layer_flops = flops;
  launch.input_elems = bytes / 8;
  launch.output_elems = bytes / 8;
  return launch;
}

TEST(OracleTest, ExpectedTimeIsDeterministic) {
  HardwareOracle oracle;
  KernelLaunch launch =
      MakeLaunch(KernelFamily::kGemm, 1'000'000'000, 10'000'000, 5000);
  const GpuSpec& a100 = GpuByName("A100");
  EXPECT_DOUBLE_EQ(oracle.ExpectedKernelTimeUs(launch, a100),
                   oracle.ExpectedKernelTimeUs(launch, a100));
}

TEST(OracleTest, LayerQuirkKeyKeepsItsFirst159Characters) {
  // The per-layer quirk is keyed on "<gpu>/<kernel>/L<shape>" cut after
  // 159 characters (the pinned snprintf-into-160-bytes key): kernel names
  // that differ only past the cut share the layer quirk, names that
  // differ before it do not. The kernel-name quirk is held fixed here.
  HardwareOracle oracle;
  const GpuSpec& gpu = GpuByName("A100");
  KernelLaunch base =
      MakeLaunch(KernelFamily::kImplicitGemm, 1'000'000'000, 10'000'000, 5000);
  base.name = std::string(200, 'k');
  KernelLaunch late = base;
  late.name[190] = 'x';
  KernelLaunch early = base;
  early.name[100] = 'x';
  const KernelFactors factors{1.0, 1.0, 1.0};
  const double at_base = oracle.ExpectedKernelTimeUs(base, gpu, factors);
  EXPECT_EQ(oracle.ExpectedKernelTimeUs(late, gpu, factors), at_base);
  EXPECT_NE(oracle.ExpectedKernelTimeUs(early, gpu, factors), at_base);
}

TEST(OracleTest, TimeIncludesFixedOverhead) {
  HardwareOracle oracle;
  KernelLaunch tiny = MakeLaunch(KernelFamily::kElementwise, 100, 800, 1);
  EXPECT_GE(oracle.ExpectedKernelTimeUs(tiny, GpuByName("A100")),
            oracle.config().kernel_overhead_us);
}

TEST(OracleTest, MoreWorkTakesLonger) {
  HardwareOracle oracle;
  const GpuSpec& gpu = GpuByName("V100");
  KernelLaunch small =
      MakeLaunch(KernelFamily::kGemm, 1e9, 1e7, 10000);
  KernelLaunch large = small;
  large.flops *= 8;
  large.bytes_in *= 8;
  large.bytes_out *= 8;
  large.blocks *= 8;
  EXPECT_GT(oracle.ExpectedKernelTimeUs(large, gpu),
            oracle.ExpectedKernelTimeUs(small, gpu));
}

TEST(OracleTest, MemoryBoundKernelScalesWithBandwidth) {
  HardwareOracle oracle;
  KernelLaunch launch =
      MakeLaunch(KernelFamily::kElementwise, 1'000'000, 400'000'000, 100000);
  const GpuSpec& titan = GpuByName("TITAN RTX");
  const double at_stock = oracle.ExpectedKernelTimeUs(launch, titan);
  const double at_double =
      oracle.ExpectedKernelTimeUs(launch, titan.WithBandwidth(1344));
  // Doubling bandwidth should nearly halve a memory-bound kernel's time.
  EXPECT_NEAR(at_stock / at_double, 2.0, 0.15);
}

TEST(OracleTest, ComputeBoundKernelInsensitiveToSmallBwChange) {
  HardwareOracle oracle;
  // Very high arithmetic intensity.
  KernelLaunch launch =
      MakeLaunch(KernelFamily::kGemm, 4e12, 1e7, 100000);
  const GpuSpec& titan = GpuByName("TITAN RTX");
  const double at_stock = oracle.ExpectedKernelTimeUs(launch, titan);
  const double at_higher =
      oracle.ExpectedKernelTimeUs(launch, titan.WithBandwidth(742));
  // +10% bandwidth moves a compute-bound kernel far less than 10%.
  EXPECT_LT(at_stock / at_higher, 1.08);
}

TEST(OracleTest, OccupancyPenalizesTinyGrids) {
  HardwareOracle oracle;
  const GpuSpec& a100 = GpuByName("A100");
  KernelLaunch wide =
      MakeLaunch(KernelFamily::kElementwise, 1e6, 8e6, 100000);
  KernelLaunch narrow = wide;
  narrow.blocks = 4;  // same work crammed into 4 blocks
  EXPECT_GT(oracle.ExpectedKernelTimeUs(narrow, a100),
            oracle.ExpectedKernelTimeUs(wide, a100));
}

TEST(OracleTest, MeasurementNoiseMatchesConfiguredSigma) {
  OracleConfig config;
  config.measurement_sigma = 0.05;
  HardwareOracle oracle(config);
  KernelLaunch launch =
      MakeLaunch(KernelFamily::kGemm, 1e10, 1e8, 10000);
  const GpuSpec& gpu = GpuByName("A40");
  const double expected = oracle.ExpectedKernelTimeUs(launch, gpu);
  Rng rng(123);
  std::vector<double> log_ratio;
  for (int i = 0; i < 20000; ++i) {
    log_ratio.push_back(
        std::log(oracle.MeasureKernelTimeUs(launch, gpu, &rng) / expected));
  }
  EXPECT_NEAR(Mean(log_ratio), 0.0, 0.003);
  EXPECT_NEAR(StdDev(log_ratio), 0.05, 0.005);
}

TEST(OracleTest, DifferentSeedsChangeQuirks) {
  OracleConfig a, b;
  b.seed = a.seed + 1;
  HardwareOracle oracle_a(a), oracle_b(b);
  KernelLaunch launch =
      MakeLaunch(KernelFamily::kImplicitGemm, 1e10, 1e8, 10000);
  const GpuSpec& gpu = GpuByName("V100");
  EXPECT_NE(oracle_a.ExpectedKernelTimeUs(launch, gpu),
            oracle_b.ExpectedKernelTimeUs(launch, gpu));
}

// O3 foundation: doubling the batch doubles the expected time of a
// saturated kernel (same per-image quirk key).
class BatchScalingTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BatchScalingTest, TimeScalesWithBatchWhenSaturated) {
  const std::int64_t factor = GetParam();
  HardwareOracle oracle;
  const GpuSpec& gpu = GpuByName("A100");
  dnn::NetworkBuilder b("t", "Test", Chw(64, 56, 56));
  b.Conv(64, 3, 1, 1);
  dnn::Network net = b.Build();
  auto at_batch = [&](std::int64_t batch) {
    double total = 0;
    for (const KernelLaunch& launch :
         LowerLayer(net.layers()[0], batch)) {
      total += oracle.ExpectedKernelTimeUs(launch, gpu);
    }
    return total;
  };
  const double base = at_batch(64);
  const double scaled = at_batch(64 * factor);
  EXPECT_NEAR(scaled / base, static_cast<double>(factor),
              0.15 * static_cast<double>(factor));
}

INSTANTIATE_TEST_SUITE_P(Factors, BatchScalingTest,
                         ::testing::Values(2, 4, 8));

TEST(OracleTest, SustainedPeakCapsMarketingTflops) {
  // The A40's dual-issue 37.4 TFLOPS must not be reachable: a giant
  // compute-bound GEMM on A40 (696 GB/s) must run at a lower achieved
  // rate than on A100 despite the A40's higher theoretical peak.
  HardwareOracle oracle;
  KernelLaunch launch =
      MakeLaunch(KernelFamily::kGemm, 1e13, 1e8, 200000);
  const double on_a40 =
      oracle.ExpectedKernelTimeUs(launch, GpuByName("A40"));
  const double on_a100 =
      oracle.ExpectedKernelTimeUs(launch, GpuByName("A100"));
  EXPECT_GT(on_a40, on_a100);
}

TEST(OracleTest, ProfileTableCoversAllFamilies) {
  for (int f = 0; f <= static_cast<int>(KernelFamily::kGather); ++f) {
    const FamilyProfile& profile =
        ProfileFor(static_cast<KernelFamily>(f));
    EXPECT_GT(profile.compute_eff, 0.0);
    EXPECT_LE(profile.compute_eff, 1.0);
    EXPECT_GT(profile.memory_eff, 0.0);
    EXPECT_LE(profile.memory_eff, 1.0);
    EXPECT_GT(profile.blocks_per_sm, 0);
  }
}

TEST(OracleDeathTest, NullRngIsError) {
  HardwareOracle oracle;
  KernelLaunch launch = MakeLaunch(KernelFamily::kGemm, 1e9, 1e7, 100);
  EXPECT_DEATH(
      oracle.MeasureKernelTimeUs(launch, GpuByName("A100"), nullptr),
      "check failed");
}

TEST(DriftScheduleTest, EmptyScheduleIsIdentity) {
  DriftSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.resources(), 0u);
  DriftSchedule sized(3, std::vector<DriftEvent>{});
  EXPECT_TRUE(sized.empty());
  EXPECT_DOUBLE_EQ(sized.FactorAt(0, 1e6), 1.0);
  EXPECT_DOUBLE_EQ(sized.FactorAt(2, 0), 1.0);
}

TEST(DriftScheduleTest, StepEventAppliesFromItsStart) {
  DriftSchedule schedule(
      2, {{/*resource=*/0, /*at_us=*/10.0, /*ramp_us=*/0, /*factor=*/1.2,
           DriftScope::kAll}});
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 9.999), 1.0);
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 10.0), 1.2);
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 1e9), 1.2);
  // The other resource is untouched.
  EXPECT_DOUBLE_EQ(schedule.FactorAt(1, 1e9), 1.0);
}

TEST(DriftScheduleTest, RampInterpolatesLinearly) {
  DriftSchedule schedule(
      1, {{0, /*at_us=*/100.0, /*ramp_us=*/100.0, /*factor=*/1.5,
           DriftScope::kAll}});
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 100.0), 1.0);   // ramp start
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 150.0), 1.25);  // halfway
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 200.0), 1.5);   // full effect
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 1e6), 1.5);
}

TEST(DriftScheduleTest, ScopedEventsDiluteByMemoryShare) {
  DriftSchedule memory(
      1, {{0, 0.0, 0.0, 1.4, DriftScope::kMemoryBound}});
  // A fully memory-bound workload feels the whole factor; a fully
  // compute-bound one feels none of it.
  EXPECT_DOUBLE_EQ(memory.FactorAt(0, 1.0, /*memory_share=*/1.0), 1.4);
  EXPECT_DOUBLE_EQ(memory.FactorAt(0, 1.0, /*memory_share=*/0.0), 1.0);
  EXPECT_DOUBLE_EQ(memory.FactorAt(0, 1.0, /*memory_share=*/0.5), 1.2);

  DriftSchedule compute(
      1, {{0, 0.0, 0.0, 1.4, DriftScope::kComputeBound}});
  EXPECT_DOUBLE_EQ(compute.FactorAt(0, 1.0, /*memory_share=*/1.0), 1.0);
  EXPECT_DOUBLE_EQ(compute.FactorAt(0, 1.0, /*memory_share=*/0.0), 1.4);
}

TEST(DriftScheduleTest, EventsComposeMultiplicatively) {
  DriftSchedule schedule(
      1, {{0, 0.0, 0.0, 1.2, DriftScope::kAll},
          {0, 10.0, 0.0, 1.5, DriftScope::kAll}});
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 5.0), 1.2);
  EXPECT_DOUBLE_EQ(schedule.FactorAt(0, 10.0), 1.2 * 1.5);
}

TEST(DriftScheduleTest, SeededGenerationIsBitIdentical) {
  DriftScheduleConfig config;
  config.rate_per_s = 2;
  config.seed = 42;
  const double horizon_us = 10e6;
  DriftSchedule a(3, horizon_us, config);
  DriftSchedule b(3, horizon_us, config);
  ASSERT_FALSE(a.empty());
  for (std::size_t r = 0; r < 3; ++r) {
    const auto& ea = a.Events(r);
    const auto& eb = b.Events(r);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].at_us, eb[i].at_us);
      EXPECT_EQ(ea[i].factor, eb[i].factor);
      EXPECT_EQ(ea[i].scope, eb[i].scope);
    }
  }
}

TEST(DriftScheduleTest, GeneratedStreamsAreIndependentOfPoolSize) {
  DriftScheduleConfig config;
  config.rate_per_s = 2;
  config.seed = 7;
  DriftSchedule small(1, 10e6, config);
  DriftSchedule large(5, 10e6, config);
  const auto& a = small.Events(0);
  const auto& b = large.Events(0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_us, b[i].at_us);
    EXPECT_EQ(a[i].factor, b[i].factor);
  }
}

TEST(DriftScheduleDeathTest, ExplicitEventValidation) {
  // Out-of-range resource, non-positive factor, negative time: all
  // programmer errors.
  EXPECT_DEATH(DriftSchedule(1, {{/*resource=*/3, 0.0, 0.0, 1.1,
                                  DriftScope::kAll}}),
               "check failed");
  EXPECT_DEATH(DriftSchedule(1, {{0, 0.0, 0.0, 0.0, DriftScope::kAll}}),
               "check failed");
  EXPECT_DEATH(DriftSchedule(1, {{0, -1.0, 0.0, 1.1, DriftScope::kAll}}),
               "check failed");
}

}  // namespace
}  // namespace gpuperf::gpuexec
