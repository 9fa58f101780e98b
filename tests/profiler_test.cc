#include "gpuexec/profiler.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dataset/builder.h"
#include "dnn/flops.h"
#include "dnn/memory.h"
#include "gpuexec/lowering.h"
#include "gpuexec/training.h"
#include "obs/metrics_registry.h"
#include "zoo/zoo.h"

namespace gpuperf::gpuexec {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  HardwareOracle oracle_;
  Profiler profiler_{oracle_};
  dnn::Network net_ = zoo::BuildByName("resnet18");
  const GpuSpec& a100_ = GpuByName("A100");
};

TEST_F(ProfilerTest, TraceMatchesLowering) {
  NetworkProfile profile = profiler_.Profile(net_, a100_, 32);
  auto lowered = LowerNetwork(net_, 32);
  std::size_t launches = 0;
  for (const auto& layer : lowered) launches += layer.size();
  EXPECT_EQ(profile.kernels.size(), launches);
  // Kernel names and layer indices line up one-to-one with the lowering.
  std::size_t i = 0;
  for (std::size_t layer = 0; layer < lowered.size(); ++layer) {
    for (const KernelLaunch& launch : lowered[layer]) {
      EXPECT_EQ(profile.kernels[i].kernel_name, launch.name);
      EXPECT_EQ(profile.kernels[i].layer_index, static_cast<int>(layer));
      ++i;
    }
  }
}

TEST_F(ProfilerTest, MetadataIsFilledIn) {
  NetworkProfile profile = profiler_.Profile(net_, a100_, 16);
  EXPECT_EQ(profile.network_name, "resnet18");
  EXPECT_EQ(profile.network_family, "ResNet");
  EXPECT_EQ(profile.gpu_name, "A100");
  EXPECT_EQ(profile.batch, 16);
  EXPECT_EQ(profile.total_flops, dnn::NetworkFlops(net_, 16));
}

TEST_F(ProfilerTest, BusyTimeIsSumOfKernelTimes) {
  NetworkProfile profile = profiler_.Profile(net_, a100_, 32);
  double sum = 0;
  for (const KernelRecord& record : profile.kernels) sum += record.time_us;
  EXPECT_NEAR(profile.gpu_busy_us, sum, 1e-6 * sum);
}

TEST_F(ProfilerTest, LayerTimesSumToBusy) {
  NetworkProfile profile = profiler_.Profile(net_, a100_, 32);
  std::vector<double> layer_times =
      profile.LayerTimesUs(net_.layers().size());
  double sum = 0;
  for (double t : layer_times) sum += t;
  EXPECT_NEAR(sum, profile.gpu_busy_us, 1e-6 * sum);
}

TEST_F(ProfilerTest, E2eWithinWallJitterOfBusy) {
  // e2e = timeline end (>= busy) times a small wall factor; it can be a
  // few percent either side of busy but never wildly below it.
  NetworkProfile profile = profiler_.Profile(net_, a100_, 256);
  EXPECT_GT(profile.e2e_time_us, 0.75 * profile.gpu_busy_us);
  EXPECT_LT(profile.e2e_time_us, 1.5 * profile.gpu_busy_us);
}

TEST_F(ProfilerTest, ProfileIsDeterministic) {
  NetworkProfile a = profiler_.Profile(net_, a100_, 32);
  NetworkProfile b = profiler_.Profile(net_, a100_, 32);
  EXPECT_DOUBLE_EQ(a.e2e_time_us, b.e2e_time_us);
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.kernels[i].time_us, b.kernels[i].time_us);
  }
}

TEST_F(ProfilerTest, MeasureE2eAgreesWithProfile) {
  // Bit for bit: both run the one replay, MeasureE2eUs only skips the
  // records and the first batch's timeline.
  const GpuSpec titan_1344 = GpuByName("TITAN RTX").WithBandwidth(1344);
  const struct {
    const GpuSpec* gpu;
    Workload workload;
  } kCases[] = {{&a100_, Workload::kInference},
                {&a100_, Workload::kTraining},
                {&titan_1344, Workload::kInference}};
  for (const auto& c : kCases) {
    const NetworkProfile profile = profiler_.Profile(net_, *c.gpu, 64,
                                                     c.workload);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(
            profiler_.MeasureE2eUs(net_, *c.gpu, 64, c.workload)),
        std::bit_cast<std::uint64_t>(profile.e2e_time_us))
        << c.gpu->name << " workload " << static_cast<int>(c.workload);
  }
}

TEST_F(ProfilerTest, SmallBatchIsLaunchBound) {
  // At batch 1 the CPU issue rate dominates: e2e must clearly exceed
  // what linear scaling from a saturated batch would give (O1's
  // small-FLOPs deviation in Figure 3).
  const double at_1 = profiler_.MeasureE2eUs(net_, a100_, 1);
  const double at_256 = profiler_.MeasureE2eUs(net_, a100_, 256);
  EXPECT_GT(at_1, at_256 / 256 * 2);
}

TEST_F(ProfilerTest, MoreMeasuredBatchesReducesKernelVariance) {
  // Averaging over more batches tightens each kernel's time estimate
  // (the paper measures batches 21..50 for this reason).
  OracleConfig noisy;
  noisy.measurement_sigma = 0.2;
  HardwareOracle oracle(noisy);
  auto mean_abs_error = [&](int reps) {
    Profiler profiler(oracle, reps);
    NetworkProfile profile = profiler.Profile(net_, a100_, 64);
    auto lowered = LowerNetwork(net_, 64);
    double total = 0;
    int count = 0;
    std::size_t i = 0;
    for (const auto& layer : lowered) {
      for (const KernelLaunch& launch : layer) {
        const double expected = oracle.ExpectedKernelTimeUs(launch, a100_);
        total += std::abs(profile.kernels[i].time_us - expected) / expected;
        ++count;
        ++i;
      }
    }
    return total / count;
  };
  EXPECT_LT(mean_abs_error(100), mean_abs_error(2));
}

TEST_F(ProfilerTest, EfficiencyReportIsPositiveAndBelowOne) {
  NetworkProfile profile = profiler_.Profile(net_, a100_, 256);
  EfficiencyReport report = ComputeEfficiency(net_, profile, a100_);
  EXPECT_GT(report.bandwidth_efficiency, 0.0);
  EXPECT_LT(report.bandwidth_efficiency, 1.0);
  EXPECT_GT(report.compute_efficiency, 0.0);
  EXPECT_LT(report.compute_efficiency, 1.0);
}

TEST_F(ProfilerTest, FasterGpuRunsFaster) {
  const double on_a100 = profiler_.MeasureE2eUs(net_, a100_, 256);
  const double on_p620 =
      profiler_.MeasureE2eUs(net_, GpuByName("Quadro P620"), 256);
  EXPECT_GT(on_p620, 3 * on_a100);
}

/** Folds the bit pattern of `value` into `digest`. */
std::uint64_t Fold(std::uint64_t digest, double value) {
  return HashCombine(digest, std::bit_cast<std::uint64_t>(value));
}

/**
 * Order-sensitive digest of every timing a profile reports: the e2e
 * time, then each kernel's averaged duration and first-batch timeline.
 */
std::uint64_t TimingDigest(const NetworkProfile& profile) {
  std::uint64_t digest = Fold(0, profile.e2e_time_us);
  for (const KernelRecord& record : profile.kernels) {
    digest = Fold(digest, record.time_us);
    digest = Fold(digest, record.start_us);
    digest = Fold(digest, record.end_us);
  }
  return digest;
}

/** One pinned row: a sweep of networks on one GPU at one batch. */
struct GoldenRow {
  const char* label;
  std::uint64_t digest;  // TimingDigest folded over the sweep, in order
  double e2e_sum_us;     // sum of the sweep's e2e times
};

/** Digest and e2e sum of `networks` profiled on `gpu`, in order. */
GoldenRow Sweep(const Profiler& profiler,
                const std::vector<dnn::Network>& networks,
                const GpuSpec& gpu, std::int64_t batch, Workload workload) {
  GoldenRow row{"", 0, 0.0};
  for (const dnn::Network& network : networks) {
    const NetworkProfile profile =
        profiler.Profile(network, gpu, batch, workload);
    row.digest = HashCombine(row.digest, TimingDigest(profile));
    row.e2e_sum_us += profile.e2e_time_us;
  }
  return row;
}

TEST_F(ProfilerTest, MatchesParentGolden) {
  // Pinned from the unmemoized profiler, which evaluated the oracle
  // formula (and drew every keyed factor) once per launch: the expected-
  // time memo and the per-GPU factor tables must reproduce those times
  // bit for bit, including on a bandwidth-modified spec that keeps its
  // stock name (case study 1) and on a training step.
  static constexpr GoldenRow kGolden[] = {
      {"A100", 0xb1949947246bec59ULL, 0x1.a3505ce021091p+23},
      {"A40", 0x56d01f10c7b7cdc1ULL, 0x1.6784c4279d917p+24},
      {"GTX 1080 Ti", 0x13b2a0adfbc5edb7ULL, 0x1.e455cc65221a1p+24},
      {"Quadro P620", 0x4972883797673d63ULL, 0x1.61ddaadaa7995p+27},
      {"RTX A5000", 0x5102456b27e08dc3ULL, 0x1.4ef251c78a6b9p+24},
      {"TITAN RTX", 0x53d77f8b2290a664ULL, 0x1.5c536c49b3512p+24},
      {"V100", 0x6f8e582428ecce8bULL, 0x1.15a4d6c336d34p+24},
      {"V100 training", 0x5ceac1f44e01aa17ULL, 0x1.148794b5d8769p+20},
      {"TITAN RTX @1344", 0xb6457e78cae0861eULL, 0x1.cebe4cdced8f2p+23},
  };
  const HardwareOracle oracle;
  const Profiler profiler(oracle);
  const std::vector<dnn::Network> networks = zoo::SmallZoo(16);
  const std::vector<dnn::Network> training(networks.begin(),
                                           networks.begin() + 8);
  std::vector<GoldenRow> rows;
  for (const GpuSpec& gpu : AllGpus()) {
    rows.push_back(Sweep(profiler, networks, gpu, 256, Workload::kInference));
  }
  rows.push_back(Sweep(profiler, training, GpuByName("V100"), 32,
                       Workload::kTraining));
  rows.push_back(Sweep(profiler, networks,
                       GpuByName("TITAN RTX").WithBandwidth(1344), 256,
                       Workload::kInference));
  ASSERT_EQ(rows.size(), std::size(kGolden));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].digest, kGolden[i].digest)
        << Format("{\"%s\", 0x%llxULL, %a},", kGolden[i].label,
                  static_cast<unsigned long long>(rows[i].digest),
                  rows[i].e2e_sum_us);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rows[i].e2e_sum_us),
              std::bit_cast<std::uint64_t>(kGolden[i].e2e_sum_us))
        << kGolden[i].label;
  }
}

/** Bitwise equality of two profiles' identity, kernels and timings. */
void ExpectSameProfile(const NetworkProfile& a, const NetworkProfile& b) {
  EXPECT_EQ(a.network_name, b.network_name);
  EXPECT_EQ(a.gpu_name, b.gpu_name);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.total_flops, b.total_flops);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.gpu_busy_us),
            std::bit_cast<std::uint64_t>(b.gpu_busy_us));
  EXPECT_EQ(TimingDigest(a), TimingDigest(b))
      << a.network_name << " on " << a.gpu_name;
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_EQ(a.kernels[i].kernel_name, b.kernels[i].kernel_name);
    EXPECT_EQ(a.kernels[i].layer_index, b.kernels[i].layer_index);
  }
}

/** One Profile call of the shared-profiler sweep. */
struct SweepItem {
  const dnn::Network* network;
  GpuSpec gpu;
  Workload workload;
};

/**
 * The same networks on a stock GPU, its bandwidth-modified twin (same
 * name, different spec) and a MIG slice: a memo keyed on anything less
 * than the whole GpuSpec hands one of them another's times.
 */
std::vector<SweepItem> SharedSweep(const std::vector<dnn::Network>& networks) {
  const GpuSpec& titan = GpuByName("TITAN RTX");
  std::vector<SweepItem> items;
  for (const GpuSpec& gpu :
       {titan, titan.WithBandwidth(1344), titan.MigSlice(3, 7)}) {
    for (const dnn::Network& network : networks) {
      items.push_back({&network, gpu, Workload::kInference});
    }
    items.push_back({&networks.front(), gpu, Workload::kTraining});
  }
  return items;
}

NetworkProfile FreshProfile(const HardwareOracle& oracle,
                            const SweepItem& item) {
  return Profiler(oracle).Profile(*item.network, item.gpu, 64, item.workload);
}

TEST_F(ProfilerTest, SharedProfilerMatchesFreshProfilers) {
  const HardwareOracle oracle;
  const Profiler shared(oracle);
  const Profiler copy = shared;  // copies share one memo
  const std::vector<dnn::Network> networks = zoo::SmallZoo(64);
  const std::vector<SweepItem> items = SharedSweep(networks);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      const SweepItem& item = items[i];
      const Profiler& profiler = i % 2 == 0 ? shared : copy;
      ExpectSameProfile(
          profiler.Profile(*item.network, item.gpu, 64, item.workload),
          FreshProfile(oracle, item));
    }
  }
}

TEST_F(ProfilerTest, ConcurrentSharedProfilerMatchesFreshProfilers) {
  const HardwareOracle oracle;
  const Profiler shared(oracle);
  const std::vector<dnn::Network> networks = zoo::SmallZoo(64);
  const std::vector<SweepItem> items = SharedSweep(networks);
  std::vector<NetworkProfile> expected;
  for (const SweepItem& item : items) {
    expected.push_back(FreshProfile(oracle, item));
  }
  ThreadPool pool(4);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<NetworkProfile> got(items.size());
    pool.ParallelFor(items.size(), [&](std::size_t i) {
      got[i] = shared.Profile(*items[i].network, items[i].gpu, 64,
                              items[i].workload);
    });
    for (std::size_t i = 0; i < items.size(); ++i) {
      ExpectSameProfile(got[i], expected[i]);
    }
  }
}

// The lowering table, checked through Profiler::Lower.
class ProfilerLowerTest : public ::testing::Test {
 protected:
  HardwareOracle oracle_;
  Profiler profiler_{oracle_};
};

void ExpectLaunchesEqual(const std::vector<KernelLaunch>& a,
                         const std::vector<KernelLaunch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].driver, b[i].driver);
    EXPECT_EQ(a[i].flops, b[i].flops);
    EXPECT_EQ(a[i].bytes_in, b[i].bytes_in);
    EXPECT_EQ(a[i].bytes_out, b[i].bytes_out);
    EXPECT_EQ(a[i].blocks, b[i].blocks);
    EXPECT_EQ(a[i].layer_flops, b[i].layer_flops);
    EXPECT_EQ(a[i].input_elems, b[i].input_elems);
    EXPECT_EQ(a[i].output_elems, b[i].output_elems);
  }
}

TEST_F(ProfilerLowerTest, MatchesUncachedLowering) {
  const dnn::Network net = zoo::BuildByName("resnet18");
  const LoweredNetwork lowered = profiler_.Lower(net, 64);
  ASSERT_EQ(lowered.layers.size(), net.layers().size());
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    ExpectLaunchesEqual(*lowered.layers[i], LowerLayer(net.layers()[i], 64));
  }
}

TEST_F(ProfilerLowerTest, TrainingEntriesAppendBackwardKernels) {
  const dnn::Network net = zoo::BuildByName("alexnet");
  const LoweredNetwork lowered =
      profiler_.Lower(net, 32, Workload::kTraining);
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    std::vector<KernelLaunch> expected = LowerLayer(net.layers()[i], 32);
    const std::vector<KernelLaunch> backward =
        LowerLayerBackward(net.layers()[i], 32);
    expected.insert(expected.end(), backward.begin(), backward.end());
    ExpectLaunchesEqual(*lowered.layers[i], expected);
  }
}

TEST_F(ProfilerLowerTest, RepeatedLayersShareOneId) {
  const dnn::Network net = zoo::BuildByName("resnet18");
  const LoweredNetwork first = profiler_.Lower(net, 64);
  const std::size_t count = profiler_.LoweredListCount();
  std::set<std::uint32_t> distinct(first.ids.begin(), first.ids.end());
  EXPECT_EQ(count, distinct.size());
  EXPECT_LT(count, net.layers().size());  // resnet repeats its blocks
  for (std::size_t i = 0; i < first.ids.size(); ++i) {
    EXPECT_LT(first.ids[i], count);  // dense
    for (std::size_t j = 0; j < i; ++j) {
      if (first.ids[i] == first.ids[j]) {
        EXPECT_EQ(first.layers[i], first.layers[j]);  // aliased, not copied
      }
    }
  }
  const LoweredNetwork second = profiler_.Lower(net, 64);
  EXPECT_EQ(second.ids, first.ids);
  EXPECT_EQ(second.layers, first.layers);
  EXPECT_EQ(profiler_.LoweredListCount(), count);
}

TEST_F(ProfilerLowerTest, DistinctBatchesAndWorkloadsAreDistinctIds) {
  const dnn::Network net = zoo::BuildByName("alexnet");
  const std::uint32_t a = profiler_.Lower(net, 32).ids[0];
  const std::uint32_t b = profiler_.Lower(net, 64).ids[0];
  const std::uint32_t c = profiler_.Lower(net, 32, Workload::kTraining).ids[0];
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST_F(ProfilerLowerTest, NetworkLoweringMatchesWorkloadLowering) {
  const dnn::Network net = zoo::BuildByName("vgg11");
  const auto expected = LowerNetworkWorkload(net, 16, Workload::kTraining);
  const LoweredNetwork lowered =
      profiler_.Lower(net, 16, Workload::kTraining);
  ASSERT_EQ(lowered.layers.size(), expected.size());
  std::vector<std::size_t> flat_base;
  std::size_t base = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ExpectLaunchesEqual(*lowered.layers[i], expected[i]);
    flat_base.push_back(base);
    base += expected[i].size();
  }
  // The timeline is the training step's order over the flat launches.
  std::vector<std::size_t> order;
  for (const auto& [layer, k] : TrainingExecutionOrder(net, expected)) {
    order.push_back(flat_base[layer] + k);
  }
  EXPECT_EQ(lowered.timeline, order);
}

TEST_F(ProfilerLowerTest, ConcurrentLookupsAgree) {
  const dnn::Network net = zoo::BuildByName("resnet18");
  const auto expected = LowerNetworkWorkload(net, 8, Workload::kInference);
  std::vector<std::vector<std::uint32_t>> ids(32);
  ThreadPool pool(4);
  pool.ParallelFor(ids.size(), [&](std::size_t i) {
    const LoweredNetwork lowered = profiler_.Lower(net, 8);
    ASSERT_EQ(lowered.layers.size(), expected.size());
    for (std::size_t l = 0; l < expected.size(); ++l) {
      ExpectLaunchesEqual(*lowered.layers[l], expected[l]);
    }
    ids[i] = lowered.ids;
  });
  for (const std::vector<std::uint32_t>& got : ids) EXPECT_EQ(got, ids[0]);
}

TEST_F(ProfilerLowerTest, CopiesShareTheTable) {
  const dnn::Network net = zoo::BuildByName("resnet18");
  const LoweredNetwork source = profiler_.Lower(net, 32);
  const Profiler copy = profiler_;
  const LoweredNetwork copied = copy.Lower(net, 32);
  EXPECT_EQ(copied.ids, source.ids);
  EXPECT_EQ(copied.layers, source.layers);
  EXPECT_EQ(copy.LoweredListCount(), profiler_.LoweredListCount());
  EXPECT_EQ(Profiler(oracle_).LoweredListCount(), 0u);  // no global state
}

// The gpuperf_lowering_cache_{hits,misses} counters tally one hit or miss
// per layer lookup: over a build, the misses are the table's distinct
// lists and hits + misses its (network, layer) lowerings.
TEST(ProfilerLowerCounterTest, BuildCountsOneLookupPerLayer) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& hits = registry.counter("gpuperf_lowering_cache_hits");
  obs::Counter& misses = registry.counter("gpuperf_lowering_cache_misses");
  const std::vector<dnn::Network> networks = zoo::SmallZoo(16);
  dataset::BuildOptions options;
  options.jobs = 1;
  const std::uint64_t hits0 = hits.Value(), misses0 = misses.Value();
  const dataset::Dataset data = dataset::BuildDataset(networks, options);
  const std::uint64_t build_hits = hits.Value() - hits0;
  const std::uint64_t build_misses = misses.Value() - misses0;
  ASSERT_FALSE(data.kernel_rows().empty());

  // The build lowers each network that fits on some GPU once.
  const Profiler reference{HardwareOracle(options.oracle)};
  std::uint64_t lowerings = 0;
  for (const dnn::Network& network : networks) {
    const std::int64_t footprint =
        dnn::InferenceFootprintBytes(network, options.batch);
    bool fits = false;
    for (const GpuSpec& gpu : AllGpus()) {
      fits = fits || dnn::FitsInMemory(footprint, gpu.memory_gb);
    }
    if (!fits) continue;
    reference.Lower(network, options.batch);
    lowerings += network.layers().size();
  }
  EXPECT_EQ(build_misses, reference.LoweredListCount());
  EXPECT_EQ(build_hits + build_misses, lowerings);
}

TEST(ProfilerDeathTest, ZeroMeasuredBatchesIsError) {
  HardwareOracle oracle;
  EXPECT_DEATH(Profiler(oracle, 0), "check failed");
}

TEST(ProfilerDeathTest, ReplayingAnotherProfilersLoweringIsError) {
  const HardwareOracle oracle;
  const Profiler lowering(oracle), replaying(oracle);
  const dnn::Network net = zoo::BuildByName("alexnet");
  EXPECT_DEATH(replaying.ReplayLowered(net, lowering.Lower(net, 8),
                                       GpuByName("A100")),
               "another Profiler");
}

}  // namespace
}  // namespace gpuperf::gpuexec
