#include "dataset/dataset.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "dataset/builder.h"
#include "dnn/layer.h"
#include "test_support.h"
#include "zoo/zoo.h"

namespace gpuperf::dataset {
namespace {

TEST(StringPoolTest, InternsAndFinds) {
  StringPool pool;
  const int a = pool.Intern("alpha");
  const int b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Find("beta"), b);
  EXPECT_EQ(pool.Find("gamma"), -1);
  EXPECT_EQ(pool.Get(a), "alpha");
  EXPECT_EQ(pool.size(), 2);
}

TEST(StringPoolDeathTest, OutOfRangeGetAborts) {
  StringPool pool;
  EXPECT_DEATH(pool.Get(0), "check failed");
}

TEST(BuilderTest, RowCountsMatchCampaign) {
  const auto& campaign = testing::SmallCampaign::Get();
  // 4 GPUs x N networks, minus the combos cleaned for exceeding device
  // memory (the paper's out-of-memory data cleaning).
  EXPECT_LE(campaign.data().network_rows().size(),
            4 * campaign.networks().size());
  EXPECT_GE(campaign.data().network_rows().size(),
            3 * campaign.networks().size());
  EXPECT_GT(campaign.data().kernel_rows().size(), 10000u);
  EXPECT_EQ(campaign.data().gpus().size(), 4);
}

TEST(BuilderTest, OomCombosAreCleaned) {
  // An 11 GB GTX 1080 Ti cannot hold the biggest BS-512 networks; the
  // builder must skip them, and must keep everything when the check is
  // disabled.
  const auto& campaign = testing::SmallCampaign::Get();
  const int gtx = campaign.data().gpus().Find("GTX 1080 Ti");
  const int a100 = campaign.data().gpus().Find("A100");
  ASSERT_GE(gtx, 0);
  std::size_t gtx_rows = 0, a100_rows = 0;
  for (const NetworkRow& row : campaign.data().network_rows()) {
    if (row.gpu_id == gtx) ++gtx_rows;
    if (row.gpu_id == a100) ++a100_rows;
  }
  EXPECT_LT(gtx_rows, a100_rows);

  BuildOptions keep_all;
  keep_all.gpu_names = {"GTX 1080 Ti"};
  keep_all.skip_oom = false;
  Dataset full = BuildDataset(zoo::SmallZoo(64), keep_all);
  EXPECT_EQ(full.network_rows().size(), zoo::SmallZoo(64).size());
}

TEST(BuilderTest, KernelRowFeaturesArePopulated) {
  const auto& campaign = testing::SmallCampaign::Get();
  for (const KernelRow& row : campaign.data().kernel_rows()) {
    EXPECT_GT(row.time_us, 0.0);
    EXPECT_GT(row.input_elems, 0);
    EXPECT_GT(row.output_elems, 0);
    EXPECT_EQ(row.batch, 512);
    EXPECT_GE(row.layer_flops, 0);
  }
}

TEST(KernelRowTest, DriverValueSelectsFeature) {
  KernelRow row;
  row.input_elems = 10;
  row.layer_flops = 20;
  row.output_elems = 30;
  EXPECT_EQ(row.DriverValue(gpuexec::CostDriver::kInput), 10);
  EXPECT_EQ(row.DriverValue(gpuexec::CostDriver::kOperation), 20);
  EXPECT_EQ(row.DriverValue(gpuexec::CostDriver::kOutput), 30);
}

TEST(CsvRoundTripTest, SaveLoadPreservesEverything) {
  // A small fresh dataset for speed.
  BuildOptions options;
  options.gpu_names = {"V100"};
  options.batch = 64;
  Dataset original = BuildDataset(zoo::SmallZoo(64), options);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "gpuperf_ds_test").string();
  std::filesystem::create_directories(dir);
  original.SaveCsv(dir);
  Dataset loaded = Dataset::LoadCsv(dir);

  ASSERT_EQ(loaded.network_rows().size(), original.network_rows().size());
  ASSERT_EQ(loaded.kernel_rows().size(), original.kernel_rows().size());
  for (std::size_t i = 0; i < original.kernel_rows().size(); ++i) {
    const KernelRow& a = original.kernel_rows()[i];
    const KernelRow& b = loaded.kernel_rows()[i];
    EXPECT_EQ(original.kernels().Get(a.kernel_id),
              loaded.kernels().Get(b.kernel_id));
    EXPECT_EQ(original.signatures().Get(a.signature_id),
              loaded.signatures().Get(b.signature_id));
    EXPECT_EQ(a.layer_kind, b.layer_kind);
    EXPECT_EQ(a.true_driver, b.true_driver);
    EXPECT_EQ(a.family, b.family);
    EXPECT_NEAR(a.time_us, b.time_us, 1e-5);
    EXPECT_EQ(a.layer_flops, b.layer_flops);
  }
  for (std::size_t i = 0; i < original.network_rows().size(); ++i) {
    const NetworkRow& a = original.network_rows()[i];
    const NetworkRow& b = loaded.network_rows()[i];
    EXPECT_EQ(original.networks().Get(a.network_id),
              loaded.networks().Get(b.network_id));
    EXPECT_NEAR(a.e2e_us, b.e2e_us, 1e-5);
    EXPECT_EQ(a.total_flops, b.total_flops);
  }
  std::filesystem::remove_all(dir);
}

class SplitFractionTest : public ::testing::TestWithParam<double> {};

TEST_P(SplitFractionTest, PartitionIsCleanAndSized) {
  const double fraction = GetParam();
  const auto& campaign = testing::SmallCampaign::Get();
  NetworkSplit split = SplitByNetwork(campaign.data(), fraction, 7);
  const int total = campaign.data().networks().size();
  EXPECT_EQ(split.train_ids.size() + split.test_ids.size(),
            static_cast<std::size_t>(total));
  // No overlap.
  std::set<int> test_set(split.test_ids.begin(), split.test_ids.end());
  for (int id : split.train_ids) EXPECT_FALSE(test_set.count(id));
  // Expected size within one.
  EXPECT_NEAR(static_cast<double>(split.test_ids.size()),
              std::max(1.0, fraction * total), 1.0);
  // IsTest agrees with membership.
  for (int id : split.test_ids) EXPECT_TRUE(split.IsTest(id));
  for (int id : split.train_ids) EXPECT_FALSE(split.IsTest(id));
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitFractionTest,
                         ::testing::Values(0.05, 0.15, 0.3, 0.5));

TEST(SplitTest, DeterministicPerSeedAndVariesAcrossSeeds) {
  const auto& campaign = testing::SmallCampaign::Get();
  NetworkSplit a = SplitByNetwork(campaign.data(), 0.15, 1);
  NetworkSplit b = SplitByNetwork(campaign.data(), 0.15, 1);
  NetworkSplit c = SplitByNetwork(campaign.data(), 0.15, 2);
  EXPECT_EQ(a.test_ids, b.test_ids);
  EXPECT_NE(a.test_ids, c.test_ids);
}

TEST(SplitDeathTest, BadFractionAborts) {
  const auto& campaign = testing::SmallCampaign::Get();
  EXPECT_DEATH(SplitByNetwork(campaign.data(), 0.0, 1), "check failed");
  EXPECT_DEATH(SplitByNetwork(campaign.data(), 1.0, 1), "check failed");
}

TEST(BuilderTest, TraceOrderGroupsLayerKernels) {
  // Mapping-table construction relies on consecutive rows per layer.
  const auto& campaign = testing::SmallCampaign::Get();
  const auto& rows = campaign.data().kernel_rows();
  std::set<std::tuple<int, int, int>> closed;
  std::tuple<int, int, int> current{-1, -1, -1};
  for (const KernelRow& row : rows) {
    std::tuple<int, int, int> key{row.gpu_id, row.network_id,
                                  row.layer_index};
    if (key != current) {
      EXPECT_FALSE(closed.count(key)) << "layer group re-opened";
      closed.insert(current);
      current = key;
    }
  }
}

/** Order-sensitive digests of a dataset's pools and rows. */
struct Digests {
  std::uint64_t gpus = 0;
  std::uint64_t networks = 0;
  std::uint64_t kernels = 0;
  std::uint64_t signatures = 0;
  std::uint64_t kernel_rows = 0;
  std::uint64_t network_rows = 0;
};

std::uint64_t Fold(std::uint64_t digest, std::int64_t value) {
  return HashCombine(digest, static_cast<std::uint64_t>(value));
}

std::uint64_t Fold(std::uint64_t digest, double value) {
  return HashCombine(digest, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t PoolDigest(const StringPool& pool) {
  std::uint64_t digest = Fold(0, std::int64_t{pool.size()});
  for (int id = 0; id < pool.size(); ++id) {
    digest = HashCombine(digest, StableHash(pool.Get(id)));
  }
  return digest;
}

Digests Digest(const Dataset& data) {
  Digests d;
  d.gpus = PoolDigest(data.gpus());
  d.networks = PoolDigest(data.networks());
  d.kernels = PoolDigest(data.kernels());
  d.signatures = PoolDigest(data.signatures());
  d.kernel_rows =
      Fold(0, static_cast<std::int64_t>(data.kernel_rows().size()));
  for (const KernelRow& row : data.kernel_rows()) {
    std::uint64_t& k = d.kernel_rows;
    k = Fold(k, std::int64_t{row.gpu_id});
    k = Fold(k, std::int64_t{row.network_id});
    k = Fold(k, std::int64_t{row.kernel_id});
    k = Fold(k, std::int64_t{row.signature_id});
    k = Fold(k, std::int64_t{row.layer_index});
    k = Fold(k, static_cast<std::int64_t>(row.layer_kind));
    k = Fold(k, static_cast<std::int64_t>(row.true_driver));
    k = Fold(k, static_cast<std::int64_t>(row.family));
    k = Fold(k, row.batch);
    k = Fold(k, row.time_us);
    k = Fold(k, row.layer_flops);
    k = Fold(k, row.input_elems);
    k = Fold(k, row.output_elems);
  }
  d.network_rows =
      Fold(0, static_cast<std::int64_t>(data.network_rows().size()));
  for (const NetworkRow& row : data.network_rows()) {
    std::uint64_t& n = d.network_rows;
    n = Fold(n, std::int64_t{row.gpu_id});
    n = Fold(n, std::int64_t{row.network_id});
    n = HashCombine(n, StableHash(row.family));
    n = Fold(n, row.batch);
    n = Fold(n, row.e2e_us);
    n = Fold(n, row.gpu_busy_us);
    n = Fold(n, row.total_flops);
  }
  return d;
}

/** One pinned build. */
struct Golden {
  const char* label;
  Digests digests;
};

void ExpectMatches(const Dataset& data, const Golden& golden) {
  const Digests got = Digest(data);
  const std::string line = Format(
      "{\"%s\", {0x%llxULL, 0x%llxULL, 0x%llxULL, 0x%llxULL, 0x%llxULL, "
      "0x%llxULL}},",
      golden.label, static_cast<unsigned long long>(got.gpus),
      static_cast<unsigned long long>(got.networks),
      static_cast<unsigned long long>(got.kernels),
      static_cast<unsigned long long>(got.signatures),
      static_cast<unsigned long long>(got.kernel_rows),
      static_cast<unsigned long long>(got.network_rows));
  EXPECT_EQ(got.gpus, golden.digests.gpus) << line;
  EXPECT_EQ(got.networks, golden.digests.networks) << line;
  EXPECT_EQ(got.kernels, golden.digests.kernels) << line;
  EXPECT_EQ(got.signatures, golden.digests.signatures) << line;
  EXPECT_EQ(got.kernel_rows, golden.digests.kernel_rows) << line;
  EXPECT_EQ(got.network_rows, golden.digests.network_rows) << line;
}

TEST(BuilderTest, MatchesParentGolden) {
  // Pinned from the builder that profiled each (GPU, network) into a
  // NetworkProfile of KernelRecords and interned every row's kernel name:
  // lowering once per build, the dense replay and per-list interning
  // must reproduce its pools and rows bit for bit.
  static constexpr Golden kGolden[] = {
      {"all GPUs jobs=1",
       {0xccd1fa68096ee697ULL, 0x1554d64927cf6fd7ULL, 0x8240dbe49d295ac7ULL,
        0xf9c79ff016a96067ULL, 0x22c7a8869ffb009bULL, 0x2c4075694d8a943cULL}},
      {"all GPUs jobs=4",
       {0xccd1fa68096ee697ULL, 0x1554d64927cf6fd7ULL, 0x8240dbe49d295ac7ULL,
        0xf9c79ff016a96067ULL, 0x22c7a8869ffb009bULL, 0x2c4075694d8a943cULL}},
      {"V100 training",
       {0x977c10e7554d8e9ULL, 0x7b3991f71ed9d15fULL, 0x3c70532fbf51d57fULL,
        0x943c2c70fd0a8b5ULL, 0x8027207490281e58ULL, 0x4534369604d1969dULL}},
      {"flatten/dropout zoo",
       {0xd4470388e5af6276ULL, 0x4480f38b6bd06fa8ULL, 0xff10616c0c802769ULL,
        0x2019092a18b09acdULL, 0xfebba504ecd082d2ULL, 0x4489033a4d63689ULL}},
  };
  const std::vector<dnn::Network> networks = zoo::SmallZoo(16);

  BuildOptions all_gpus;
  all_gpus.jobs = 1;
  ExpectMatches(BuildDataset(networks, all_gpus), kGolden[0]);
  all_gpus.jobs = 4;
  ExpectMatches(BuildDataset(networks, all_gpus), kGolden[1]);

  BuildOptions training;
  training.gpu_names = {"V100"};
  training.batch = 32;
  training.workload = gpuexec::Workload::kTraining;
  training.jobs = 1;
  ExpectMatches(BuildDataset({networks.begin(), networks.begin() + 12},
                             training),
                kGolden[2]);

  // Flatten and Dropout launch no kernels, so no row ever carries their
  // signatures and they are never interned. The P620 cannot hold every
  // network at batch 512, so the OOM filter skips some of its items.
  std::vector<dnn::Network> classic;
  for (const char* name :
       {"alexnet", "vgg11", "mobilenet_v2", "squeezenet1_0"}) {
    classic.push_back(zoo::BuildByName(name));
  }
  BuildOptions flat;
  flat.gpu_names = {"Quadro P620", "A100"};
  flat.jobs = 2;
  const Dataset data = BuildDataset(classic, flat);
  ExpectMatches(data, kGolden[3]);
  EXPECT_LT(data.network_rows().size(), 2 * classic.size());
  int silent_layers = 0;
  for (const dnn::Network& network : classic) {
    for (const dnn::Layer& layer : network.layers()) {
      if (layer.kind != dnn::LayerKind::kFlatten &&
          layer.kind != dnn::LayerKind::kDropout) {
        continue;
      }
      ++silent_layers;
      EXPECT_EQ(data.signatures().Find(dnn::LayerSignature(layer)), -1)
          << network.name() << " " << layer.name;
    }
  }
  EXPECT_GT(silent_layers, 0);
}

}  // namespace
}  // namespace gpuperf::dataset
