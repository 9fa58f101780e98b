#include "models/kw_model.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "dnn/builder.h"
#include "dnn/layer.h"
#include "gpuexec/lowering.h"
#include "gpuexec/profiler.h"
#include "models/igkw_model.h"
#include "models/lw_model.h"
#include "test_support.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

using testing::SmallCampaign;

class KwModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new KwModel();
    model_->Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static KwModel* model_;
};

KwModel* KwModelTest::model_ = nullptr;

TEST_F(KwModelTest, TrainsForAllCampaignGpus) {
  EXPECT_EQ(model_->TrainedGpus().size(), 4u);
  EXPECT_GT(model_->KernelCount("A100"), 30);
}

TEST_F(KwModelTest, ClusteringReducesModelCount) {
  EXPECT_LE(model_->ClusterCount("A100"), model_->KernelCount("A100"));
}

TEST_F(KwModelTest, MappingTableCoversCampaignLayers) {
  // Every layer of a campaign network resolves to a kernel list or is a
  // genuine no-kernel layer (Flatten/Dropout).
  const dnn::Network& net = SmallCampaign::Get().networks()[0];
  for (const dnn::Layer& layer : net.layers()) {
    const auto names = model_->KernelsForLayer(layer);
    const auto launches = gpuexec::LowerLayer(layer, 512);
    if (launches.empty()) {
      EXPECT_TRUE(names.empty()) << layer.name;
    } else {
      ASSERT_EQ(names.size(), launches.size()) << layer.name;
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], launches[i].name);
      }
    }
  }
}

TEST_F(KwModelTest, DriverClassificationRediscoversGroundTruth) {
  // O5: the R² competition must recover the true driver for most kernels
  // (ties between numerically identical features count as correct).
  const auto& data = SmallCampaign::Get().data();
  int correct = 0, total = 0;
  const auto& kernels = model_->KernelModels("A100");
  for (const dataset::KernelRow& row : data.kernel_rows()) {
    if (data.gpus().Get(row.gpu_id) != "A100") continue;
    auto it = kernels.find(data.kernels().Get(row.kernel_id));
    if (it == kernels.end()) continue;
    ++total;
    if (it->second.driver == row.true_driver ||
        row.DriverValue(it->second.driver) ==
            row.DriverValue(row.true_driver)) {
      ++correct;
    }
    if (total >= 20000) break;  // plenty of evidence
  }
  ASSERT_GT(total, 1000);
  EXPECT_GT(static_cast<double>(correct) / total, 0.7);
}

TEST_F(KwModelTest, InterceptsRespectTheClamp) {
  for (const auto& [name, km] : model_->KernelModels("A100")) {
    EXPECT_GE(km.fit.intercept, 0.0) << name;
  }
}

TEST_F(KwModelTest, HeldOutErrorIsKernelLevelAccurate) {
  const auto& campaign = SmallCampaign::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  gpuexec::Profiler profiler(campaign.oracle());
  std::vector<double> predicted, measured;
  for (const dnn::Network* net : campaign.TestNetworks()) {
    predicted.push_back(model_->PredictUs(*net, a100, 512));
    measured.push_back(profiler.MeasureE2eUs(*net, a100, 512));
  }
  EXPECT_LT(Mape(predicted, measured), 0.15);
}

TEST_F(KwModelTest, UnseenNetworkOfKnownFamilyPredictsWell) {
  // resnet89 is not in the campaign; its layer configs mostly are.
  const auto& campaign = SmallCampaign::Get();
  dnn::Network net = zoo::BuildByName("resnet89");
  gpuexec::Profiler profiler(campaign.oracle());
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const double predicted = model_->PredictUs(net, a100, 512);
  const double measured = profiler.MeasureE2eUs(net, a100, 512);
  EXPECT_LT(RelativeError(predicted, measured), 0.25);
}

TEST_F(KwModelTest, CrossBatchPredictionHolds) {
  // O3: trained at BS 512 only, the model stays accurate at BS 64.
  const auto& campaign = SmallCampaign::Get();
  gpuexec::Profiler profiler(campaign.oracle());
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const dnn::Network& net = campaign.networks()[0];
  const double predicted = model_->PredictUs(net, a100, 64);
  const double measured = profiler.MeasureE2eUs(net, a100, 64);
  EXPECT_LT(RelativeError(predicted, measured), 0.30);
}

// Per-layer predictions and PredictUs are one emitter feeding one fold,
// so the layer sum, taken in layer order, is the network prediction bit
// for bit. The disaggregation, pipeline and multi-GPU benches schedule
// with these per-layer predictions, IGKW's included.
TEST_F(KwModelTest, LayerPredictionsAreNonNegativeAndSumUp) {
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  IgkwModel igkw;
  igkw.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split(),
             {"A100", "A40", "GTX 1080 Ti"});
  const gpuexec::GpuSpec& titan = gpuexec::GpuByName("TITAN RTX");
  const gpuexec::GpuSpec hypothetical = titan.WithBandwidth(1500);
  // An unmapped layer: IGKW predicts it through the nearest training GPU.
  dnn::NetworkBuilder b("exotic", "Test", dnn::Chw(37, 61, 61));
  b.Conv(41, 13, 5, 1);
  int hypothetical_fallback_layers = 0;
  for (const dnn::Network& net : {zoo::BuildByName("googlenet"), b.Build()}) {
    for (std::int64_t batch : {1, 16, 128}) {
      SCOPED_TRACE(net.name() + " batch " + std::to_string(batch));
      double sum = 0;
      for (const dnn::Layer& layer : net.layers()) {
        const double t = model_->PredictLayerUs(layer, "A100", batch);
        EXPECT_GE(t, 0.0) << layer.name;
        sum += t;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
                std::bit_cast<std::uint64_t>(
                    model_->PredictUs(net, a100, batch)));
      for (const gpuexec::GpuSpec* gpu : {&titan, &hypothetical}) {
        double igkw_sum = 0;
        for (const dnn::Layer& layer : net.layers()) {
          const double t = igkw.PredictLayerUs(layer, *gpu, batch);
          EXPECT_GE(t, 0.0) << layer.name;
          igkw_sum += t;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(igkw_sum),
                  std::bit_cast<std::uint64_t>(
                      igkw.PredictUs(net, *gpu, batch)))
            << gpu->name;
      }
    }
    // Fallback layers are the ones rescaled by a bandwidth ratio.
    const PredictionPlan* plan = igkw.PlanFor(net, hypothetical);
    for (std::size_t l = 0; l < plan->layer_count(); ++l) {
      if (plan->layer_scale_b(l) != 1.0) ++hypothetical_fallback_layers;
    }
  }
  EXPECT_GT(hypothetical_fallback_layers, 0);
}

TEST_F(KwModelTest, UnknownLayerFallsBackGracefully) {
  // An exotic layer configuration not in any campaign network.
  dnn::NetworkBuilder b("exotic", "Test", dnn::Chw(37, 61, 61));
  b.Conv(41, 3, 1, 1);
  dnn::Network net = b.Build();
  const double t =
      model_->PredictLayerUs(net.layers()[0], "A100", 64);
  EXPECT_GT(t, 0.0);
}

TEST(KwOptionsTest, ClassificationOffForcesOperationDriver) {
  KwOptions options;
  options.classify_drivers = false;
  KwModel model(options);
  model.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());
  for (const auto& [name, km] : model.KernelModels("A100")) {
    EXPECT_EQ(km.driver, gpuexec::CostDriver::kOperation) << name;
  }
}

TEST(KwOptionsTest, ClusteringOffKeepsPerKernelModels) {
  KwOptions options;
  options.cluster = false;
  KwModel model(options);
  model.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());
  EXPECT_EQ(model.ClusterCount("A100"), model.KernelCount("A100"));
}

TEST(KwModelDeathTest, UntrainedGpuIsFatal) {
  KwModel model;
  model.Train(SmallCampaign::Get().data(), SmallCampaign::Get().split());
  dnn::Network net = zoo::BuildByName("alexnet");
  EXPECT_EXIT(model.PredictUs(net, gpuexec::GpuByName("V100"), 64),
              ::testing::ExitedWithCode(1), "not trained");
}

/** Folds the bit pattern of `value` into `digest`. */
std::uint64_t Fold(std::uint64_t digest, double value) {
  return HashCombine(digest, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t Fold(std::uint64_t digest, const std::string& text) {
  return HashCombine(digest, StableHash(text));
}

std::uint64_t Fold(std::uint64_t digest, const regression::LinearFit& fit) {
  digest = Fold(Fold(digest, fit.slope), fit.intercept);
  return HashCombine(Fold(digest, fit.r2), fit.n);
}

/** One pinned training run: order-sensitive digests of what it learned. */
struct TrainGolden {
  const char* label;
  std::uint64_t kernel_models;  // every KernelModel field, bit for bit
  std::uint64_t mapping;        // MappingTable()
  std::uint64_t calibration;    // CalibrationFor each trained GPU
  std::uint64_t lw_fits;        // LwModel::fits() of the same data
  std::uint64_t layer_kernels;  // KernelsForLayer over a zoo sweep
  std::uint64_t predictions;    // PredictUs of the sweep on each GPU
};

TrainGolden DigestTraining(const dataset::Dataset& data,
                           const dataset::NetworkSplit& split,
                           const KwOptions& options,
                           const std::vector<dnn::Network>& sweep) {
  KwModel kw(options);
  kw.Train(data, split);
  LwModel lw;
  lw.Train(data, split);
  TrainGolden golden{"", 0, 0, 0, 0, 0, 0};
  for (const std::string& gpu : kw.TrainedGpus()) {
    golden.kernel_models = Fold(golden.kernel_models, gpu);
    for (const auto& [name, model] : kw.KernelModels(gpu)) {
      std::uint64_t& d = golden.kernel_models;
      d = HashCombine(Fold(d, name), static_cast<std::uint64_t>(model.driver));
      d = Fold(Fold(d, model.fit), model.solo_r2);
      d = HashCombine(d, static_cast<std::uint64_t>(model.cluster_id));
    }
    golden.calibration =
        Fold(Fold(golden.calibration, gpu), kw.CalibrationFor(gpu));
  }
  for (const auto& [signature, names] : kw.MappingTable()) {
    golden.mapping = Fold(golden.mapping, signature);
    for (const std::string& name : names) {
      golden.mapping = Fold(golden.mapping, name);
    }
  }
  for (const auto& [key, fit] : lw.fits()) {
    golden.lw_fits = Fold(golden.lw_fits, key.first);
    golden.lw_fits = Fold(HashCombine(golden.lw_fits,
                                      static_cast<std::uint64_t>(key.second)),
                          fit);
  }
  for (const dnn::Network& network : sweep) {
    for (const dnn::Layer& layer : network.layers()) {
      golden.layer_kernels = HashCombine(golden.layer_kernels, 0x4c);
      for (const std::string& name : kw.KernelsForLayer(layer)) {
        golden.layer_kernels = Fold(golden.layer_kernels, name);
      }
    }
    for (const std::string& gpu : kw.TrainedGpus()) {
      golden.predictions = Fold(
          golden.predictions,
          kw.PredictUs(network, gpuexec::GpuByName(gpu), /*batch=*/64));
    }
  }
  return golden;
}

TEST_F(KwModelTest, TrainMatchesParentGolden) {
  // Pinned from the string-keyed trainer, which looked every kernel row
  // up by name and bucketed samples, layer instances and calibration
  // sums in ordered maps: training on interned ids must reproduce every
  // fit, the mapping table, the calibration factors and the LW fallback
  // bit for bit. The last row trains on a copy whose kernel rows come in
  // reverse GPU-block order, so the first instance of a signature comes
  // from another GPU and the layer-wise fallback sees unsorted rows.
  static constexpr TrainGolden kGolden[] = {
      {"default", 0x81e649659061f7d5ULL, 0x19b2b6f83d522235ULL,
       0x2801945d13fb4961ULL, 0x9cec7c86767822c3ULL, 0x58d360be849f6e7ULL,
       0x689a6026ef02c3afULL},
      {"no classify", 0x7bc94c4756e9835dULL, 0x19b2b6f83d522235ULL,
       0x20b26e18ba5e4918ULL, 0x9cec7c86767822c3ULL, 0x58d360be849f6e7ULL,
       0x86796c2e06330e9ULL},
      {"no cluster", 0x7ecb52eea1e854b7ULL, 0x19b2b6f83d522235ULL,
       0xf535ece0484c4cf1ULL, 0x9cec7c86767822c3ULL, 0x58d360be849f6e7ULL,
       0x358a242fbcb9e638ULL},
      {"no calibrate", 0x81e649659061f7d5ULL, 0x19b2b6f83d522235ULL,
       0x7f42bc0354a3c9b8ULL, 0x9cec7c86767822c3ULL, 0x58d360be849f6e7ULL,
       0x5f8602cc901fd507ULL},
      {"gpu blocks reversed, last renamed", 0xd4fc237d7dcb1c63ULL,
       0x6c07d7b130d77dcbULL, 0x2801945d13fb4961ULL, 0x9cec7c86767822c3ULL,
       0x9b2868e0ec29df49ULL, 0x689a6026ef02c3afULL},
  };
  const SmallCampaign& campaign = SmallCampaign::Get();
  // A sweep wider than the campaign, so reduced-signature hits and
  // misses are pinned too.
  const std::vector<dnn::Network> sweep = zoo::SmallZoo(/*stride=*/7);
  KwOptions no_classify;
  no_classify.classify_drivers = false;
  KwOptions no_cluster;
  no_cluster.cluster = false;
  KwOptions no_calibrate;
  no_calibrate.calibrate_e2e = false;
  // Lowering does not depend on the GPU, so the last GPU's kernels are
  // renamed: its block, now first, must own the mapping table, and the
  // other GPUs then resolve those names by longest common prefix.
  dataset::Dataset reversed = campaign.data();
  const int last_gpu = reversed.gpus().size() - 1;
  for (dataset::KernelRow& row : reversed.kernel_rows()) {
    if (row.gpu_id != last_gpu) continue;
    const std::string renamed = reversed.kernels().Get(row.kernel_id) + "_v2";
    row.kernel_id = reversed.kernels().Intern(renamed);
  }
  std::stable_sort(reversed.kernel_rows().begin(),
                   reversed.kernel_rows().end(),
                   [](const dataset::KernelRow& a,
                      const dataset::KernelRow& b) {
                     return a.gpu_id > b.gpu_id;
                   });
  const TrainGolden runs[] = {
      DigestTraining(campaign.data(), campaign.split(), KwOptions(), sweep),
      DigestTraining(campaign.data(), campaign.split(), no_classify, sweep),
      DigestTraining(campaign.data(), campaign.split(), no_cluster, sweep),
      DigestTraining(campaign.data(), campaign.split(), no_calibrate, sweep),
      DigestTraining(reversed, campaign.split(), KwOptions(), sweep),
  };
  static_assert(std::size(runs) == std::size(kGolden));
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    const TrainGolden& run = runs[i];
    const TrainGolden& want = kGolden[i];
    const std::string row = Format(
        "{\"%s\", 0x%llxULL, 0x%llxULL, 0x%llxULL, 0x%llxULL, 0x%llxULL, "
        "0x%llxULL},",
        want.label, static_cast<unsigned long long>(run.kernel_models),
        static_cast<unsigned long long>(run.mapping),
        static_cast<unsigned long long>(run.calibration),
        static_cast<unsigned long long>(run.lw_fits),
        static_cast<unsigned long long>(run.layer_kernels),
        static_cast<unsigned long long>(run.predictions));
    EXPECT_EQ(run.kernel_models, want.kernel_models) << row;
    EXPECT_EQ(run.mapping, want.mapping) << row;
    EXPECT_EQ(run.calibration, want.calibration) << row;
    EXPECT_EQ(run.lw_fits, want.lw_fits) << row;
    EXPECT_EQ(run.layer_kernels, want.layer_kernels) << row;
    EXPECT_EQ(run.predictions, want.predictions) << row;
  }
}

TEST(ReducedSignatureTest, DropsShapesKeepsParams) {
  EXPECT_EQ(ReducedSignature("CONV/i3x224x224/o64x112x112/k7x7/s2x2/p3x3/g1"),
            "CONV/k7x7/s2x2/p3x3/g1");
  EXPECT_EQ(ReducedSignature("ReLU/i64x56x56/o64x56x56"), "ReLU");
}

/** The Split/Join ReducedSignature that the one-pass scan replaced. */
std::string SplitJoinReducedSignature(const std::string& signature) {
  std::vector<std::string> kept;
  for (const std::string& part : Split(signature, '/')) {
    if (part.size() > 1 && (part[0] == 'i' || part[0] == 'o') &&
        part.find('x') != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(part[1]))) {
      continue;
    }
    kept.push_back(part);
  }
  return Join(kept, "/");
}

TEST(ReducedSignatureTest, MatchesSplitJoinOnEveryZooSignature) {
  std::vector<dnn::Network> networks = zoo::ImageClassificationZoo();
  for (dnn::Network& network : zoo::TransformerZoo()) {
    networks.push_back(std::move(network));
  }
  std::set<std::string> signatures;
  for (const dnn::Network& network : networks) {
    for (const dnn::Layer& layer : network.layers()) {
      signatures.insert(dnn::LayerSignature(layer));
    }
  }
  ASSERT_GT(signatures.size(), 1000u);
  // Edge cases of the split: empty parts, separators at either end,
  // one-byte parts and shape-like parts that are not shapes.
  for (const char* edge :
       {"", "/", "//", "a/", "/a", "i", "o", "i3", "ix3", "i3x", "/i3x3/",
        "i3x3", "o1x1//o2x2", "CONV//k3x3", "FC/i/o/x", "e3x3/o3x3/I3x3"}) {
    signatures.insert(edge);
  }
  for (const std::string& signature : signatures) {
    EXPECT_EQ(ReducedSignature(signature),
              SplitJoinReducedSignature(signature))
        << "'" << signature << "'";
  }
}

}  // namespace
}  // namespace gpuperf::models
