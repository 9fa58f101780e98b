#include "models/kw_model.h"

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "dnn/builder.h"
#include "gpuexec/lowering.h"
#include "gpuexec/profiler.h"
#include "models/igkw_model.h"
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

TEST(ReducedSignatureTest, DropsShapesKeepsParams) {
  EXPECT_EQ(ReducedSignature("CONV/i3x224x224/o64x112x112/k7x7/s2x2/p3x3/g1"),
            "CONV/k7x7/s2x2/p3x3/g1");
  EXPECT_EQ(ReducedSignature("ReLU/i64x56x56/o64x56x56"), "ReLU");
}

}  // namespace
}  // namespace gpuperf::models
