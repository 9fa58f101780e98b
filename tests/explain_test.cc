#include "models/explain.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/builder.h"
#include "dnn/builder.h"
#include "dnn/network.h"
#include "gpuexec/gpu_spec.h"
#include "models/kw_model.h"
#include "models/prediction_plan.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

constexpr std::int64_t kBatches[] = {1, 4, 16, 64};

/** The small zoo profiled on all seven Table 1 GPUs, KW-trained. */
struct FullGpuCampaign {
  std::vector<dnn::Network> networks = zoo::SmallZoo(/*stride=*/16);
  dataset::Dataset data;
  dataset::NetworkSplit split;
  KwModel kw;

  FullGpuCampaign() {
    dataset::BuildOptions options;  // empty gpu_names = all seven GPUs
    data = dataset::BuildDataset(networks, options);
    split = dataset::SplitByNetwork(data, 0.15, 7);
    kw.Train(data, split);
  }

  static const FullGpuCampaign& Get() {
    static const FullGpuCampaign* const kCampaign = new FullGpuCampaign();
    return *kCampaign;
  }
};

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits differ)";
}

TEST(ExplainTest, TotalIsBitIdenticalToPredictUsEverywhere) {
  // The acceptance sweep: every zoo network x all seven GPUs x the
  // standard batches. ExplainPlan folds through the same BatchSum as
  // EvalUs and PredictUs, so its total — and the ordered sum of its layer
  // contributions — must equal PredictUs bit-for-bit, not approximately.
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  for (const dnn::Network& network : campaign.networks) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      for (std::int64_t batch : kBatches) {
        const PredictionPlan* plan = campaign.kw.PlanFor(network, gpu);
        ASSERT_NE(plan, nullptr);
        const PredictionBreakdown breakdown = ExplainPlan(*plan, batch);
        const double expected = campaign.kw.PredictUs(network, gpu, batch);
        EXPECT_TRUE(BitEqual(breakdown.total_us, expected))
            << network.name() << " on " << gpu.name << " batch " << batch;
        double layer_sum = 0.0;
        for (const LayerContribution& layer : breakdown.layers) {
          layer_sum += layer.us;
        }
        EXPECT_TRUE(BitEqual(layer_sum, expected))
            << network.name() << " on " << gpu.name << " batch " << batch;
      }
    }
  }
}

// AppendKernelTerms is the refit path's view of a prediction
// (LifecycleController::Observe attributes residuals to its terms), so
// it must be the explained plan's terms exactly: false on layer-wise and
// unmapped layers, and on resolved layers the same (cluster, raw_us)
// terms, summing times the calibration factor to PredictLayerUs.
TEST(ExplainTest, KernelTermsAreTheExplainedTermsOfEveryLayer) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  dnn::NetworkBuilder b("exotic", "Test", dnn::Chw(37, 61, 61));
  b.Conv(41, 13, 5, 1);
  const dnn::Network exotic = b.Build();
  std::vector<const dnn::Network*> networks = {&exotic};
  for (const dnn::Network& network : campaign.networks) {
    networks.push_back(&network);
  }
  const KwModel& kw = campaign.kw;
  int resolved_layers = 0, unmapped_layers = 0;
  for (const dnn::Network* network : networks) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      for (std::int64_t batch : kBatches) {
        const PredictionBreakdown breakdown =
            ExplainPlan(*kw.PlanFor(*network, gpu), batch);
        std::size_t next = 0;  // the first explained term of layer i
        for (std::size_t i = 0; i < network->layers().size(); ++i) {
          SCOPED_TRACE(network->name() + " layer " + std::to_string(i) +
                       " on " + gpu.name + " batch " +
                       std::to_string(batch));
          const dnn::Layer& layer = network->layers()[i];
          std::vector<const TermContribution*> explained;
          for (; next < breakdown.terms.size() &&
                 breakdown.terms[next].layer == i;
               ++next) {
            explained.push_back(&breakdown.terms[next]);
          }
          // Resolved kernels always carry a cluster; layer-wise terms -1.
          const bool kernel_wise =
              !explained.empty() && explained.front()->cluster_id >= 0;
          std::vector<KwModel::KernelTerm> terms;
          const bool appended =
              kw.AppendKernelTerms(layer, gpu.name, batch, &terms);
          EXPECT_EQ(appended, kernel_wise);
          if (kw.KernelsForLayer(layer).empty()) {
            EXPECT_FALSE(appended);
            ++unmapped_layers;
          }
          if (!appended) {
            EXPECT_TRUE(terms.empty());
            continue;
          }
          ++resolved_layers;
          ASSERT_EQ(terms.size(), explained.size());
          double sum = 0.0;
          for (std::size_t k = 0; k < terms.size(); ++k) {
            EXPECT_EQ(terms[k].cluster_id, explained[k]->cluster_id);
            EXPECT_TRUE(BitEqual(terms[k].us, explained[k]->raw_us));
            sum += terms[k].us;
          }
          EXPECT_TRUE(BitEqual(sum * kw.CalibrationFor(gpu.name),
                               kw.PredictLayerUs(layer, gpu.name, batch)));
        }
        EXPECT_EQ(next, breakdown.terms.size());
      }
    }
  }
  EXPECT_GT(resolved_layers, 0);
  EXPECT_GT(unmapped_layers, 0);
}

TEST(ExplainTest, ClusterAndTermSumsAgreeWithinRounding) {
  // Per-term scaling re-associates one multiply per term, so cluster
  // and term sums match the total to accumulated rounding — tight
  // relative error, never a structural gap.
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  const dnn::Network& network = campaign.networks.front();
  for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
    for (std::int64_t batch : kBatches) {
      const PredictionPlan* plan = campaign.kw.PlanFor(network, gpu);
      const PredictionBreakdown breakdown = ExplainPlan(*plan, batch);
      double term_sum = 0.0;
      std::uint64_t cluster_terms = 0;
      double cluster_sum = 0.0;
      for (const TermContribution& term : breakdown.terms) {
        term_sum += term.scaled_us;
      }
      for (const ClusterContribution& cluster : breakdown.clusters) {
        cluster_sum += cluster.us;
        cluster_terms += cluster.terms;
      }
      EXPECT_EQ(cluster_terms, breakdown.terms.size());
      const double tol =
          1e-12 * static_cast<double>(breakdown.terms.size() + 1) *
          std::max(1.0, breakdown.total_us);
      EXPECT_NEAR(term_sum, breakdown.total_us, tol);
      EXPECT_NEAR(cluster_sum, breakdown.total_us, tol);
    }
  }
}

TEST(ExplainTest, SharesArePartitionOfUnity) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  const dnn::Network& network = campaign.networks.front();
  const gpuexec::GpuSpec& gpu = gpuexec::AllGpus().front();
  const PredictionBreakdown breakdown =
      ExplainPlan(*campaign.kw.PlanFor(network, gpu), 16);
  ASSERT_GT(breakdown.total_us, 0.0);
  double layer_shares = 0.0, cluster_shares = 0.0;
  for (const LayerContribution& layer : breakdown.layers) {
    EXPECT_GE(layer.share, 0.0);
    layer_shares += layer.share;
  }
  for (const ClusterContribution& cluster : breakdown.clusters) {
    EXPECT_GE(cluster.share, 0.0);
    cluster_shares += cluster.share;
  }
  EXPECT_NEAR(layer_shares, 1.0, 1e-9);
  EXPECT_NEAR(cluster_shares, 1.0, 1e-9);
}

TEST(ExplainTest, LayerLabelsAndClustersComeFromTheModel) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  const dnn::Network& network = campaign.networks.front();
  const gpuexec::GpuSpec& gpu = gpuexec::AllGpus().front();
  const PredictionBreakdown breakdown =
      ExplainPlan(*campaign.kw.PlanFor(network, gpu), 16);
  ASSERT_EQ(breakdown.layers.size(), network.layers().size());
  for (std::size_t i = 0; i < breakdown.layers.size(); ++i) {
    EXPECT_EQ(breakdown.layers[i].index, i);
    EXPECT_EQ(breakdown.layers[i].label, network.layers()[i].name);
  }
  // Clusters list in ascending id and every term maps into one.
  for (std::size_t i = 1; i < breakdown.clusters.size(); ++i) {
    EXPECT_LT(breakdown.clusters[i - 1].cluster_id,
              breakdown.clusters[i].cluster_id);
  }
  for (const TermContribution& term : breakdown.terms) {
    EXPECT_LT(term.layer, breakdown.layers.size());
    EXPECT_EQ(term.layer_label, breakdown.layers[term.layer].label);
  }
}

TEST(ExplainTest, ResidualAttributionSplitsByShare) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  const dnn::Network& network = campaign.networks.front();
  const gpuexec::GpuSpec& gpu = gpuexec::AllGpus().front();
  const PredictionBreakdown breakdown =
      ExplainPlan(*campaign.kw.PlanFor(network, gpu), 16);
  const double observed = breakdown.total_us * 1.10;  // +10% residual
  const std::vector<ResidualAttribution> attribution =
      AttributeResiduals(breakdown, observed);
  ASSERT_EQ(attribution.size(), breakdown.clusters.size());
  double attributed = 0.0;
  for (std::size_t i = 0; i < attribution.size(); ++i) {
    EXPECT_EQ(attribution[i].cluster_id, breakdown.clusters[i].cluster_id);
    EXPECT_EQ(attribution[i].share, breakdown.clusters[i].share);
    attributed += attribution[i].residual_us;
  }
  EXPECT_NEAR(attributed, observed - breakdown.total_us,
              1e-9 * std::max(1.0, std::abs(observed)));
}

TEST(ExplainTest, ZeroTotalYieldsNoAttribution) {
  PredictionBreakdown empty;
  EXPECT_TRUE(AttributeResiduals(empty, 5.0).empty());
}

}  // namespace
}  // namespace gpuperf::models
