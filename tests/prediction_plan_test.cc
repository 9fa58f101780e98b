#include "models/prediction_plan.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dataset/builder.h"
#include "dnn/builder.h"
#include "dnn/flops.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/kernel.h"
#include "models/bundle_registry.h"
#include "models/igkw_model.h"
#include "models/kw_model.h"
#include "models/predictor_stack.h"
#include "obs/metrics_registry.h"
#include "simsys/serving_matrix.h"
#include "test_support.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

constexpr std::int64_t kBatches[] = {1, 4, 16, 64};

/**
 * The equivalence fixture: the small zoo profiled on all seven Table 1
 * GPUs (the shared SmallCampaign covers only four), so the plan/predict
 * equality sweeps exercise every GPU's resolved tables.
 */
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

/** Bitwise double equality — stricter than ==, which treats 0.0 == -0.0. */
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits differ)";
}

/** A layer configuration no zoo network uses (uncovered-network path). */
dnn::Network ExoticNetwork() {
  dnn::NetworkBuilder b("exotic", "Test", dnn::Chw(37, 61, 61));
  b.Conv(41, 13, 5, 1);
  return b.Build();
}

/**
 * IGKW targets: every real spec (trained and untrained alike) plus a
 * hypothetical one, which exercises the spec-keyed plan slots and the
 * nearest-bandwidth fallback scaling.
 */
std::vector<gpuexec::GpuSpec> IgkwTargets() {
  std::vector<gpuexec::GpuSpec> targets = gpuexec::AllGpus();
  gpuexec::GpuSpec hypothetical = gpuexec::GpuByName("A100");
  hypothetical.name = "HYPO-1";
  hypothetical.bandwidth_gbps *= 1.7;
  hypothetical.fp32_tflops *= 1.3;
  targets.push_back(hypothetical);
  return targets;
}

TEST(PredictionPlanTest, KwPredictManyBitwiseEqualsPredictUsEverywhere) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  const dnn::Network exotic = ExoticNetwork();

  std::vector<PredictQuery> queries;
  for (const dnn::Network& network : campaign.networks) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      for (std::int64_t batch : kBatches) {
        queries.push_back({&network, &gpu, batch});
      }
    }
  }
  // The uncovered-network path (unknown signature -> LW fallback terms).
  for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
    for (std::int64_t batch : kBatches) {
      queries.push_back({&exotic, &gpu, batch});
    }
  }

  std::vector<double> batched(queries.size());
  campaign.kw.PredictMany(queries, batched);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double expected = campaign.kw.PredictUs(
        *queries[i].network, *queries[i].gpu, queries[i].batch);
    EXPECT_TRUE(BitEqual(batched[i], expected))
        << queries[i].network->name() << " on " << queries[i].gpu->name
        << " batch " << queries[i].batch;
  }
}

TEST(PredictionPlanTest, IgkwPredictManyBitwiseEqualsPredictUs) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  IgkwModel igkw;
  igkw.Train(campaign.data, campaign.split, {"A100", "A40", "TITAN RTX"});

  const std::vector<gpuexec::GpuSpec> targets = IgkwTargets();

  const dnn::Network exotic = ExoticNetwork();
  std::vector<const dnn::Network*> networks;
  for (const dnn::Network& network : campaign.networks) {
    networks.push_back(&network);
  }
  networks.push_back(&exotic);

  std::vector<PredictQuery> queries;
  for (const dnn::Network* network : networks) {
    for (const gpuexec::GpuSpec& gpu : targets) {
      for (std::int64_t batch : kBatches) {
        queries.push_back({network, &gpu, batch});
      }
    }
  }
  std::vector<double> batched(queries.size());
  igkw.PredictMany(queries, batched);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double expected = igkw.PredictUs(*queries[i].network,
                                           *queries[i].gpu, queries[i].batch);
    EXPECT_TRUE(BitEqual(batched[i], expected))
        << queries[i].network->name() << " on " << queries[i].gpu->name
        << " batch " << queries[i].batch;
  }
}

/** Plan and per-query values of one fresh model copy, in a fixed order. */
struct OrderedValues {
  std::vector<double> plan;   // PlanFor(...)->EvalUs(batch)
  std::vector<double> query;  // PredictUs(...)
  int fallback_layers = 0;    // plan layers rescaled by a bandwidth ratio
};

/**
 * Evaluates every (network, target, batch) through PlanFor and through
 * PredictUs on a fresh copy of `trained` (empty sid memo, empty plan
 * cache), running the plan compiles first or the per-query calls first.
 * Whichever runs first fills the per-network sid memo the other reads.
 */
template <typename Model>
OrderedValues EvaluateInOrder(const Model& trained, bool plans_first,
                              const std::vector<const dnn::Network*>& networks,
                              const std::vector<gpuexec::GpuSpec>& targets) {
  const Model model = trained;
  OrderedValues values;
  auto compile = [&] {
    for (const dnn::Network* network : networks) {
      for (const gpuexec::GpuSpec& gpu : targets) {
        const PredictionPlan* plan = model.PlanFor(*network, gpu);
        for (std::size_t l = 0; l < plan->layer_count(); ++l) {
          if (plan->layer_scale_b(l) != 1.0) ++values.fallback_layers;
        }
        for (std::int64_t batch : kBatches) {
          values.plan.push_back(plan->EvalUs(batch));
        }
      }
    }
  };
  auto query = [&] {
    for (const dnn::Network* network : networks) {
      for (const gpuexec::GpuSpec& gpu : targets) {
        for (std::int64_t batch : kBatches) {
          values.query.push_back(model.PredictUs(*network, gpu, batch));
        }
      }
    }
  };
  if (plans_first) {
    compile();
    query();
  } else {
    query();
    compile();
  }
  return values;
}

/** Asserts both orders agree bit for bit, plans and queries alike. */
void ExpectOrderIndependent(const OrderedValues& plans_first,
                            const OrderedValues& queries_first) {
  ASSERT_EQ(plans_first.plan.size(), queries_first.plan.size());
  ASSERT_EQ(plans_first.query.size(), plans_first.plan.size());
  ASSERT_EQ(queries_first.query.size(), plans_first.plan.size());
  for (std::size_t i = 0; i < plans_first.plan.size(); ++i) {
    EXPECT_TRUE(BitEqual(plans_first.plan[i], plans_first.query[i])) << i;
    EXPECT_TRUE(BitEqual(plans_first.plan[i], queries_first.plan[i])) << i;
    EXPECT_TRUE(BitEqual(plans_first.query[i], queries_first.query[i])) << i;
  }
  EXPECT_EQ(plans_first.fallback_layers, queries_first.fallback_layers);
}

// KW plan compiles and PredictUs read one per-network sid memo (and IGKW
// reads its inner KW model's), so neither may depend on which filled it.
TEST(PredictionPlanTest, SharedSidMemoGivesSameResultsInEitherOrder) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  const dnn::Network exotic = ExoticNetwork();
  std::vector<const dnn::Network*> networks;
  for (const dnn::Network& network : campaign.networks) {
    networks.push_back(&network);
  }
  networks.push_back(&exotic);

  KwModel kw;  // never queried: each copy starts with an empty memo
  kw.Train(campaign.data, campaign.split);
  ExpectOrderIndependent(
      EvaluateInOrder(kw, true, networks, gpuexec::AllGpus()),
      EvaluateInOrder(kw, false, networks, gpuexec::AllGpus()));

  IgkwModel igkw;
  igkw.Train(campaign.data, campaign.split, {"A100", "A40", "TITAN RTX"});
  const std::vector<gpuexec::GpuSpec> targets = IgkwTargets();
  const OrderedValues plans_first =
      EvaluateInOrder(igkw, true, networks, targets);
  ExpectOrderIndependent(plans_first,
                         EvaluateInOrder(igkw, false, networks, targets));
  // The sweep covers nearest-GPU fallback layers, which compile through
  // the KW model with IGKW's sid and a bandwidth-ratio scale.
  EXPECT_GT(plans_first.fallback_layers, 0);
}

TEST(PredictionPlanTest, StackPredictManyMatchesTiersAndPredictUs) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();

  // KW covers {A100, A40}; LW covers {A100, A40, V100}; E2E covers all
  // seven; nothing covers a hypothetical GPU -> every tier is reachable.
  dataset::BuildOptions kw_options;
  kw_options.gpu_names = {"A100", "A40"};
  dataset::Dataset kw_data =
      dataset::BuildDataset(campaign.networks, kw_options);
  KwModel kw;
  kw.Train(kw_data, dataset::SplitByNetwork(kw_data, 0.15, 7));

  LwModel lw_full;
  lw_full.Train(campaign.data, campaign.split);
  LwModel lw;
  for (const auto& [key, fit] : lw_full.fits()) {
    if (key.first == "A100" || key.first == "A40" || key.first == "V100") {
      lw.SetFit(key.first, key.second, fit);
    }
  }
  E2eModel e2e;
  e2e.Train(campaign.data, campaign.split);

  PredictorStack stack;
  stack.SetKw(std::move(kw));
  stack.SetLw(std::move(lw));
  stack.SetE2e(std::move(e2e));

  const dnn::Network exotic = ExoticNetwork();
  ASSERT_FALSE(FullGpuCampaign::Get().kw.CoverageFor(exotic, "A100").Full())
      << "exotic network must miss the mapping table";

  gpuexec::GpuSpec uncovered = gpuexec::GpuByName("V100");
  uncovered.name = "UNTRAINED-GPU";

  struct Case {
    const dnn::Network* network;
    const gpuexec::GpuSpec* gpu;
    PredictorTier expected;
  };
  const std::vector<Case> cases = {
      {&campaign.networks[0], &gpuexec::GpuByName("A100"), PredictorTier::kKw},
      {&exotic, &gpuexec::GpuByName("A100"), PredictorTier::kLw},
      {&campaign.networks[1], &gpuexec::GpuByName("V100"), PredictorTier::kLw},
      {&campaign.networks[2], &gpuexec::GpuByName("TITAN RTX"),
       PredictorTier::kE2e},
      {&campaign.networks[0], &uncovered, PredictorTier::kNone},
  };

  std::vector<PredictQuery> queries;
  std::vector<PredictorTier> expected_tiers;
  for (const Case& c : cases) {
    for (std::int64_t batch : kBatches) {
      queries.push_back({c.network, c.gpu, batch});
      expected_tiers.push_back(c.expected);
    }
  }
  std::vector<double> batched(queries.size());
  std::vector<PredictorTier> tiers(queries.size());
  stack.PredictManyWithTiers(queries, batched, tiers);

  PredictorStackCounters counters = stack.counters();
  EXPECT_EQ(counters.kw_hits, 4u);
  EXPECT_EQ(counters.lw_fallbacks, 8u);
  EXPECT_EQ(counters.e2e_fallbacks, 4u);
  EXPECT_EQ(counters.unanswered, 4u);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(tiers[i], expected_tiers[i]) << "query " << i;
    const double expected = stack.PredictUs(*queries[i].network,
                                            *queries[i].gpu, queries[i].batch);
    EXPECT_TRUE(BitEqual(batched[i], expected)) << "query " << i;
  }
}

TEST(PredictionPlanTest, ServingMatrixFillMatchesPerCellLoop) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  dataset::BuildOptions options;
  options.gpu_names = {"A100", "A40"};
  dataset::Dataset data = dataset::BuildDataset(campaign.networks, options);
  KwModel kw;
  kw.Train(data, dataset::SplitByNetwork(data, 0.15, 7));

  // V100 is untrained: its column must be the NaN degrade sentinel.
  const std::vector<const gpuexec::GpuSpec*> pool = {
      &gpuexec::GpuByName("A100"), &gpuexec::GpuByName("V100")};
  simsys::ServingMatrixBuffer buffer;
  std::vector<std::vector<double>> predicted;
  simsys::FillPredictedServingMatrix(kw, campaign.networks, pool, 16, buffer,
                                     predicted);

  ASSERT_EQ(predicted.size(), campaign.networks.size());
  for (std::size_t j = 0; j < campaign.networks.size(); ++j) {
    ASSERT_EQ(predicted[j].size(), pool.size());
    for (std::size_t g = 0; g < pool.size(); ++g) {
      if (kw.CoverageFor(campaign.networks[j], pool[g]->name).Full()) {
        EXPECT_TRUE(BitEqual(
            predicted[j][g],
            kw.PredictUs(campaign.networks[j], *pool[g], 16)))
            << campaign.networks[j].name() << " on " << pool[g]->name;
      } else {
        EXPECT_TRUE(std::isnan(predicted[j][g]))
            << campaign.networks[j].name() << " on " << pool[g]->name;
      }
    }
  }

  // Refills reuse the buffer and stay bit-identical.
  std::vector<std::vector<double>> again;
  simsys::FillPredictedServingMatrix(kw, campaign.networks, pool, 16, buffer,
                                     again);
  for (std::size_t j = 0; j < predicted.size(); ++j) {
    for (std::size_t g = 0; g < predicted[j].size(); ++g) {
      if (std::isnan(predicted[j][g])) {
        EXPECT_TRUE(std::isnan(again[j][g]));
      } else {
        EXPECT_TRUE(BitEqual(predicted[j][g], again[j][g]));
      }
    }
  }
}

TEST(PredictionPlanTest, DriversAreBatchLinear) {
  // The axiom that lets one plan serve every batch size: each cost
  // driver's batch-N feature is exactly batch * its per-sample value
  // (in int64, so the product the plan computes is the same number the
  // per-query path converts to double).
  for (const char* name : {"resnet50", "googlenet", "mobilenet_v2"}) {
    const dnn::Network network = zoo::BuildByName(name);
    for (const dnn::Layer& layer : network.layers()) {
      for (std::int64_t batch : kBatches) {
        EXPECT_EQ(batch * gpuexec::PerSampleDriverValue(
                              layer, gpuexec::CostDriver::kInput),
                  batch * layer.InputElements());
        EXPECT_EQ(batch * gpuexec::PerSampleDriverValue(
                              layer, gpuexec::CostDriver::kOperation),
                  dnn::LayerFlops(layer, batch));
        EXPECT_EQ(batch * gpuexec::PerSampleDriverValue(
                              layer, gpuexec::CostDriver::kOutput),
                  batch * layer.output.Elements());
      }
    }
  }
}

// --- Plan metrics + structured compile logs. -------------------------

std::vector<std::string>& CapturedLogLines() {
  static std::vector<std::string>* const kLines =
      new std::vector<std::string>();
  return *kLines;
}

void CaptureLogLine(LogLevel level, const std::string& line) {
  (void)level;
  CapturedLogLines().push_back(line);
}

TEST(PredictionPlanTest, PlanMetricsCountCompilesQueriesInvalidations) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& compiles =
      registry.counter("gpuperf_predictor_plan_compiles");
  obs::Counter& queries_counter =
      registry.counter("gpuperf_predictor_plan_queries");
  obs::Counter& invalidations =
      registry.counter("gpuperf_predictor_plan_invalidations");

  KwModel kw;
  kw.Train(campaign.data, campaign.split);
  const KwModel never_queried = kw;

  SetMinLogLevel(LogLevel::kDebug);
  CapturedLogLines().clear();
  LogSink previous_sink = SetLogSinkForTest(&CaptureLogLine);

  const std::uint64_t compiles_0 = compiles.Value();
  const std::uint64_t queries_0 = queries_counter.Value();
  const std::uint64_t invalidations_0 = invalidations.Value();

  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const gpuexec::GpuSpec& a40 = gpuexec::GpuByName("A40");
  std::vector<PredictQuery> queries;
  for (std::int64_t batch : kBatches) {
    queries.push_back({&campaign.networks[0], &a100, batch});
  }
  for (std::int64_t batch : kBatches) {
    queries.push_back({&campaign.networks[0], &a40, batch});
  }
  std::vector<double> out(queries.size());
  kw.PredictMany(queries, out);
  // Two (network, GPU) pairs -> two compiles; eight answered queries.
  EXPECT_EQ(compiles.Value() - compiles_0, 2u);
  EXPECT_EQ(queries_counter.Value() - queries_0, 8u);
  EXPECT_EQ(invalidations.Value() - invalidations_0, 0u);

  // A repeat sweep hits the cached plans: queries count, compiles don't.
  kw.PredictMany(queries, out);
  EXPECT_EQ(compiles.Value() - compiles_0, 2u);
  EXPECT_EQ(queries_counter.Value() - queries_0, 16u);

  // Reusing a network name for a different architecture retires the
  // stale plan (invalidation) and compiles a replacement.
  dnn::NetworkBuilder shape_a("shape-shifter", "Test", dnn::Chw(3, 32, 32));
  shape_a.Conv(8, 3, 1, 1);
  const dnn::Network network_a = shape_a.Build();
  dnn::NetworkBuilder shape_b("shape-shifter", "Test", dnn::Chw(3, 64, 64));
  shape_b.Conv(16, 3, 1, 1);
  const dnn::Network network_b = shape_b.Build();
  const PredictQuery query_a[] = {{&network_a, &a100, 4}};
  const PredictQuery query_b[] = {{&network_b, &a100, 4}};
  double one[1];
  kw.PredictMany(query_a, one);
  EXPECT_EQ(invalidations.Value() - invalidations_0, 0u);
  kw.PredictMany(query_b, one);
  EXPECT_EQ(invalidations.Value() - invalidations_0, 1u);
  EXPECT_EQ(compiles.Value() - compiles_0, 4u);

  // The per-network sid memo retires on name reuse too: each shape
  // predicts exactly as on a copy that never saw the name.
  auto fresh_us = [&](const dnn::Network& network) {
    const KwModel copy = never_queried;
    return copy.PredictUs(network, a100, 4);
  };
  EXPECT_TRUE(BitEqual(one[0], fresh_us(network_b)));
  EXPECT_TRUE(BitEqual(kw.PredictUs(network_b, a100, 4), one[0]));
  dnn::NetworkBuilder shape_c("shape-shifter", "Test", dnn::Chw(3, 64, 64));
  shape_c.Conv(16, 1, 1, 0).MaxPool(3, 2, 1);
  const dnn::Network network_c = shape_c.Build();
  EXPECT_TRUE(BitEqual(kw.PredictUs(network_c, a100, 4), fresh_us(network_c)));

  SetLogSinkForTest(previous_sink);
  SetMinLogLevel(LogLevel::kInfo);

  // Every compile emitted one structured debug line.
  int compile_lines = 0;
  for (const std::string& line : CapturedLogLines()) {
    if (line.find("prediction plan compiled") != std::string::npos) {
      ++compile_lines;
      EXPECT_NE(line.find("network="), std::string::npos) << line;
      EXPECT_NE(line.find("terms="), std::string::npos) << line;
    }
  }
  EXPECT_EQ(compile_lines, 4);
}

// Concurrent sweeps over one model: cold-cache compiles race through
// the PlanCache insert path, warm-cache sweeps share raw plan pointers.
// Run under -DGPUPERF_SANITIZE=thread this must be data-race-free.
TEST(PredictionPlanTest, ConcurrentPredictManySweepsAreClean) {
  const FullGpuCampaign& campaign = FullGpuCampaign::Get();
  KwModel kw;
  kw.Train(campaign.data, campaign.split);  // cold plan cache

  std::vector<PredictQuery> queries;
  for (std::size_t j = 0; j < 8 && j < campaign.networks.size(); ++j) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      for (std::int64_t batch : kBatches) {
        queries.push_back({&campaign.networks[j], &gpu, batch});
      }
    }
  }
  std::vector<double> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected[i] = campaign.kw.PredictUs(*queries[i].network, *queries[i].gpu,
                                        queries[i].batch);
  }

  constexpr int kSweeps = 4;
  std::vector<std::vector<double>> results(
      kSweeps, std::vector<double>(queries.size()));
  ThreadPool pool(kSweeps);
  pool.ParallelFor(kSweeps, [&](std::size_t sweep) {
    kw.PredictMany(queries, results[sweep]);
  });
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(BitEqual(results[sweep][i], expected[i]))
          << "sweep " << sweep << " query " << i;
    }
  }
}

TEST(PredictionPlanTest, RegistryPromotionYieldsFreshPlanCaches) {
  obs::Counter& compiles = obs::MetricsRegistry::Global().counter(
      "gpuperf_predictor_plan_compiles");
  CanaryOptions canary;
  canary.probe_networks = {zoo::BuildByName("resnet18")};
  canary.batch = 16;

  BundleRegistry registry;
  ASSERT_TRUE(
      registry.TryPromote(gpuperf::testing::GoldenKwBundleDir(), canary).ok());
  const std::shared_ptr<const KwModel> gen1 = registry.Snapshot();
  ASSERT_NE(gen1, nullptr);

  const dnn::Network net = zoo::BuildByName("resnet18");
  const gpuexec::GpuSpec& a40 = gpuexec::GpuByName("A40");
  const std::uint64_t compiles_0 = compiles.Value();
  const PredictionPlan* plan1 = gen1->PlanFor(net, a40);
  EXPECT_EQ(compiles.Value() - compiles_0, 1u);
  EXPECT_EQ(gen1->PlanFor(net, a40), plan1);  // cached, no recompile
  EXPECT_EQ(compiles.Value() - compiles_0, 1u);
  EXPECT_TRUE(BitEqual(plan1->EvalUs(16), gen1->PredictUs(net, a40, 16)));

  // Promotion installs a new generation with an empty plan cache; the
  // held old generation keeps its compiled plans (that is the implicit
  // invalidation contract — plans never outlive their model).
  ASSERT_TRUE(
      registry.TryPromote(gpuperf::testing::GoldenKwBundleDir(), canary).ok());
  const std::shared_ptr<const KwModel> gen2 = registry.Snapshot();
  ASSERT_NE(gen2, gen1);
  const PredictionPlan* plan2 = gen2->PlanFor(net, a40);
  EXPECT_EQ(compiles.Value() - compiles_0, 2u);  // fresh cache compiled
  EXPECT_TRUE(BitEqual(plan2->EvalUs(16), gen2->PredictUs(net, a40, 16)));
  EXPECT_EQ(gen1->PlanFor(net, a40), plan1);  // old generation untouched
  EXPECT_EQ(compiles.Value() - compiles_0, 2u);

  // Rollback restores the previous generation object — and with it the
  // plans it already compiled.
  ASSERT_TRUE(registry.Rollback().ok());
  const std::shared_ptr<const KwModel> rolled_back = registry.Snapshot();
  EXPECT_EQ(rolled_back, gen1);
  EXPECT_EQ(rolled_back->PlanFor(net, a40), plan1);
  EXPECT_EQ(compiles.Value() - compiles_0, 2u);
}

}  // namespace
}  // namespace gpuperf::models
