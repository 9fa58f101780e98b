#include "pipeline.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/stats.h"
#include "dataset/builder.h"
#include "gpuexec/profiler.h"
#include "models/model_io.h"
#include "obs/metrics_registry.h"
#include "simsys/serving_matrix.h"
#include "zoo/zoo.h"

namespace perfbench {

using namespace gpuperf;

obs::Counter& RegistryCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

void TrainCampaign(std::uint64_t seed, Tracer* tracer, Trained& out) {
  {
    Scope span(tracer, "zoo.build");
    out.networks = zoo::SmallZoo(kZooStride);
  }
  {
    Scope span(tracer, "dataset.build");
    dataset::BuildOptions options;
    options.batch = kTrainBatch;
    options.jobs = 1;
    out.data = dataset::BuildDataset(out.networks, options);
  }
  {
    Scope span(tracer, "dataset.split");
    out.split = dataset::SplitByNetwork(out.data, kTestFraction, seed);
  }
  {
    Scope span(tracer, "models.kw_train");
    out.kw = models::KwModel();
    out.kw.Train(out.data, out.split);
  }
  {
    Scope span(tracer, "models.igkw_train");
    out.igkw = models::IgkwModel();
    out.igkw.Train(out.data, out.split, kIgkwTrainGpus);
  }
}

EvalSet BuildEvalSet(const Trained& trained) {
  const dataset::Dataset& data = trained.data;
  const int a100 = data.gpus().Find("A100");
  const int unseen = data.gpus().Find(kUnseenGpu);
  std::vector<const dnn::Network*> by_id(data.networks().size());
  for (const dnn::Network& network : trained.networks) {
    by_id[data.networks().Find(network.name())] = &network;
  }
  EvalSet set;
  for (const dataset::NetworkRow& row : data.network_rows()) {
    const bool kw_row = row.gpu_id == a100;
    if (!kw_row && row.gpu_id != unseen) continue;
    const models::PredictQuery query{
        by_id[row.network_id],
        &gpuexec::GpuByName(data.gpus().Get(row.gpu_id)), row.batch};
    (kw_row ? set.kw_queries : set.igkw_queries).push_back(query);
    (kw_row ? set.kw_truth_us : set.igkw_truth_us).push_back(row.e2e_us);
    (kw_row ? set.kw_held_out : set.igkw_held_out)
        .push_back(trained.split.IsTest(row.network_id));
  }
  return set;
}

std::vector<double> PredictEach(const models::Predictor& model,
                                const std::vector<models::PredictQuery>& queries) {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const models::PredictQuery& query : queries) {
    out.push_back(model.PredictUs(*query.network, *query.gpu, query.batch));
  }
  return out;
}

double HeldOutErrorPct(const std::vector<double>& predicted,
                       const std::vector<double>& truth_us,
                       const std::vector<bool>& held_out) {
  std::vector<double> pred, meas;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (!held_out[i]) continue;
    pred.push_back(predicted[i]);
    meas.push_back(truth_us[i]);
  }
  return 100 * Mape(pred, meas);
}

Accuracy CrossValidatedAccuracy(const Trained& trained, std::uint64_t seed) {
  const int count = trained.data.networks().size();
  const dataset::StringPool& names = trained.data.networks();
  const EvalSet set = BuildEvalSet(trained);
  std::vector<double> kw_pred, kw_truth, igkw_pred, igkw_truth;
  Rng rng(seed);
  for (int repeat = 0; repeat < kCvRepeats; ++repeat) {
    std::vector<int> ids(count);
    for (int i = 0; i < count; ++i) ids[i] = i;
    for (int i = count - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.NextBelow(i + 1)]);
    }
    for (int fold = 0; fold < kFolds; ++fold) {
      dataset::NetworkSplit split;
      for (int i = 0; i < count; ++i) {
        (i * kFolds / count == fold ? split.test_ids : split.train_ids)
            .push_back(ids[i]);
      }
      std::sort(split.test_ids.begin(), split.test_ids.end());
      std::sort(split.train_ids.begin(), split.train_ids.end());
      models::KwModel kw;
      kw.Train(trained.data, split);
      models::IgkwModel igkw;
      igkw.Train(trained.data, split, kIgkwTrainGpus);
      auto held_out = [&](const models::Predictor& model,
                          const std::vector<models::PredictQuery>& queries,
                          const std::vector<double>& truth,
                          std::vector<double>& pred_out,
                          std::vector<double>& truth_out) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
          if (!split.IsTest(names.Find(queries[q].network->name()))) continue;
          pred_out.push_back(model.PredictUs(*queries[q].network,
                                             *queries[q].gpu, queries[q].batch));
          truth_out.push_back(truth[q]);
        }
      };
      held_out(kw, set.kw_queries, set.kw_truth_us, kw_pred, kw_truth);
      held_out(igkw, set.igkw_queries, set.igkw_truth_us, igkw_pred,
               igkw_truth);
    }
  }
  return {100 * Mape(kw_pred, kw_truth), 100 * Mape(igkw_pred, igkw_truth)};
}

ServeScenario ServeInputs(std::uint64_t seed) {
  ServeScenario scenario;
  // Job types the stride-8 campaign covers fully, so every dispatch
  // decision uses a KW prediction.
  for (const char* name : {"resnet18", "resnet50", "resnet101",
                           "densenet121", "mobilenet_v2", "vgg16_bn",
                           "squeezenet1_1", "vgg11_bn"}) {
    scenario.networks.push_back(zoo::BuildByName(name));
  }
  for (const char* name : {"A100", "A40", "V100", "TITAN RTX", "RTX A5000",
                           "GTX 1080 Ti"}) {
    scenario.gpus.push_back(&gpuexec::GpuByName(name));
  }
  scenario.mix.assign(scenario.networks.size(), 1.0);

  // Every countermeasure is on and fires: outages and flap bursts feed
  // retries, breakers and the retry budget; gray slowdowns feed hedging;
  // the queue cap and the SLO shed. A 240 s horizon (~50k arrivals)
  // averages enough chaos episodes that SLO attainment moves by only a
  // few percent from seed to seed.
  simsys::ServingConfig& config = scenario.config;
  config.duration_s = 240;
  config.seed = seed;
  config.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  config.faults = {/*mtbf_s=*/6, /*mttr_s=*/0.5, seed};
  config.retry.max_retries = 2;
  config.queue_cap = 8;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_ms = 200;
  config.hedge_trigger_factor = 1.5;
  config.retry_budget = 0.2;
  config.retry_budget_burst = 5;
  config.chaos.seed = seed;
  config.chaos.gray_mtbf_s = 4;
  config.chaos.gray_mttr_s = 1;
  config.chaos.gray_factor = 3;
  config.chaos.flap_mtbf_s = 8;
  return scenario;
}

void MeasureServeTruth(Tracer* tracer, ServeScenario& scenario) {
  Scope span(tracer, "gpuexec.truth_measure");
  const gpuexec::HardwareOracle oracle;
  const gpuexec::Profiler profiler(oracle);
  scenario.truth_us.clear();
  double capacity_per_us = 0;  // pool throughput at the uniform mix
  std::vector<double> mean_us(scenario.gpus.size());
  for (const dnn::Network& network : scenario.networks) {
    std::vector<double> row;
    for (std::size_t g = 0; g < scenario.gpus.size(); ++g) {
      row.push_back(profiler.MeasureE2eUs(network, *scenario.gpus[g],
                                          scenario.batch));
      mean_us[g] += row.back() / scenario.networks.size();
    }
    scenario.truth_us.push_back(std::move(row));
  }
  for (double mean : mean_us) capacity_per_us += 1 / mean;
  // Offered load at 85% of the healthy pool's capacity: gray slowdowns
  // and outages push it past saturation, so queues fill and shed.
  scenario.config.arrival_rate_per_s = 0.85 * capacity_per_us * 1e6;
  double slowest = 0;
  for (const std::vector<double>& row : scenario.truth_us) {
    for (double us : row) slowest = std::max(slowest, us);
  }
  scenario.config.slo_ms = 3 * slowest / 1e3;
}

void FillServePredictions(const models::KwModel& kw, Tracer* tracer,
                          ServeScenario& scenario) {
  Scope span(tracer, "simsys.matrix_fill");
  simsys::ServingMatrixBuffer buffer;
  simsys::FillPredictedServingMatrix(kw, scenario.networks, scenario.gpus,
                                     scenario.batch, buffer,
                                     scenario.predicted_us);
}

simsys::ServingResult Simulate(const ServeScenario& scenario,
                               obs::FlightRecorder* recorder,
                               Outcome& outcome) {
  obs::Counter& arrived = RegistryCounter("gpuperf_serving_jobs_arrived");
  simsys::ServingConfig config = scenario.config;
  config.recorder = recorder;
  const std::uint64_t before = arrived.Value();
  StatusOr<simsys::ServingResult> result =
      simsys::SimulateServing(scenario.truth_us, scenario.predicted_us,
                              scenario.mix, config);
  if (!outcome.Check(result.ok(), "SimulateServing: " +
                                      (result.ok() ? std::string()
                                                   : result.status().message()))) {
    return {};
  }
  CheckAccounting(*result, static_cast<std::int64_t>(arrived.Value() - before),
                  outcome);
  return *std::move(result);
}

double ServeSloAttainmentPct(const models::KwModel& kw, std::uint64_t seed,
                             Outcome& outcome) {
  ServeScenario scenario = ServeInputs(seed);
  MeasureServeTruth(nullptr, scenario);
  FillServePredictions(kw, nullptr, scenario);
  return 100 * Simulate(scenario, nullptr, outcome).slo_attainment;
}

void CheckAccounting(const simsys::ServingResult& result,
                     std::int64_t arrivals, Outcome& outcome) {
  outcome.Check(arrivals > 0 && arrivals == result.completed + result.dropped +
                                                result.shed_on_admission,
                "arrivals = completed + dropped + shed");
}

std::string TrainAndSaveBundle(const Options& options, Trained& trained,
                               Outcome& outcome) {
  TrainCampaign(options.seed, nullptr, trained);
  const std::string path = options.work_dir + "/" + options.workload +
                           "-bundle-" + std::to_string(getpid());
  const Status saved = models::ModelIo::SaveKw(trained.kw, path);
  return outcome.Check(saved.ok(), "SaveKw: " + saved.message()) ? path : "";
}

bool LoadBundle(const std::string& path, Tracer* tracer, Outcome& outcome,
                models::KwModel& kw) {
  Scope span(tracer, "models.bundle_load");
  StatusOr<models::KwModel> loaded = models::ModelIo::LoadKw(path);
  if (!outcome.Check(loaded.ok(),
                     "LoadKw: " + (loaded.ok() ? std::string()
                                               : loaded.status().message()))) {
    return false;
  }
  kw = std::move(loaded).value();
  return true;
}

void ReleaseForRounds(Trained& trained) {
  trained.networks = {};
  trained.data = {};
  trained.split = {};
  malloc_trim(0);
  ResetPeakRss();
}

std::map<std::string, double> DatasetFacts(const Trained& trained) {
  return {{"dataset.network_rows",
           static_cast<double>(trained.data.network_rows().size())},
          {"dataset.kernel_rows",
           static_cast<double>(trained.data.kernel_rows().size())},
          {"kw.kernels_a100", static_cast<double>(trained.kw.KernelCount("A100"))},
          {"kw.clusters_a100",
           static_cast<double>(trained.kw.ClusterCount("A100"))}};
}

void CheckCommonFacts(const Options& options,
                      std::map<std::string, double> facts,
                      const Accuracy& accuracy, double slo_attainment_pct,
                      Outcome& outcome) {
  if (options.seed != kDefaultSeed) return;
  facts["cv.kw_error_pct"] = accuracy.kw_error_pct;
  facts["cv.igkw_error_pct"] = accuracy.igkw_error_pct;
  facts["serve.slo_attainment_pct"] = slo_attainment_pct;
  CheckReference(options.reference_path, facts, outcome);
}

std::vector<double> AdjacentRatios(const std::vector<double>& round_s) {
  std::vector<double> ratios;
  for (std::size_t i = 1; i < round_s.size(); i += 2) {
    ratios.push_back(round_s[i] / round_s[i - 1]);
  }
  return ratios;
}

void AddEndToEnd(Report& report, const SetupTiming& setup,
                 double peak_rss_mb, const std::vector<double>& slowdown,
                 const std::vector<double>& items_per_s,
                 const std::vector<double>& single_queries_per_s,
                 const std::vector<double>& cold_plans_per_s,
                 const std::vector<double>& recorder_slowdown,
                 const Accuracy& accuracy, double slo_attainment_pct) {
  auto at_reference = [&](const std::vector<double>& rates) {
    std::vector<double> scaled;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      scaled.push_back(rates[i] * slowdown[i]);
    }
    return Median(scaled);
  };
  report.Add("setup_s", setup.reference_s, "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("items_per_s", at_reference(items_per_s), "1/s");
  report.Add("single_queries_per_s", at_reference(single_queries_per_s),
             "1/s");
  report.Add("cold_plans_per_s", at_reference(cold_plans_per_s), "1/s");
  report.Add("recorder_slowdown", Median(recorder_slowdown), "ratio");
  report.Add("kw_error_pct", accuracy.kw_error_pct, "%");
  report.Add("igkw_error_pct", accuracy.igkw_error_pct, "%");
  report.Add("slo_attainment_pct", slo_attainment_pct, "%");
  report.context = {{"host_slowdown", Median(slowdown), "ratio"},
                    {"raw.setup_s", setup.raw_s, "s"},
                    {"raw.items_per_s", Median(items_per_s), "1/s"},
                    {"raw.single_queries_per_s",
                     Median(single_queries_per_s), "1/s"},
                    {"raw.cold_plans_per_s", Median(cold_plans_per_s), "1/s"}};
}

}  // namespace perfbench
