// The `predict` workload: the online predictor a scheduler calls. The
// bundle is trained and saved once; each set-up loads it with LoadKw and
// warms the hot set. Each round compiles plans on copies of never-queried
// models (cold), sweeps the hot set through PredictMany (warm), and
// answers the same queries one PredictUs at a time. It is all `models`:
// plan compile, fingerprinting, plan cache and plan evaluation; it
// bypasses the oracle and simsys.

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "models/network_cache.h"
#include "pipeline.h"
#include "zoo/zoo.h"

namespace perfbench {
namespace {

using namespace gpuperf;

// The hot set: 11 networks x 7 GPUs = 77 KW plans (plus 11 IGKW plans on
// the unseen GPU), small enough to stay cache-resident, so the warm sweep
// measures plan evaluation rather than memory misses.
constexpr const char* kHotNetworks[] = {
    "resnet18",      "resnet50", "resnet101", "densenet121",
    "mobilenet_v2",  "vgg11_bn", "vgg16_bn",  "googlenet",
    "squeezenet1_1", "alexnet",  "shufflenet_v1"};
constexpr std::int64_t kBatches[] = {1, 2, 4, 8, 16, 32, 64, 128};
// Every 64th zoo network (11) compiles cold on all 7 GPUs, per model.
constexpr int kColdStride = 64;
// Sweeps per round, so each timed phase lasts milliseconds.
constexpr int kWarmSweeps = 40;
constexpr int kSingleSweeps = 5;
constexpr int kProbeRepeats = 20;

/** What a set-up builds and the rounds reuse. */
struct Ready {
  models::KwModel kw;             // loaded, hot plans compiled
  models::KwModel pristine_kw;    // loaded, never queried
  models::IgkwModel igkw;         // hot plans compiled
  models::IgkwModel pristine_igkw;
  std::vector<dnn::Network> hot, cold;
  std::vector<models::PredictQuery> kw_queries, igkw_queries;
};

/** One round's timings and counts. */
struct Round {
  double total_s = 0;
  double cold_s = 0;
  double warm_s = 0;
  double single_s = 0;
  double plans = 0;
  double warm_queries = 0;
  double single_queries = 0;
  double warm_compiles = 0;
};

std::vector<models::PredictQuery> Queries(
    const std::vector<dnn::Network>& networks,
    const std::vector<const gpuexec::GpuSpec*>& gpus) {
  std::vector<models::PredictQuery> queries;
  for (const dnn::Network& network : networks) {
    for (const gpuexec::GpuSpec* gpu : gpus) {
      for (std::int64_t batch : kBatches) {
        queries.push_back({&network, gpu, batch});
      }
    }
  }
  return queries;
}

/** Set-up: load the bundle, build the query sets, compile the hot plans. */
void SetUp(const std::string& bundle, const models::IgkwModel& igkw,
           Tracer* tracer, Outcome& outcome, Ready& ready) {
  Scope setup(tracer, "setup");
  if (!LoadBundle(bundle, tracer, outcome, ready.pristine_kw)) return;
  ready.hot.clear();
  for (const char* name : kHotNetworks) {
    ready.hot.push_back(zoo::BuildByName(name));
  }
  ready.cold = zoo::SmallZoo(kColdStride);
  std::vector<const gpuexec::GpuSpec*> all;
  for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) all.push_back(&gpu);
  ready.kw_queries = Queries(ready.hot, all);
  ready.igkw_queries = Queries(ready.hot, {&gpuexec::GpuByName(kUnseenGpu)});
  // IGKW has no bundle format; its model comes from the campaign.
  ready.pristine_igkw = igkw;
  ready.kw = ready.pristine_kw;
  ready.igkw = igkw;
  std::vector<double> out(ready.kw_queries.size());
  ready.kw.PredictMany(ready.kw_queries, out);
  out.resize(ready.igkw_queries.size());
  ready.igkw.PredictMany(ready.igkw_queries, out);
}

Round RunRound(const Ready& ready, Tracer* tracer, Outcome& outcome) {
  Round round;
  obs::Counter& compiles = RegistryCounter("gpuperf_predictor_plan_compiles");
  const double start = NowS();
  Scope root(tracer, "round");
  // Cold: first-sight plans on copies of models that never answered a
  // query (copying a never-queried model copies an empty plan cache).
  models::KwModel kw_copy = ready.pristine_kw;
  models::IgkwModel igkw_copy = ready.pristine_igkw;
  const std::uint64_t compiles0 = compiles.Value();
  const double cold_start = NowS();
  {
    Scope span(tracer, "models.kw_compile");
    for (const dnn::Network& network : ready.cold) {
      for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
        kw_copy.PlanFor(network, gpu);
      }
    }
  }
  {
    Scope span(tracer, "models.igkw_compile");
    for (const dnn::Network& network : ready.cold) {
      for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
        igkw_copy.PlanFor(network, gpu);
      }
    }
  }
  const double cold_end = NowS();
  round.plans = static_cast<double>(compiles.Value() - compiles0);
  outcome.Check(round.plans ==
                    2.0 * ready.cold.size() * gpuexec::AllGpus().size(),
                "predict: one compile per cold (network, GPU, model)");

  // Warm: the hot set through PredictMany; every plan is cached.
  std::vector<double> kw_many(ready.kw_queries.size());
  std::vector<double> igkw_many(ready.igkw_queries.size());
  {
    Scope span(tracer, "models.predict_many");
    for (int sweep = 0; sweep < kWarmSweeps; ++sweep) {
      ready.kw.PredictMany(ready.kw_queries, kw_many);
      ready.igkw.PredictMany(ready.igkw_queries, igkw_many);
    }
  }
  const double warm_end = NowS();
  round.warm_compiles =
      static_cast<double>(compiles.Value() - compiles0) - round.plans;
  outcome.Check(round.warm_compiles == 0,
                "predict: the warm phase compiles nothing");

  // The same queries one PredictUs at a time.
  std::vector<double> kw_each, igkw_each;
  {
    Scope span(tracer, "models.predict_us");
    for (int sweep = 0; sweep < kSingleSweeps; ++sweep) {
      kw_each = PredictEach(ready.kw, ready.kw_queries);
      igkw_each = PredictEach(ready.igkw, ready.igkw_queries);
    }
  }
  const double end = NowS();
  outcome.Check(BitwiseEqual(kw_many, kw_each) &&
                    BitwiseEqual(igkw_many, igkw_each),
                "predict: PredictMany == PredictUs bitwise");
  outcome.Check(AllFinitePositive(kw_many) && AllFinitePositive(igkw_many),
                "predict: predictions finite and positive");

  const double sweep_queries =
      static_cast<double>(ready.kw_queries.size() + ready.igkw_queries.size());
  round.total_s = end - start;
  round.cold_s = cold_end - cold_start;
  round.warm_s = warm_end - cold_end;
  round.single_s = end - warm_end;
  round.warm_queries = kWarmSweeps * sweep_queries;
  round.single_queries = kSingleSweeps * sweep_queries;
  return round;
}

/**
 * Traced-only probes of two costs the plan path hides inside PredictMany:
 * hashing a network, and evaluating one compiled plan. Returns the calls
 * each made.
 */
std::pair<double, double> Probes(const Ready& ready, Tracer* tracer) {
  Scope root(tracer, "probes");
  volatile std::uint64_t sink = 0;  // keeps the probed calls alive
  {
    Scope span(tracer, "probe.fingerprint");
    for (int r = 0; r < kProbeRepeats; ++r) {
      for (const dnn::Network& network : ready.hot) {
        sink = sink + models::NetworkFingerprint(network);
      }
    }
  }
  std::vector<const models::PredictionPlan*> plans;
  for (const dnn::Network& network : ready.hot) {
    for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
      plans.push_back(ready.kw.PlanFor(network, gpu));
    }
  }
  volatile double total = 0;
  {
    Scope span(tracer, "probe.plan_eval");
    for (int r = 0; r < kProbeRepeats; ++r) {
      for (const models::PredictionPlan* plan : plans) {
        for (std::int64_t batch : kBatches) total = total + plan->EvalUs(batch);
      }
    }
  }
  return {static_cast<double>(kProbeRepeats * ready.hot.size()),
          static_cast<double>(kProbeRepeats * plans.size() * std::size(kBatches))};
}

}  // namespace

void RunPredict(const Options& options, Report& report, Outcome& outcome) {
  // Before any set-up, one campaign trains and saves the bundle; the
  // campaign workload measures that work. Its accuracy is taken here, so
  // its dataset can be freed before the set-ups and rounds.
  Trained trained;
  const std::string bundle = TrainAndSaveBundle(options, trained, outcome);
  if (bundle.empty()) return;
  const Accuracy accuracy = CrossValidatedAccuracy(trained, options.seed);
  const std::map<std::string, double> facts = DatasetFacts(trained);
  ReleaseForRounds(trained);

  Tracer tracer;
  Tracer* trace = options.trace ? &tracer : nullptr;
  Ready ready;
  const SetupTiming setup =
      MedianSetupS([&] { SetUp(bundle, trained.igkw, trace, outcome, ready); });
  std::error_code ignored;
  std::filesystem::remove_all(bundle, ignored);
  if (ready.kw_queries.empty()) return;
  // Bundles store coefficients with 12 significant digits, so the loaded
  // model matches the trained one to that precision, not bit for bit.
  const std::vector<double> loaded = PredictEach(ready.kw, ready.kw_queries);
  const std::vector<double> in_memory = PredictEach(trained.kw, ready.kw_queries);
  bool round_trip = true;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    round_trip &= std::fabs(loaded[i] - in_memory[i]) <= 1e-9 * in_memory[i];
  }
  outcome.Check(round_trip, "predict: loaded bundle == trained model to 1e-9");

  std::vector<Round> rounds, traced;
  std::pair<double, double> probe_calls;
  const std::vector<double> slowdown = RunRounds(options.seconds, 4, [&] {
    const bool trace_round = options.trace && rounds.size() > traced.size();
    const Round round = RunRound(ready, trace_round ? &tracer : nullptr, outcome);
    (trace_round ? traced : rounds).push_back(round);
    if (trace_round) probe_calls = Probes(ready, &tracer);
  });
  const double peak_rss_mb = PeakRssMb();

  const double slo_pct = ServeSloAttainmentPct(ready.kw, options.seed, outcome);
  CheckCommonFacts(options, facts, accuracy, slo_pct, outcome);

  if (options.trace) {
    tracer.Write(options);
    const std::vector<Phase> phases = PhasesOf(tracer, "round");
    const std::vector<Phase> setups = PhasesOf(tracer, "setup");
    const std::vector<Phase> probes = PhasesOf(tracer, "probes");
    const Round& shape = rounds.front();
    auto row = [&](const char* metric, const std::vector<Phase>& in,
                   const char* span, double per) {
      report.Layer(metric, MedianSelfS(in, span) / per,
                   MedianSharePct(in, span));
    };
    row("models.bundle_load_s", setups, "models.bundle_load", 1);
    row("models.kw_compile_us", phases, "models.kw_compile", shape.plans / 2e6);
    row("models.igkw_compile_us", phases, "models.igkw_compile",
        shape.plans / 2e6);
    row("models.predict_many_ns", phases, "models.predict_many",
        shape.warm_queries / 1e9);
    row("models.predict_us_ns", phases, "models.predict_us",
        shape.single_queries / 1e9);
    // Probes run outside the round; their share is of the round whose
    // PredictMany calls they stand for.
    std::vector<double> round_s;
    for (const Phase& p : phases) round_s.push_back(p.duration_s);
    const double fingerprint_s = MedianSelfS(probes, "probe.fingerprint");
    const double eval_s = MedianSelfS(probes, "probe.plan_eval");
    report.Layer("models.fingerprint_ns", 1e9 * fingerprint_s / probe_calls.first,
                 100 * fingerprint_s / Median(round_s));
    report.Layer("models.plan_eval_ns", 1e9 * eval_s / probe_calls.second,
                 100 * eval_s / Median(round_s));
    report.Layer("models.plan_compiles_per_query",
                 shape.warm_compiles / shape.warm_queries);
    std::vector<double> untraced_s, traced_s;
    for (const Round& r : rounds) untraced_s.push_back(r.total_s);
    for (const Round& r : traced) traced_s.push_back(r.total_s);
    report.trace_overhead_pct = TraceOverheadPct(untraced_s, traced_s);
    return;
  }

  std::vector<double> items, single, cold, round_s;
  for (const Round& r : rounds) {
    items.push_back(r.warm_queries / r.warm_s);
    single.push_back(r.single_queries / r.single_s);
    cold.push_back(r.plans / r.cold_s);
    round_s.push_back(r.total_s);
  }
  // No recorder runs here: recorder_slowdown is the A/A control.
  AddEndToEnd(report, setup, peak_rss_mb, slowdown, items, single, cold,
              AdjacentRatios(round_s), accuracy, slo_pct);
}

}  // namespace perfbench
