// The `campaign` workload: the paper's offline path, as one
// `gpuperf dataset` -> `train` -> `eval` run does it. Each round profiles
// a zoo slice on all 7 GPUs from a cleared lowering cache (every CLI
// campaign is a fresh process), trains KW and IGKW, evaluates them per
// query, and checks the batched evaluator against the per-query one on
// the fresh models. It never touches simsys inside a round.

#include <map>
#include <string>
#include <vector>

#include "dnn/memory.h"
#include "gpuexec/lowering_cache.h"
#include "gpuexec/profiler.h"
#include "pipeline.h"
#include "zoo/zoo.h"

namespace perfbench {
namespace {

using namespace gpuperf;

constexpr int kFreshCopies = 4;

/** One round's timings, counts and deterministic products. */
struct Round {
  double total_s = 0;    // up to the end of the first copy's compiles
  double eval_s = 0;
  double compile_s = 0;
  double profiles = 0;
  double eval_queries = 0;
  double kw_plans = 0;
  double igkw_plans = 0;
  double lowering_hit_ratio = 0;
  std::map<std::string, double> facts;  // must repeat exactly
};

/**
 * Runs what BuildDataset runs internally, one layer at a time, so a
 * traced round can split dataset.build into lowering (on a cleared
 * cache), oracle profiling (on the warm cache) and assembly.
 */
void GpuexecProbes(const Trained& trained, Tracer* tracer, Outcome& outcome) {
  gpuexec::LoweringCache::Global().Clear();
  {
    Scope span(tracer, "probe.lower");
    for (const dnn::Network& network : trained.networks) {
      gpuexec::CachedLowerNetworkWorkload(network, kTrainBatch,
                                          gpuexec::Workload::kInference);
    }
  }
  Scope span(tracer, "probe.profile");
  const gpuexec::HardwareOracle oracle;
  const gpuexec::Profiler profiler(oracle);
  std::size_t profiles = 0;
  for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
    for (const dnn::Network& network : trained.networks) {
      if (!dnn::FitsInMemory(dnn::InferenceFootprintBytes(network, kTrainBatch),
                             gpu.memory_gb)) {
        continue;  // BuildDataset's out-of-memory filter
      }
      profiler.Profile(network, gpu, kTrainBatch);
      ++profiles;
    }
  }
  outcome.Check(profiles == trained.data.network_rows().size(),
                "campaign: profile probe covers the dataset's profiles");
}

/** One campaign round; a non-null `tracer` adds spans and probes. */
Round RunRound(std::uint64_t seed, Tracer* tracer, Outcome& outcome,
               Trained& trained) {
  Round round;
  obs::Counter& hits = RegistryCounter("gpuperf_lowering_cache_hits");
  obs::Counter& misses = RegistryCounter("gpuperf_lowering_cache_misses");
  obs::Counter& compiles = RegistryCounter("gpuperf_predictor_plan_compiles");
  const double start = NowS();
  Scope root(tracer, "round");
  gpuexec::LoweringCache::Global().Clear();
  const std::uint64_t hits0 = hits.Value(), misses0 = misses.Value();
  TrainCampaign(seed, tracer, trained);
  const double round_hits = static_cast<double>(hits.Value() - hits0);
  round.lowering_hit_ratio =
      round_hits / (round_hits + static_cast<double>(misses.Value() - misses0));

  // The evaluation and the batched evaluator's plan compiles see each
  // network for the first time. They take milliseconds, so each round
  // repeats them on kFreshCopies copies of the never-queried models, and
  // the round's items end after the first copy.
  const EvalSet set = BuildEvalSet(trained);
  std::vector<double> kw_each, igkw_each;
  for (int copy = 0; copy < kFreshCopies; ++copy) {
    models::KwModel kw = trained.kw;
    models::IgkwModel igkw = trained.igkw;
    const double eval_start = NowS();
    std::vector<double> kw_copy, igkw_copy;
    {
      Scope span(tracer, "models.eval");
      kw_copy = PredictEach(kw, set.kw_queries);
      igkw_copy = PredictEach(igkw, set.igkw_queries);
    }
    // The batched evaluator compiles a plan per (network, GPU) on these
    // never-planned models and must agree with PredictUs bit for bit.
    const double compile_start = NowS();
    const std::uint64_t compiles0 = compiles.Value();
    std::vector<double> kw_many(set.kw_queries.size());
    std::vector<double> igkw_many(set.igkw_queries.size());
    {
      Scope span(tracer, "models.kw_compile");
      kw.PredictMany(set.kw_queries, kw_many);
    }
    const std::uint64_t compiles1 = compiles.Value();
    {
      Scope span(tracer, "models.igkw_compile");
      igkw.PredictMany(set.igkw_queries, igkw_many);
    }
    const double end = NowS();
    outcome.Check(BitwiseEqual(kw_copy, kw_many) &&
                      BitwiseEqual(igkw_copy, igkw_many),
                  "campaign: PredictMany == PredictUs bitwise");
    if (copy == 0) {
      round.total_s = end - start;
      kw_each = std::move(kw_copy);
      igkw_each = std::move(igkw_copy);
    } else {
      outcome.Check(BitwiseEqual(kw_copy, kw_each) &&
                        BitwiseEqual(igkw_copy, igkw_each),
                    "campaign: every fresh copy predicts the same");
    }
    round.eval_s += compile_start - eval_start;
    round.compile_s += end - compile_start;
    round.eval_queries +=
        static_cast<double>(set.kw_queries.size() + set.igkw_queries.size());
    round.kw_plans += static_cast<double>(compiles1 - compiles0);
    round.igkw_plans += static_cast<double>(compiles.Value() - compiles1);
  }
  outcome.Check(AllFinitePositive(kw_each) && AllFinitePositive(igkw_each),
                "campaign: predictions finite and positive");
  round.profiles = static_cast<double>(trained.data.network_rows().size());
  round.facts = DatasetFacts(trained);
  round.facts["split.kw_error_pct"] =
      HeldOutErrorPct(kw_each, set.kw_truth_us, set.kw_held_out);
  round.facts["split.igkw_error_pct"] =
      HeldOutErrorPct(igkw_each, set.igkw_truth_us, set.igkw_held_out);
  if (tracer != nullptr) GpuexecProbes(trained, tracer, outcome);
  return round;
}

}  // namespace

void RunCampaign(const Options& options, Report& report, Outcome& outcome) {
  const SetupTiming setup = MedianSetupS([] {
    // A campaign's set-up is building the network list it will profile.
    const std::vector<dnn::Network> networks = zoo::SmallZoo(kZooStride);
  });

  Trained trained;
  std::vector<Round> rounds, traced;
  Tracer tracer;
  const std::vector<double> slowdown = RunRounds(options.seconds, 4, [&] {
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead is an in-process A/B; end-to-end metrics use neither.
    const bool trace = options.trace && rounds.size() > traced.size();
    const Round round =
        RunRound(options.seed, trace ? &tracer : nullptr, outcome, trained);
    if (!rounds.empty()) {
      outcome.Check(round.facts == rounds.front().facts,
                    "campaign: round repeats exactly");
    }
    (trace ? traced : rounds).push_back(round);
  });
  const double peak_rss_mb = PeakRssMb();
  const Round& first = rounds.front();

  const Accuracy accuracy = CrossValidatedAccuracy(trained, options.seed);
  const double slo_pct = ServeSloAttainmentPct(trained.kw, options.seed, outcome);
  CheckCommonFacts(options, first.facts, accuracy, slo_pct, outcome);

  if (options.trace) {
    tracer.Write(options);
    const std::vector<Phase> phases = PhasesOf(tracer, "round");
    // The probes repeat work dataset.build did inside BuildDataset, so
    // they are carved out of it and kept out of the round.
    std::vector<double> attributed_s;
    for (const Phase& phase : phases) {
      attributed_s.push_back(phase.duration_s -
                             phase.self_s.at("probe.lower") -
                             phase.self_s.at("probe.profile"));
    }
    const double round_s = Median(attributed_s);
    auto layer = [&](const char* metric, double seconds, double per = 1) {
      report.Layer(metric, seconds / per, 100 * seconds / round_s);
    };
    const double lower = MedianSelfS(phases, "probe.lower");
    const double profile = MedianSelfS(phases, "probe.profile");
    layer("zoo.build_s", MedianSelfS(phases, "zoo.build"));
    layer("gpuexec.lower_s", lower);
    layer("gpuexec.profile_s", profile);
    layer("dataset.build_s",
          MedianSelfS(phases, "dataset.build") - lower - profile);
    layer("models.kw_train_s", MedianSelfS(phases, "models.kw_train"));
    layer("models.igkw_train_s", MedianSelfS(phases, "models.igkw_train"));
    layer("models.eval_s", MedianSelfS(phases, "models.eval"), kFreshCopies);
    layer("models.kw_compile_us", MedianSelfS(phases, "models.kw_compile"),
          first.kw_plans / 1e6);
    layer("models.igkw_compile_us", MedianSelfS(phases, "models.igkw_compile"),
          first.igkw_plans / 1e6);
    report.Layer("gpuexec.lowering_hit_ratio", first.lowering_hit_ratio);
    report.Layer("dataset.kernel_rows", first.facts.at("dataset.kernel_rows"));
    report.Layer("models.cluster_ratio", first.facts.at("kw.clusters_a100") /
                                             first.facts.at("kw.kernels_a100"));
    std::vector<double> untraced_s, traced_s;
    for (const Round& r : rounds) untraced_s.push_back(r.total_s);
    for (const Round& r : traced) traced_s.push_back(r.total_s);
    report.trace_overhead_pct = TraceOverheadPct(untraced_s, traced_s);
    return;
  }

  std::vector<double> items, single, cold, round_s;
  for (const Round& r : rounds) {
    items.push_back(r.profiles / r.total_s);
    single.push_back(r.eval_queries / r.eval_s);
    cold.push_back((r.kw_plans + r.igkw_plans) / r.compile_s);
    round_s.push_back(r.total_s);
  }
  // No recorder runs here: recorder_slowdown is the A/A control.
  AddEndToEnd(report, setup, peak_rss_mb, slowdown, items, single, cold,
              AdjacentRatios(round_s), accuracy, slo_pct);
}

}  // namespace perfbench
