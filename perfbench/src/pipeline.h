#ifndef GPUPERF_PERFBENCH_PIPELINE_H_
#define GPUPERF_PERFBENCH_PIPELINE_H_

// The gpuperf calls the workloads share: the seeded measurement campaign
// (zoo -> dataset -> split -> KW/IGKW training), the bundle round trip,
// the cross-validated accuracy, the fixed serving scenario, and the
// end-to-end report. Every call into a library layer that a traced run
// attributes sits inside a Scope.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "dataset/dataset.h"
#include "dnn/network.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/oracle.h"
#include "models/igkw_model.h"
#include "models/kw_model.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "simsys/serving.h"

namespace perfbench {

/** The process-wide registry counter `name` (read as deltas). */
gpuperf::obs::Counter& RegistryCounter(const char* name);

/** Every 8th zoo network: 81 networks, ~0.75 s per campaign round. */
inline constexpr int kZooStride = 8;
inline constexpr double kTestFraction = 0.15;
inline constexpr std::int64_t kTrainBatch = 512;
/** IGKW trains on these and is evaluated on the unseen TITAN RTX. */
inline const std::vector<std::string> kIgkwTrainGpus = {"A100", "A40",
                                                         "GTX 1080 Ti"};
inline constexpr const char* kUnseenGpu = "TITAN RTX";

/** One campaign's products. */
struct Trained {
  std::vector<gpuperf::dnn::Network> networks;
  gpuperf::dataset::Dataset data;
  gpuperf::dataset::NetworkSplit split;
  gpuperf::models::KwModel kw;
  gpuperf::models::IgkwModel igkw;
};

/**
 * Campaign steps 1-5 (zoo slice, dataset on all 7 GPUs with one job,
 * seeded split, KW training, IGKW training), each inside its own span.
 */
void TrainCampaign(std::uint64_t seed, Tracer* tracer, Trained& out);

/**
 * The evaluation queries of a campaign: KW on every profiled network on
 * the A100, IGKW on every profiled network on the unseen TITAN RTX, with
 * the campaign's own measurements as truth. The query set does not
 * depend on the split, so its cost does not move with the seed; the
 * errors use only the held-out networks.
 */
struct EvalSet {
  std::vector<gpuperf::models::PredictQuery> kw_queries, igkw_queries;
  std::vector<double> kw_truth_us, igkw_truth_us;
  std::vector<bool> kw_held_out, igkw_held_out;
};
EvalSet BuildEvalSet(const Trained& trained);

/** Per-query PredictUs over `queries`. */
std::vector<double> PredictEach(
    const gpuperf::models::Predictor& model,
    const std::vector<gpuperf::models::PredictQuery>& queries);

/** Held-out MAPE (percent) of `predicted` against the set's truth. */
double HeldOutErrorPct(const std::vector<double>& predicted,
                       const std::vector<double>& truth_us,
                       const std::vector<bool>& held_out);

/** Held-out accuracy of the paper's two headline models. */
struct Accuracy {
  double kw_error_pct = 0;    // KW MAPE, A100
  double igkw_error_pct = 0;  // IGKW MAPE, unseen TITAN RTX
};

/** Folds (~14% of networks each) and seeded repeats of the accuracy CV. */
inline constexpr int kFolds = 7;
inline constexpr int kCvRepeats = 4;

/**
 * Seeded, repeated k-fold cross-validation over the trained campaign's
 * dataset: in each repeat every network is held out once, by a KW and
 * an IGKW model trained on the other folds, and the MAPE pools every
 * held-out prediction. A single 85/15 split holds out only ~12 networks
 * here, so its error moves by a factor of two from seed to seed.
 */
Accuracy CrossValidatedAccuracy(const Trained& trained, std::uint64_t seed);

/** The fixed serving scenario, sized near saturation. */
struct ServeScenario {
  std::vector<gpuperf::dnn::Network> networks;              // job types
  std::vector<const gpuperf::gpuexec::GpuSpec*> gpus;       // the pool
  std::vector<std::vector<double>> truth_us;                // oracle truth
  std::vector<std::vector<double>> predicted_us;            // KW matrix
  std::vector<double> mix;
  gpuperf::simsys::ServingConfig config;
  std::int64_t batch = 16;
};

/** Job types and pool of the serving scenario (no matrices yet). */
ServeScenario ServeInputs(std::uint64_t seed);

/**
 * Fills the oracle truth matrix (span gpuexec.truth_measure) and sizes
 * the arrival rate and SLO from it.
 */
void MeasureServeTruth(Tracer* tracer, ServeScenario& scenario);

/** Fills the KW-predicted matrix (span simsys.matrix_fill). */
void FillServePredictions(const gpuperf::models::KwModel& kw, Tracer* tracer,
                          ServeScenario& scenario);

/**
 * One SimulateServing call of `scenario`, with `recorder` attached when
 * non-null. Counts a non-ok status as a failed operation (and returns an
 * empty result), and checks the accounting identity.
 */
gpuperf::simsys::ServingResult Simulate(const ServeScenario& scenario,
                                        gpuperf::obs::FlightRecorder* recorder,
                                        Outcome& outcome);

/**
 * Predicted-least-load SLO attainment (percent) of the serving scenario
 * dispatched with `kw`; one simulation, deterministic per seed.
 */
double ServeSloAttainmentPct(const gpuperf::models::KwModel& kw,
                             std::uint64_t seed, Outcome& outcome);

/**
 * Trains the seed's campaign into `trained` and saves its KW bundle in
 * the work directory. Returns the bundle path, or "" after counting the
 * failed save.
 */
std::string TrainAndSaveBundle(const Options& options, Trained& trained,
                               Outcome& outcome);

/** LoadKw inside span models.bundle_load; false after counting a failure. */
bool LoadBundle(const std::string& path, Tracer* tracer, Outcome& outcome,
                gpuperf::models::KwModel& kw);

/**
 * Frees the campaign's networks, dataset and split, which the rounds of
 * predict and serve do not use, returns the memory to the system, and
 * resets the peak resident set, so peak_rss_mb covers set-up and rounds.
 */
void ReleaseForRounds(Trained& trained);

/** The campaign's dataset and A100 cluster counts, keyed as in reference.txt. */
std::map<std::string, double> DatasetFacts(const Trained& trained);

/**
 * For the default seed only: checks `facts` plus the cross-validated
 * errors and the SLO attainment against the reference file.
 */
void CheckCommonFacts(const Options& options,
                      std::map<std::string, double> facts,
                      const Accuracy& accuracy, double slo_attainment_pct,
                      Outcome& outcome);

/** Each odd-indexed round over the round before it. */
std::vector<double> AdjacentRatios(const std::vector<double>& round_s);

/**
 * Adds the nine end-to-end metrics. Each rate vector holds one raw sample
 * per round; a rate is reported at reference speed, as the median over
 * rounds of the rate times the round's host `slowdown`. The raw medians
 * and the median slowdown go to `report.context`.
 */
void AddEndToEnd(Report& report, const SetupTiming& setup,
                 double peak_rss_mb, const std::vector<double>& slowdown,
                 const std::vector<double>& items_per_s,
                 const std::vector<double>& single_queries_per_s,
                 const std::vector<double>& cold_plans_per_s,
                 const std::vector<double>& recorder_slowdown,
                 const Accuracy& accuracy, double slo_attainment_pct);

/**
 * Checks arrivals = completed + dropped + shed, where `arrivals` is the
 * simulator's own gpuperf_serving_jobs_arrived delta over the call.
 */
void CheckAccounting(const gpuperf::simsys::ServingResult& result,
                     std::int64_t arrivals, Outcome& outcome);

}  // namespace perfbench

#endif  // GPUPERF_PERFBENCH_PIPELINE_H_
