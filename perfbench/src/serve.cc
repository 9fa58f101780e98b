// The `serve` workload: one fixed serve-sim scenario called directly
// through SimulateServing, with predicted-least-load dispatch on the
// bundle's KW matrix against oracle truth. Each round refreshes the
// dispatch matrix from a fresh copy of the loaded bundle (as a promotion
// does) and re-checks it per query, then runs the simulation with the
// recorder detached and again attached plus timeline export, so the
// recorder's cost is an in-process A/B ratio. It is the only workload
// whose rounds run simsys (event queue, dispatch), common (fault and
// chaos plans) and obs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "pipeline.h"

namespace perfbench {
namespace {

using namespace gpuperf;

// Per-query PredictUs re-checks of the 48-cell matrix per round.
constexpr int kCheckSweeps = 50;
constexpr int kFillCopies = 4;

/** Bitwise equality of two simulation results. */
bool SameResult(const simsys::ServingResult& a, const simsys::ServingResult& b) {
  const int ints_a[] = {a.completed, a.dropped, a.retries, a.dispatches,
                        a.degraded_dispatches, a.shed_on_admission,
                        a.deadline_misses, a.breaker_opens, a.hedges_issued,
                        a.hedges_won, a.retries_suppressed,
                        a.breakers_open_at_end};
  const int ints_b[] = {b.completed, b.dropped, b.retries, b.dispatches,
                        b.degraded_dispatches, b.shed_on_admission,
                        b.deadline_misses, b.breaker_opens, b.hedges_issued,
                        b.hedges_won, b.retries_suppressed,
                        b.breakers_open_at_end};
  const std::vector<double> doubles_a = {
      a.degraded_dispatch_fraction, a.slo_attainment, a.p50_ms, a.p95_ms,
      a.p99_ms, a.mean_ms};
  const std::vector<double> doubles_b = {
      b.degraded_dispatch_fraction, b.slo_attainment, b.p50_ms, b.p95_ms,
      b.p99_ms, b.mean_ms};
  return std::memcmp(ints_a, ints_b, sizeof(ints_a)) == 0 &&
         BitwiseEqual(doubles_a, doubles_b) &&
         BitwiseEqual(a.gpu_utilization, b.gpu_utilization) &&
         BitwiseEqual(a.gpu_availability, b.gpu_availability);
}

/** Set-up: load the bundle, build the job types, measure the truth. */
void SetUp(const std::string& bundle, std::uint64_t seed, Tracer* tracer,
           Outcome& outcome, models::KwModel& kw, ServeScenario& scenario) {
  Scope setup(tracer, "setup");
  if (!LoadBundle(bundle, tracer, outcome, kw)) return;
  scenario = ServeInputs(seed);
  MeasureServeTruth(tracer, scenario);
}

/** Timings and products of one round. */
struct Round {
  simsys::ServingResult detached;
  double fill_s = 0;
  double check_s = 0;
  double detached_s = 0;
  double attached_s = 0;
  double plans = 0;
  double check_queries = 0;
  double arrivals = 0;
  std::size_t frames = 0;
  double total_s() const { return fill_s + check_s + detached_s + attached_s; }
};

Round RunRound(const models::KwModel& loaded, ServeScenario& scenario,
               Tracer* tracer, Outcome& outcome) {
  Round round;
  Scope root(tracer, "round");
  // Refresh: a copy of the loaded bundle that never compiled a plan
  // compiles one per matrix cell. A refresh takes milliseconds, so each
  // round refreshes from kFillCopies copies. Every job type is fully
  // covered, so no cell holds the NaN degrade sentinel, and each must
  // equal the loaded model's per-query PredictUs bit for bit.
  obs::Counter& compiles = RegistryCounter("gpuperf_predictor_plan_compiles");
  for (int copy = 0; copy < kFillCopies; ++copy) {
    const models::KwModel kw = loaded;
    const std::uint64_t compiles0 = compiles.Value();
    const double fill_start = NowS();
    FillServePredictions(kw, tracer, scenario);
    round.fill_s += NowS() - fill_start;
    round.plans += static_cast<double>(compiles.Value() - compiles0);
  }
  const double fill_end = NowS();
  std::vector<double> each;
  {
    Scope span(tracer, "models.predict_us");
    for (int sweep = 0; sweep < kCheckSweeps; ++sweep) {
      each.clear();
      for (const dnn::Network& network : scenario.networks) {
        for (const gpuexec::GpuSpec* gpu : scenario.gpus) {
          each.push_back(loaded.PredictUs(network, *gpu, scenario.batch));
        }
      }
    }
  }
  const double check_end = NowS();
  std::vector<double> matrix;
  for (const std::vector<double>& row : scenario.predicted_us) {
    matrix.insert(matrix.end(), row.begin(), row.end());
  }
  outcome.Check(BitwiseEqual(matrix, each) && AllFinitePositive(matrix),
                "serve: matrix == PredictUs bitwise, all cells covered");

  // A/B: the same simulation with the recorder detached, then attached.
  obs::Counter& arrived = RegistryCounter("gpuperf_serving_jobs_arrived");
  const std::uint64_t before = arrived.Value();
  {
    Scope span(tracer, "simsys.simulate");
    round.detached = Simulate(scenario, nullptr, outcome);
  }
  const double detached_end = NowS();
  round.arrivals = static_cast<double>(arrived.Value() - before);
  obs::FlightRecorder recorder(scenario.config.recorder_config);
  simsys::ServingResult attached;
  {
    Scope span(tracer, "obs.recorded_simulate");
    attached = Simulate(scenario, &recorder, outcome);
  }
  std::size_t csv_lines = 0;
  {
    Scope span(tracer, "obs.timeline_csv");
    obs::FlightTimeline timeline;
    timeline.Append(recorder, "serve");
    const std::string csv = timeline.Csv();
    csv_lines = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  }
  const double end = NowS();
  round.frames = recorder.frames().size();
  // Below the header, every closed frame adds at least one row.
  outcome.Check(round.frames > 0 && csv_lines > round.frames,
                "serve: recorder closed frames and the timeline has their rows");
  outcome.Check(SameResult(round.detached, attached),
                "serve: detached and attached results bit-identical");

  round.check_s = check_end - fill_end;
  round.detached_s = detached_end - check_end;
  round.attached_s = end - detached_end;
  round.check_queries = static_cast<double>(kCheckSweeps * each.size());
  return round;
}

/** The chaos timeline SimulateServing builds internally (traced probe). */
void ChaosProbe(const ServeScenario& scenario, Tracer* tracer) {
  Scope span(tracer, "probe.chaos_plan");
  const double horizon_us = scenario.config.duration_s * 1e6;
  const FaultPlan base(scenario.gpus.size(), horizon_us, scenario.config.faults);
  const ChaosPlan chaos(scenario.gpus.size(), horizon_us,
                        scenario.config.chaos, &base);
  if (chaos.empty()) std::fprintf(stderr, "perfbench: empty chaos plan\n");
}

}  // namespace

void RunServe(const Options& options, Report& report, Outcome& outcome) {
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
  models::KwModel kw;
  ServeScenario scenario;
  const SetupTiming setup = MedianSetupS([&] {
    SetUp(bundle, options.seed, trace, outcome, kw, scenario);
  });
  std::error_code ignored;
  std::filesystem::remove_all(bundle, ignored);
  if (scenario.truth_us.empty()) return;

  std::vector<Round> rounds, traced;
  const std::vector<double> slowdown = RunRounds(options.seconds, 8, [&] {
    const bool trace_round = options.trace && rounds.size() > traced.size();
    Round round = RunRound(kw, scenario, trace_round ? &tracer : nullptr,
                           outcome);
    if (!rounds.empty()) {
      outcome.Check(SameResult(round.detached, rounds.front().detached),
                    "serve: round repeats exactly");
    }
    (trace_round ? traced : rounds).push_back(std::move(round));
    if (trace_round) ChaosProbe(scenario, &tracer);
  });
  const double peak_rss_mb = PeakRssMb();
  const Round& last = rounds.back();
  const simsys::ServingResult& first = rounds.front().detached;

  const double slo_pct = 100 * first.slo_attainment;
  std::map<std::string, double> pinned = facts;
  pinned["serve.arrivals"] = last.arrivals;
  pinned["serve.shed"] = first.shed_on_admission;
  pinned["serve.hedges_won"] = first.hedges_won;
  pinned["serve.breaker_opens"] = first.breaker_opens;
  pinned["serve.frames"] = static_cast<double>(last.frames);
  CheckCommonFacts(options, pinned, accuracy, slo_pct, outcome);
  outcome.Check(first.shed_on_admission > 0 && first.dropped > 0 &&
                    first.retries > 0 && first.hedges_won > 0 &&
                    first.retries_suppressed > 0 && first.breaker_opens > 0 &&
                    first.deadline_misses > 0,
                "serve: every countermeasure fired");

  if (options.trace) {
    tracer.Write(options);
    const std::vector<Phase> phases = PhasesOf(tracer, "round");
    const std::vector<Phase> setups = PhasesOf(tracer, "setup");
    auto row = [&](const char* metric, const std::vector<Phase>& in,
                   const char* span, double scale) {
      report.Layer(metric, scale * MedianSelfS(in, span),
                   MedianSharePct(in, span));
    };
    row("models.bundle_load_s", setups, "models.bundle_load", 1);
    row("gpuexec.truth_measure_s", setups, "gpuexec.truth_measure", 1);
    row("simsys.matrix_fill_us", phases, "simsys.matrix_fill",
        1e6 / kFillCopies);
    row("models.predict_us_ns", phases, "models.predict_us",
        1e9 / last.check_queries);
    row("simsys.simulate_s", phases, "simsys.simulate", 1);
    row("obs.recorded_simulate_s", phases, "obs.recorded_simulate", 1);
    row("obs.timeline_csv_s", phases, "obs.timeline_csv", 1);
    std::vector<double> probe_s, round_s;
    for (const Phase& p : PhasesOf(tracer, "probe.chaos_plan")) {
      probe_s.push_back(p.duration_s);
    }
    for (const Phase& p : phases) round_s.push_back(p.duration_s);
    // The probe stands for work inside each simulate call.
    report.Layer("common.chaos_plan_us", 1e6 * Median(probe_s),
                 100 * Median(probe_s) / Median(round_s));
    report.Layer("obs.frames", static_cast<double>(last.frames));
    report.Layer("simsys.dispatches_per_arrival",
                 first.dispatches / last.arrivals);
    report.Layer("simsys.hedge_win_ratio",
                 static_cast<double>(first.hedges_won) / first.hedges_issued);
    report.Layer("simsys.shed_ratio", first.shed_on_admission / last.arrivals);
    std::vector<double> untraced_s, traced_s;
    for (const Round& r : rounds) untraced_s.push_back(r.total_s());
    for (const Round& r : traced) traced_s.push_back(r.total_s());
    report.trace_overhead_pct = TraceOverheadPct(untraced_s, traced_s);
    return;
  }

  std::vector<double> items, single, cold, ratio;
  for (const Round& r : rounds) {
    items.push_back(r.arrivals / r.detached_s);
    single.push_back(r.check_queries / r.check_s);
    cold.push_back(r.plans / r.fill_s);
    ratio.push_back(r.attached_s / r.detached_s);
  }
  AddEndToEnd(report, setup, peak_rss_mb, slowdown, items, single, cold,
              ratio, accuracy, slo_pct);
}

}  // namespace perfbench
