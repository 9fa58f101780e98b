#include "simsys/serving.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gpuexec/oracle.h"
#include "gpuexec/profiler.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "simsys/serving_matrix.h"
#include "zoo/zoo.h"

namespace gpuperf::simsys {
namespace {

// Two job types on two GPUs; gpu 0 is fast for job 0, gpu 1 for job 1.
std::vector<std::vector<double>> AffinityTimes() {
  return {{1'000.0, 8'000.0}, {8'000.0, 1'000.0}};
}

ServingConfig Config(DispatchPolicy policy, double rate = 100,
                     double duration = 20) {
  ServingConfig config;
  config.policy = policy;
  config.arrival_rate_per_s = rate;
  config.duration_s = duration;
  config.seed = 7;
  return config;
}

ServingConfig FaultyConfig(DispatchPolicy policy, double mtbf_s,
                           double mttr_s = 1, double rate = 100,
                           double duration = 20) {
  ServingConfig config = Config(policy, rate, duration);
  config.faults.mtbf_s = mtbf_s;
  config.faults.mttr_s = mttr_s;
  config.faults.seed = 11;
  return config;
}

/** Growth of the gpuperf_serving_* registry counters since construction. */
class RegistryDelta {
 public:
  RegistryDelta() {
    for (const char* family :
         {"gpuperf_serving_simulations", "gpuperf_serving_jobs_arrived",
          "gpuperf_serving_jobs_completed", "gpuperf_serving_jobs_dropped",
          "gpuperf_serving_jobs_shed", "gpuperf_serving_retries",
          "gpuperf_serving_retries_suppressed",
          "gpuperf_serving_breaker_opens", "gpuperf_serving_deadline_misses",
          "gpuperf_serving_hedges_issued", "gpuperf_serving_hedges_won"}) {
      before_[family] = Value(family);
    }
  }

  /** Growth of counter `family` since construction. */
  std::uint64_t operator()(const std::string& family) const {
    return Value(family) - before_.at(family);
  }

 private:
  static std::uint64_t Value(const std::string& family) {
    return obs::MetricsRegistry::Global().counter(family).Value();
  }

  std::map<std::string, std::uint64_t> before_;
};

/** Every arrival counted since `delta` completed, dropped or was shed. */
void ExpectArrivalsAccountedFor(const RegistryDelta& delta) {
  EXPECT_EQ(delta("gpuperf_serving_jobs_arrived"),
            delta("gpuperf_serving_jobs_completed") +
                delta("gpuperf_serving_jobs_dropped") +
                delta("gpuperf_serving_jobs_shed"));
}

TEST(ServingTest, CompletesAllArrivalsEventually) {
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kRoundRobin, 50, 10))
          .value();
  // ~50/s for 10s with some Poisson variance.
  EXPECT_GT(result.completed, 350);
  EXPECT_LT(result.completed, 650);
  EXPECT_EQ(result.dropped, 0);
  EXPECT_EQ(result.retries, 0);
}

TEST(ServingTest, LatencyPercentilesAreOrdered) {
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kLeastOutstanding))
          .value();
  EXPECT_LE(result.p50_ms, result.p95_ms);
  EXPECT_LE(result.p95_ms, result.p99_ms);
  EXPECT_GT(result.p50_ms, 0.0);
}

TEST(ServingTest, PredictionAwareDispatchExploitsAffinity) {
  // With strong per-job GPU affinity, the model-driven policy must
  // clearly beat round-robin on tail latency.
  ServingResult blind =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kRoundRobin, 300))
          .value();
  ServingResult aware =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 300))
          .value();
  EXPECT_LT(aware.p99_ms, blind.p99_ms);
  EXPECT_LT(aware.mean_ms, blind.mean_ms);
}

TEST(ServingTest, ImperfectPredictionsStillWork) {
  // Predictions off by a constant factor preserve the ordering, so the
  // policy should not collapse.
  auto predicted = AffinityTimes();
  for (auto& row : predicted) {
    for (double& v : row) v *= 1.3;
  }
  ServingResult result =
      SimulateServing(AffinityTimes(), predicted, {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 300))
          .value();
  ServingResult blind =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kRoundRobin, 300))
          .value();
  EXPECT_LT(result.p99_ms, blind.p99_ms);
}

TEST(ServingTest, UtilizationIsSane) {
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 100))
          .value();
  ASSERT_EQ(result.gpu_utilization.size(), 2u);
  for (double u : result.gpu_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  ASSERT_EQ(result.gpu_availability.size(), 2u);
  for (double a : result.gpu_availability) EXPECT_DOUBLE_EQ(a, 1.0);
}

TEST(ServingTest, DeterministicPerSeed) {
  ServingResult a = SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                                    Config(DispatchPolicy::kRoundRobin))
                        .value();
  ServingResult b = SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                                    Config(DispatchPolicy::kRoundRobin))
                        .value();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
}

TEST(ServingTest, JobMixWeightsAreRespected) {
  // Job 1 never arrives; only gpu-0-friendly jobs exist, so with the
  // aware policy gpu 0 should absorb nearly all the work.
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 0},
                      Config(DispatchPolicy::kPredictedLeastLoad, 50))
          .value();
  EXPECT_GT(result.gpu_utilization[0], result.gpu_utilization[1]);
}

TEST(ServingTest, PolicyNamesAreStable) {
  EXPECT_EQ(DispatchPolicyName(DispatchPolicy::kRoundRobin), "round-robin");
  EXPECT_EQ(DispatchPolicyName(DispatchPolicy::kPredictedLeastLoad),
            "predicted-least-load");
}

// --- Recoverable input validation (previously aborts).

TEST(ServingTest, BadInputsAreInvalidArgument) {
  EXPECT_EQ(SimulateServing({}, {}, {}, Config(DispatchPolicy::kRoundRobin))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SimulateServing(AffinityTimes(), AffinityTimes(), {0, 0},
                            Config(DispatchPolicy::kRoundRobin))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Ragged truth matrix.
  EXPECT_FALSE(SimulateServing({{1.0, 2.0}, {3.0}}, {}, {1, 1},
                               Config(DispatchPolicy::kRoundRobin))
                   .ok());
  // Non-finite service time.
  EXPECT_FALSE(
      SimulateServing({{1.0, std::nan("")}}, {}, {1},
                      Config(DispatchPolicy::kRoundRobin))
          .ok());
  // Shape-mismatched predictions.
  EXPECT_FALSE(SimulateServing(AffinityTimes(), {{1.0}}, {1, 1},
                               Config(DispatchPolicy::kRoundRobin))
                   .ok());
  // Bad rate / retry / fault knobs.
  ServingConfig bad_rate = Config(DispatchPolicy::kRoundRobin);
  bad_rate.arrival_rate_per_s = 0;
  EXPECT_FALSE(
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, bad_rate)
          .ok());
  ServingConfig bad_retry = Config(DispatchPolicy::kRoundRobin);
  bad_retry.retry.max_retries = -1;
  EXPECT_FALSE(
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, bad_retry)
          .ok());
  // mttr_s == 0 is legal (instant-repair blips); negative is not.
  ServingConfig bad_mttr = FaultyConfig(DispatchPolicy::kRoundRobin, 5, -1);
  EXPECT_FALSE(
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, bad_mttr)
          .ok());
}

TEST(ServingTest, ErrorMessagesNameTheField) {
  Status status = SimulateServing(AffinityTimes(), {{1.0}}, {1, 1},
                                  Config(DispatchPolicy::kRoundRobin))
                      .status();
  EXPECT_NE(status.message().find("predicted_service_us"), std::string::npos)
      << status.message();
}

// --- Graceful degradation without a model.

TEST(ServingTest, EmptyPredictionsDegradeToLeastOutstanding) {
  ServingResult degraded =
      SimulateServing(AffinityTimes(), {}, {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 300))
          .value();
  ServingResult least =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kLeastOutstanding, 300))
          .value();
  // Every decision degraded, and the degraded runs match the
  // least-outstanding policy exactly (same seed, same decisions).
  EXPECT_EQ(degraded.degraded_dispatches, degraded.dispatches);
  EXPECT_DOUBLE_EQ(degraded.degraded_dispatch_fraction, 1.0);
  EXPECT_EQ(degraded.completed, least.completed);
  EXPECT_DOUBLE_EQ(degraded.p99_ms, least.p99_ms);
}

TEST(ServingTest, NonFinitePredictionsDegradeOnlyAffectedDecisions) {
  auto predicted = AffinityTimes();
  predicted[1][0] = std::nan("");  // job 1's predictions unusable on gpu 0
  ServingResult result =
      SimulateServing(AffinityTimes(), predicted, {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 100))
          .value();
  EXPECT_GT(result.degraded_dispatches, 0);
  EXPECT_LT(result.degraded_dispatches, result.dispatches);
  ServingResult clean =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 100))
          .value();
  EXPECT_EQ(clean.degraded_dispatches, 0);
}

// --- Fault injection.

TEST(ServingTest, FaultsCauseRetriesAndReduceAvailability) {
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      FaultyConfig(DispatchPolicy::kLeastOutstanding,
                                   /*mtbf_s=*/3, /*mttr_s=*/1))
          .value();
  EXPECT_GT(result.retries, 0);
  double mean_avail = 0;
  for (double a : result.gpu_availability) mean_avail += a;
  mean_avail /= static_cast<double>(result.gpu_availability.size());
  EXPECT_LT(mean_avail, 1.0);
  EXPECT_GT(mean_avail, 0.3);
  // Accounting closes: every arrival either completed or was dropped.
  EXPECT_GT(result.completed, 0);
}

TEST(ServingTest, ZeroRetriesDropsInterruptedJobs) {
  ServingConfig config =
      FaultyConfig(DispatchPolicy::kRoundRobin, /*mtbf_s=*/2, /*mttr_s=*/2);
  config.retry.max_retries = 0;
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  EXPECT_EQ(result.retries, 0);
  EXPECT_GT(result.dropped, 0);
}

TEST(ServingTest, FaultFreeResultsUnchangedByFaultPlumbing) {
  // mtbf 0 must be byte-for-byte the old fault-free behavior.
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kPredictedLeastLoad, 100))
          .value();
  EXPECT_EQ(result.retries + result.dropped + result.degraded_dispatches, 0);
  EXPECT_EQ(result.completed, result.dispatches);
}

TEST(ServingTest, FaultInjectionIsBitIdenticalPerSeed) {
  const ServingConfig config =
      FaultyConfig(DispatchPolicy::kPredictedLeastLoad, 4, 1);
  ServingResult a =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  ServingResult b =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.p99_ms, b.p99_ms);  // bit-identical, not approximately
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  ASSERT_EQ(a.gpu_availability.size(), b.gpu_availability.size());
  for (std::size_t g = 0; g < a.gpu_availability.size(); ++g) {
    EXPECT_EQ(a.gpu_availability[g], b.gpu_availability[g]);
  }
}

/** One seed-sweep cell, run under `pool` into pre-sized slots. */
std::vector<ServingResult> SweepSeeds(int jobs) {
  constexpr int kSeeds = 8;
  std::vector<ServingResult> results(kSeeds);
  ThreadPool pool(jobs);
  pool.ParallelFor(kSeeds, [&](std::size_t i) {
    ServingConfig config =
        FaultyConfig(DispatchPolicy::kPredictedLeastLoad, 4, 1, 100, 10);
    config.seed = 100 + i;
    config.faults.seed = 200 + i;
    results[i] =
        SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
            .value();
  });
  return results;
}

TEST(ServingTest, GridMatchesPerCellRunsForEveryJobCount) {
  std::vector<ServingGridCell> cells;
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastOutstanding,
        DispatchPolicy::kPredictedLeastLoad}) {
    for (std::uint64_t seed : {3u, 17u}) cells.push_back({policy, seed});
  }
  const ServingConfig base = FaultyConfig(DispatchPolicy::kRoundRobin, 40);

  std::vector<ServingResult> expected;
  for (const ServingGridCell& cell : cells) {
    ServingConfig config = base;
    config.policy = cell.policy;
    config.seed = cell.seed;
    config.faults.seed = cell.seed;
    expected.push_back(
        SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
            .value());
  }

  for (int jobs : {1, 4}) {
    std::vector<StatusOr<ServingResult>> grid = SimulateServingGrid(
        AffinityTimes(), AffinityTimes(), {1, 1}, base, cells, jobs);
    ASSERT_EQ(grid.size(), cells.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(grid[i].ok()) << grid[i].status().message();
      EXPECT_EQ(grid[i].value().completed, expected[i].completed);
      EXPECT_EQ(grid[i].value().retries, expected[i].retries);
      EXPECT_EQ(grid[i].value().dropped, expected[i].dropped);
      EXPECT_DOUBLE_EQ(grid[i].value().p99_ms, expected[i].p99_ms);
    }
  }
}

TEST(ServingTest, GridReportsPerCellErrorsWithoutPoisoningTheRest) {
  const std::vector<ServingGridCell> cells = {{DispatchPolicy::kRoundRobin, 1},
                                              {DispatchPolicy::kRoundRobin, 2}};
  ServingConfig bad = Config(DispatchPolicy::kRoundRobin);
  bad.arrival_rate_per_s = -1;  // every cell inherits the invalid rate
  std::vector<StatusOr<ServingResult>> grid = SimulateServingGrid(
      AffinityTimes(), AffinityTimes(), {1, 1}, bad, cells, 2);
  ASSERT_EQ(grid.size(), 2u);
  for (const StatusOr<ServingResult>& cell : grid) {
    ASSERT_FALSE(cell.ok());
    EXPECT_EQ(cell.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServingTest, CountersAccumulateAcrossSimulations) {
  const RegistryDelta delta;
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      FaultyConfig(DispatchPolicy::kRoundRobin, 40))
          .value();
  EXPECT_EQ(delta("gpuperf_serving_simulations"), 1u);
  EXPECT_EQ(delta("gpuperf_serving_jobs_completed"),
            static_cast<std::uint64_t>(result.completed));
  EXPECT_EQ(delta("gpuperf_serving_jobs_dropped"),
            static_cast<std::uint64_t>(result.dropped));
  EXPECT_EQ(delta("gpuperf_serving_retries"),
            static_cast<std::uint64_t>(result.retries));

  // A grid of 4 cells adds 4 more simulations, even when run in parallel.
  const std::vector<ServingGridCell> cells = {
      {DispatchPolicy::kRoundRobin, 1},
      {DispatchPolicy::kRoundRobin, 2},
      {DispatchPolicy::kLeastOutstanding, 1},
      {DispatchPolicy::kLeastOutstanding, 2}};
  (void)SimulateServingGrid(AffinityTimes(), AffinityTimes(), {1, 1},
                            Config(DispatchPolicy::kRoundRobin), cells, 4);
  EXPECT_EQ(delta("gpuperf_serving_simulations"), 5u);
  // A fresh baseline starts from zero: nothing counts without a run.
  EXPECT_EQ(RegistryDelta()("gpuperf_serving_simulations"), 0u);
}

// --- Overload resilience: admission control, SLO deadlines, breakers.

/** FaultyConfig plus all three overload mechanisms switched on. */
ServingConfig OverloadConfig(DispatchPolicy policy, double rate = 400,
                             double mtbf_s = 3) {
  ServingConfig config = FaultyConfig(policy, mtbf_s, 1, rate, 10);
  config.queue_cap = 4;
  config.slo_ms = 15;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_ms = 500;
  return config;
}

TEST(ServingTest, OverloadFeaturesOffLeavesResultsByteIdentical) {
  // The back-compat guarantee: default (all-off) overload knobs must
  // reproduce the pre-overload simulator exactly, with zeroed counters.
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      FaultyConfig(DispatchPolicy::kPredictedLeastLoad, 4))
          .value();
  EXPECT_EQ(result.shed_on_admission, 0);
  EXPECT_EQ(result.deadline_misses, 0);
  EXPECT_EQ(result.breaker_opens, 0);
  // With no SLO every completion is "within SLO"; only drops miss.
  const int arrivals = result.completed + result.dropped;
  EXPECT_DOUBLE_EQ(result.slo_attainment,
                   static_cast<double>(result.completed) / arrivals);
}

TEST(ServingTest, BoundedQueuesShedInsteadOfGrowingLatency) {
  // 1000/s onto a pool whose blind-routing capacity is ~450/s: a 4-deep
  // cap must shed and keep p99 bounded, where the unbounded queue grows
  // for the whole horizon.
  ServingConfig capped = Config(DispatchPolicy::kLeastOutstanding, 1000, 10);
  capped.queue_cap = 4;
  ServingResult with_cap =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, capped)
          .value();
  ServingResult unbounded =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1},
                      Config(DispatchPolicy::kLeastOutstanding, 1000, 10))
          .value();
  EXPECT_GT(with_cap.shed_on_admission, 0);
  EXPECT_LT(with_cap.p99_ms, unbounded.p99_ms);
  // Fault-free accounting closes: every admitted job completed, every
  // other arrival was shed.
  EXPECT_EQ(with_cap.dispatches, with_cap.completed);
  EXPECT_EQ(with_cap.dropped, 0);
}

TEST(ServingTest, PredictionDrivenSheddingBeatsBlindOverload) {
  // With an SLO that queued-behind jobs cannot meet, the predictor sheds
  // them on admission instead of completing them late: its goodput
  // (completions inside the SLO) must beat a model-free dispatcher that
  // admits everything and completes almost everything late.
  ServingConfig slo =
      Config(DispatchPolicy::kPredictedLeastLoad, 3000, 5);
  slo.slo_ms = 10;
  ServingResult with_predictions =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, slo)
          .value();
  EXPECT_GT(with_predictions.shed_on_admission, 0);
  ServingConfig blind_config =
      Config(DispatchPolicy::kLeastOutstanding, 3000, 5);
  blind_config.slo_ms = 10;
  ServingResult blind =
      SimulateServing(AffinityTimes(), {}, {1, 1}, blind_config).value();
  EXPECT_EQ(blind.shed_on_admission, 0);  // no model, nothing to shed on
  EXPECT_GT(with_predictions.completed - with_predictions.deadline_misses,
            blind.completed - blind.deadline_misses);
}

TEST(ServingTest, DeadlineMissesAreCountedWithoutShedding) {
  // A model-free overloaded dispatcher completes jobs late: they count
  // as deadline misses, and attainment reflects exactly the on-time
  // completions over all arrivals.
  ServingConfig slo = Config(DispatchPolicy::kLeastOutstanding, 1000, 10);
  slo.slo_ms = 10;
  ServingResult result =
      SimulateServing(AffinityTimes(), {}, {1, 1}, slo).value();
  EXPECT_GT(result.deadline_misses, 0);
  EXPECT_GT(result.slo_attainment, 0.0);
  EXPECT_LT(result.slo_attainment, 1.0);
  const int arrivals = result.completed + result.dropped;
  EXPECT_DOUBLE_EQ(
      result.slo_attainment,
      static_cast<double>(result.completed - result.deadline_misses) /
          arrivals);
}

TEST(ServingTest, BreakersOpenUnderFaultsAndKeepAccountingClosed) {
  ServingConfig flaky =
      FaultyConfig(DispatchPolicy::kLeastOutstanding, /*mtbf_s=*/2,
                   /*mttr_s=*/2, 100, 20);
  flaky.retry.max_retries = 1;
  ServingConfig with_breakers = flaky;
  with_breakers.breaker.failure_threshold = 1;
  with_breakers.breaker.cooldown_ms = 1000;
  ServingResult off = SimulateServing(AffinityTimes(), AffinityTimes(),
                                      {1, 1}, flaky)
                          .value();
  ServingResult on = SimulateServing(AffinityTimes(), AffinityTimes(),
                                     {1, 1}, with_breakers)
                         .value();
  EXPECT_EQ(off.breaker_opens, 0);
  EXPECT_GT(on.breaker_opens, 0);
  // Same seed, same Poisson stream: every arrival still terminates
  // exactly once whether or not breakers reroute it.
  EXPECT_EQ(on.completed + on.dropped, off.completed + off.dropped);
}

TEST(ServingTest, OverloadKnobValidationNamesTheField) {
  const struct {
    const char* field;
    void (*set)(ServingConfig*);
  } cases[] = {
      {"queue_cap", [](ServingConfig* c) { c->queue_cap = -1; }},
      {"slo_ms", [](ServingConfig* c) { c->slo_ms = -5; }},
      {"slo_ms", [](ServingConfig* c) { c->slo_ms = std::nan(""); }},
      {"breaker.failure_threshold",
       [](ServingConfig* c) { c->breaker.failure_threshold = -2; }},
      {"breaker.cooldown_ms",
       [](ServingConfig* c) {
         c->breaker.failure_threshold = 1;
         c->breaker.cooldown_ms = -1;
       }},
      {"breaker.half_open_probes",
       [](ServingConfig* c) {
         c->breaker.failure_threshold = 1;
         c->breaker.half_open_probes = 0;
       }},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.field);
    ServingConfig config = Config(DispatchPolicy::kRoundRobin);
    test_case.set(&config);
    Status status =
        SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
            .status();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(test_case.field), std::string::npos)
        << status.message();
  }
}

TEST(ServingTest, OverloadGridIsBitIdenticalAcrossJobCounts) {
  // The acceptance criterion: shedding, deadlines, and breakers all
  // enabled, and every grid cell bit-identical for every --jobs value.
  std::vector<ServingGridCell> cells;
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastOutstanding,
        DispatchPolicy::kPredictedLeastLoad}) {
    for (std::uint64_t seed : {5u, 23u}) cells.push_back({policy, seed});
  }
  const ServingConfig base = OverloadConfig(DispatchPolicy::kRoundRobin);
  // Optimistic predictions (70% of truth): realistic model error, and the
  // reason deadline *misses* occur at all — a perfectly predicted job is
  // either shed or on time, never late.
  std::vector<std::vector<double>> optimistic = AffinityTimes();
  for (auto& row : optimistic) {
    for (double& v : row) v *= 0.7;
  }

  std::vector<StatusOr<ServingResult>> one = SimulateServingGrid(
      AffinityTimes(), optimistic, {1, 1}, base, cells, 1);
  for (int jobs : {2, 4}) {
    std::vector<StatusOr<ServingResult>> many = SimulateServingGrid(
        AffinityTimes(), optimistic, {1, 1}, base, cells, jobs);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      ASSERT_TRUE(one[i].ok());
      ASSERT_TRUE(many[i].ok());
      EXPECT_EQ(one[i]->completed, many[i]->completed) << i;
      EXPECT_EQ(one[i]->shed_on_admission, many[i]->shed_on_admission) << i;
      EXPECT_EQ(one[i]->deadline_misses, many[i]->deadline_misses) << i;
      EXPECT_EQ(one[i]->breaker_opens, many[i]->breaker_opens) << i;
      EXPECT_EQ(one[i]->slo_attainment, many[i]->slo_attainment) << i;
      EXPECT_EQ(one[i]->p99_ms, many[i]->p99_ms) << i;
    }
  }
  // And at least one cell actually exercised each mechanism, so the
  // bit-identical claim is not vacuous.
  int shed = 0, opens = 0, misses = 0;
  for (const StatusOr<ServingResult>& cell : one) {
    shed += cell->shed_on_admission;
    opens += cell->breaker_opens;
    misses += cell->deadline_misses;
  }
  EXPECT_GT(shed, 0);
  EXPECT_GT(opens, 0);
  EXPECT_GT(misses, 0);
}

TEST(ServingTest, ShedJobsCountInGlobalCounters) {
  const RegistryDelta delta;
  ServingConfig config = OverloadConfig(DispatchPolicy::kLeastOutstanding);
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  EXPECT_EQ(delta("gpuperf_serving_jobs_shed"),
            static_cast<std::uint64_t>(result.shed_on_admission));
  EXPECT_EQ(delta("gpuperf_serving_breaker_opens"),
            static_cast<std::uint64_t>(result.breaker_opens));
}

TEST(ServingTest, EveryArrivalIsAccountedFor) {
  // The observability smoke-check invariant: every job that arrives is
  // either completed, dropped, or shed — under faults, retries, bounded
  // queues, and breakers all at once.
  const RegistryDelta delta;
  ServingConfig config = OverloadConfig(DispatchPolicy::kLeastOutstanding);
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  EXPECT_GT(delta("gpuperf_serving_jobs_arrived"), 0u);
  ExpectArrivalsAccountedFor(delta);
  EXPECT_EQ(delta("gpuperf_serving_jobs_arrived"),
            static_cast<std::uint64_t>(result.completed + result.dropped +
                                       result.shed_on_admission));
}

// Runs one simulation and asserts the conservation invariant both on
// the global counters and the per-run result: every arrival is exactly
// one of completed / dropped / shed.
ServingResult RunAndCheckAccounting(const ServingConfig& config) {
  const RegistryDelta delta;
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  EXPECT_GT(delta("gpuperf_serving_jobs_arrived"), 0u);
  ExpectArrivalsAccountedFor(delta);
  EXPECT_EQ(delta("gpuperf_serving_jobs_arrived"),
            static_cast<std::uint64_t>(result.completed + result.dropped +
                                       result.shed_on_admission));
  return result;
}

TEST(ServingTest, MttrZeroFaultsKeepAccounting) {
  // Instant repair: zero-length outage blips still interrupt jobs in
  // flight, and every interrupted job must end up completed or dropped.
  ServingConfig config =
      FaultyConfig(DispatchPolicy::kLeastOutstanding, /*mtbf_s=*/2,
                   /*mttr_s=*/0);
  ServingResult result = RunAndCheckAccounting(config);
  EXPECT_GT(result.completed, 0);
  for (double a : result.gpu_availability) EXPECT_DOUBLE_EQ(a, 1.0);
}

TEST(ServingTest, SubTickMtbfKeepsAccounting) {
  // MTBF below one sim tick: GPUs fail essentially continuously, so
  // most jobs burn their whole retry budget — but nothing may leak.
  ServingConfig config = FaultyConfig(DispatchPolicy::kLeastOutstanding,
                                      /*mtbf_s=*/5e-7, /*mttr_s=*/5e-7,
                                      /*rate=*/2000, /*duration=*/0.05);
  ServingResult result = RunAndCheckAccounting(config);
  EXPECT_GT(result.retries, 0);
}

TEST(ServingTest, ExplicitPlanOutageAtTimeZeroKeepsAccounting) {
  // GPU 0 is already down at t=0 (explicit-plan override): arrivals
  // route to GPU 1 until repair, and the books still balance.
  FaultPlan plan({{{0.0, 5e6}}, {}}, /*horizon_us=*/20e6);
  ServingConfig config = Config(DispatchPolicy::kLeastOutstanding, 100, 20);
  config.fault_plan = &plan;
  ServingResult result = RunAndCheckAccounting(config);
  EXPECT_GT(result.completed, 0);
  ASSERT_EQ(result.gpu_availability.size(), 2u);
  EXPECT_LT(result.gpu_availability[0], 1.0);
  EXPECT_DOUBLE_EQ(result.gpu_availability[1], 1.0);
}

TEST(ServingTest, FaultSweepIsBitIdenticalAcrossJobCounts) {
  // The satellite determinism guarantee: a sweep of fault-injected
  // simulations produces bit-identical results whether run on 1 thread
  // or 4 — randomness lives in the per-cell seeds, never in scheduling.
  std::vector<ServingResult> serial = SweepSeeds(1);
  std::vector<ServingResult> parallel = SweepSeeds(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].completed, parallel[i].completed) << i;
    EXPECT_EQ(serial[i].dropped, parallel[i].dropped) << i;
    EXPECT_EQ(serial[i].retries, parallel[i].retries) << i;
    EXPECT_EQ(serial[i].p50_ms, parallel[i].p50_ms) << i;
    EXPECT_EQ(serial[i].p99_ms, parallel[i].p99_ms) << i;
    EXPECT_EQ(serial[i].mean_ms, parallel[i].mean_ms) << i;
    EXPECT_EQ(serial[i].degraded_dispatch_fraction,
              parallel[i].degraded_dispatch_fraction)
        << i;
  }
}

TEST(ServingTest, DriftPlumbingOffLeavesResultsByteIdentical) {
  // The back-compat guarantee of the drift/observation plumbing: an
  // empty schedule plus observation recording must reproduce the
  // pre-drift simulator bit for bit — recording is purely additive.
  const ServingConfig base = Config(DispatchPolicy::kPredictedLeastLoad);
  ServingResult off =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, base)
          .value();
  gpuexec::DriftSchedule empty_schedule(2, std::vector<gpuexec::DriftEvent>{});
  ServingConfig plumbed = base;
  plumbed.drift = &empty_schedule;
  plumbed.record_observations = true;
  ServingResult on =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, plumbed)
          .value();
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.p50_ms, on.p50_ms);
  EXPECT_EQ(off.p99_ms, on.p99_ms);
  EXPECT_EQ(off.mean_ms, on.mean_ms);
  EXPECT_EQ(off.gpu_utilization, on.gpu_utilization);
  EXPECT_TRUE(off.observations.empty());
  EXPECT_EQ(on.observations.size(), static_cast<std::size_t>(on.completed));
}

TEST(ServingTest, DriftScalesObservedServiceTimes) {
  // A +50% step on GPU 0 from t=0: every completed job on GPU 0 runs
  // exactly 1.5x its truth cell, GPU 1 stays nominal, and predictions
  // (the model's undrifted view) are recorded untouched.
  gpuexec::DriftSchedule drift(
      2, {{/*resource=*/0, /*at_us=*/0, /*ramp_us=*/0, /*factor=*/1.5,
           gpuexec::DriftScope::kAll}});
  ServingConfig config = Config(DispatchPolicy::kPredictedLeastLoad);
  config.drift = &drift;
  config.record_observations = true;
  ServingResult result =
      SimulateServing(AffinityTimes(), AffinityTimes(), {1, 1}, config)
          .value();
  ASSERT_GT(result.observations.size(), 0u);
  bool saw_gpu0 = false;
  for (const ServingObservation& obs : result.observations) {
    const double truth = AffinityTimes()[obs.job][obs.gpu];
    const double factor = obs.gpu == 0 ? 1.5 : 1.0;
    EXPECT_DOUBLE_EQ(obs.observed_us, factor * truth);
    EXPECT_DOUBLE_EQ(obs.predicted_us, truth);
    saw_gpu0 = saw_gpu0 || obs.gpu == 0;
  }
  EXPECT_TRUE(saw_gpu0);
}

TEST(ServingTest, DriftedGridIsBitIdenticalAcrossJobCounts) {
  // The drift determinism guarantee: a mid-horizon ramp changes what
  // happens, but never differently across --jobs values — the schedule
  // is precomputed, so thread count cannot perturb it.
  gpuexec::DriftSchedule drift(
      2, {{/*resource=*/0, /*at_us=*/5e6, /*ramp_us=*/5e6, /*factor=*/1.4,
           gpuexec::DriftScope::kAll}});
  ServingConfig base = Config(DispatchPolicy::kPredictedLeastLoad);
  base.drift = &drift;
  std::vector<ServingGridCell> cells;
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastOutstanding,
        DispatchPolicy::kPredictedLeastLoad}) {
    for (std::uint64_t seed : {5u, 23u}) cells.push_back({policy, seed});
  }
  std::vector<StatusOr<ServingResult>> one = SimulateServingGrid(
      AffinityTimes(), AffinityTimes(), {1, 1}, base, cells, 1);
  std::vector<StatusOr<ServingResult>> many = SimulateServingGrid(
      AffinityTimes(), AffinityTimes(), {1, 1}, base, cells, 4);
  ASSERT_EQ(many.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_TRUE(one[i].ok());
    ASSERT_TRUE(many[i].ok());
    EXPECT_EQ(one[i]->completed, many[i]->completed) << i;
    EXPECT_EQ(one[i]->p50_ms, many[i]->p50_ms) << i;
    EXPECT_EQ(one[i]->p99_ms, many[i]->p99_ms) << i;
    EXPECT_EQ(one[i]->mean_ms, many[i]->mean_ms) << i;
    EXPECT_EQ(one[i]->gpu_utilization, many[i]->gpu_utilization) << i;
  }
  // The ramp actually bit: the same grid without drift runs faster.
  std::vector<StatusOr<ServingResult>> undrifted = SimulateServingGrid(
      AffinityTimes(), AffinityTimes(), {1, 1},
      Config(DispatchPolicy::kPredictedLeastLoad), cells, 1);
  bool slower_somewhere = false;
  for (std::size_t i = 0; i < one.size(); ++i) {
    slower_somewhere =
        slower_somewhere || one[i]->mean_ms > undrifted[i]->mean_ms;
  }
  EXPECT_TRUE(slower_somewhere);
}

// --- Gray-failure resilience: chaos plans, hedging, retry budgets.

TEST(ServingTest, HedgingRescuesJobsStuckOnAGrayGpu) {
  // GPU 1 is secretly 50x slower than the model believes. Without
  // hedging, every job routed there eats the full gray service time;
  // with hedging, the duplicate lands on the healthy GPU and wins.
  const std::vector<std::vector<double>> truth = {{1'000.0, 50'000.0}};
  const std::vector<std::vector<double>> predicted = {{1'000.0, 1'000.0}};
  ServingConfig config = Config(DispatchPolicy::kPredictedLeastLoad, 50, 10);
  ServingResult unhedged =
      SimulateServing(truth, predicted, {1}, config).value();
  config.hedge_trigger_factor = 2;
  ServingResult hedged =
      SimulateServing(truth, predicted, {1}, config).value();
  EXPECT_GT(hedged.hedges_issued, 0);
  EXPECT_GT(hedged.hedges_won, 0);
  EXPECT_LE(hedged.hedges_won, hedged.hedges_issued);
  EXPECT_LT(hedged.p99_ms, unhedged.p99_ms);
  // Hedging changes latencies, never the conservation of jobs.
  EXPECT_EQ(hedged.completed + hedged.dropped + hedged.shed_on_admission,
            unhedged.completed + unhedged.dropped +
                unhedged.shed_on_admission);
}

TEST(ServingTest, HedgingUnderFaultsKeepsAccounting) {
  // Hedge legs interleaved with outages: failed primaries rescued by
  // hedges, failed hedges absorbed by primaries, double failures
  // retried exactly once — and every arrival still lands in exactly
  // one of completed / dropped / shed.
  ServingConfig config = OverloadConfig(DispatchPolicy::kPredictedLeastLoad);
  config.hedge_trigger_factor = 1.5;
  // Optimistic predictions (half of truth): real jobs overshoot their
  // prediction, so the hedge trigger actually fires.
  std::vector<std::vector<double>> optimistic = AffinityTimes();
  for (auto& row : optimistic) {
    for (double& v : row) v *= 0.5;
  }
  const RegistryDelta delta;
  ServingResult result =
      SimulateServing(AffinityTimes(), optimistic, {1, 1}, config).value();
  ExpectArrivalsAccountedFor(delta);
  EXPECT_GT(result.hedges_issued, 0);
}

TEST(ServingTest, RetryBudgetBoundsRetriesUnderMassFailure) {
  // Sub-tick MTBF: GPUs fail continuously, the classic retry-storm
  // trigger. The token bucket must cap retries at
  // burst + budget x completions, with the excess suppressed.
  ServingConfig config = FaultyConfig(DispatchPolicy::kLeastOutstanding,
                                      /*mtbf_s=*/5e-7, /*mttr_s=*/5e-7,
                                      /*rate=*/2000, /*duration=*/0.05);
  ServingResult unbounded = RunAndCheckAccounting(config);
  config.retry_budget = 0.1;
  config.retry_budget_burst = 5;
  ServingResult bounded = RunAndCheckAccounting(config);
  EXPECT_GT(bounded.retries_suppressed, 0);
  EXPECT_LT(bounded.retries, unbounded.retries);
  EXPECT_LE(bounded.retries,
            5 + static_cast<int>(0.1 * bounded.completed) + 1);
  EXPECT_EQ(unbounded.retries_suppressed, 0);
}

TEST(ServingTest, AdaptiveDetectTimeoutIsDeterministic) {
  // The adaptive timeout is derived from observed (sim-time) service
  // quantiles only, so two identical runs must agree bit-for-bit.
  ServingConfig config = FaultyConfig(DispatchPolicy::kLeastOutstanding, 2);
  config.adaptive_detect_quantile = 0.95;
  config.adaptive_detect_multiplier = 3;
  ServingResult a = RunAndCheckAccounting(config);
  ServingResult b = RunAndCheckAccounting(config);
  EXPECT_GT(a.retries, 0);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
}

TEST(ServingTest, AdaptiveDetectTimeoutMatchesGolden) {
  // Pinned from the simulator that sorted every observed service time on
  // each retry; the running order statistic must pick the same two
  // order statistics, so any drift in the timeout moves these digests.
  struct Case {
    double quantile;
    DispatchPolicy policy;
    bool chaos;
  };
  struct Golden {
    int completed, dropped, retries, dispatches, breaker_opens, hedges_won;
    std::uint64_t p50_bits, p99_bits, mean_bits, observations;
  };
  const Case cases[] = {
      {0.95, DispatchPolicy::kLeastOutstanding, false},
      {0.99, DispatchPolicy::kLeastOutstanding, false},
      {0.99, DispatchPolicy::kPredictedLeastLoad, true},
  };
  const Golden golden[] = {
      {2013, 38, 162, 2014, 0, 0, 4610334938539176755ULL,
       4626050027424805351ULL, 4614988017600815826ULL,
       13698840523235361276ULL},
      {2027, 24, 149, 2028, 0, 0, 4610334938539176755ULL,
       4635219578280212432ULL, 4616629613539247240ULL,
       13148739588142116904ULL},
      {1768, 283, 1283, 1944, 16, 88, 4616302208045442662ULL,
       4646284940306571348ULL, 4631479850704920321ULL,
       13790771245189030636ULL},
  };
  // Five job types with a skewed mix, so the 0.95 and 0.99 quantiles of
  // the observed service times land on different order statistics.
  const std::vector<std::vector<double>> truth = {
      {1'000, 1'300}, {1'700, 2'100}, {2'600, 3'900}, {5'200, 4'100},
      {9'100, 12'000}};
  const std::vector<double> mix = {8, 6, 4, 2, 1};
  std::vector<std::vector<double>> optimistic = truth;
  for (auto& row : optimistic) {
    for (double& v : row) v *= 0.5;
  }
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE(i);
    ServingConfig config = FaultyConfig(cases[i].policy, 2);
    config.adaptive_detect_quantile = cases[i].quantile;
    config.adaptive_detect_multiplier = 3;
    config.record_observations = true;
    if (cases[i].chaos) {
      config.chaos.gray_mtbf_s = 1;
      config.chaos.gray_mttr_s = 0.5;
      config.chaos.flap_mtbf_s = 3;
      config.chaos.host.size = 2;
      config.chaos.host.mtbf_s = 4;
      config.chaos.host.mttr_s = 2;
      config.chaos.host.factor = 2;
      config.hedge_trigger_factor = 1.5;
      config.breaker.failure_threshold = 2;
      config.breaker.cooldown_ms = 500;
    }
    const ServingResult r =
        SimulateServing(truth, optimistic, mix, config).value();
    std::string observed;
    for (const ServingObservation& o : r.observations) {
      observed += Format("%zu,%zu,%.17g,%.17g\n", o.job, o.gpu, o.start_us,
                         o.observed_us);
    }
    EXPECT_GT(r.retries, 0);
    EXPECT_EQ(r.completed, golden[i].completed);
    EXPECT_EQ(r.dropped, golden[i].dropped);
    EXPECT_EQ(r.retries, golden[i].retries);
    EXPECT_EQ(r.dispatches, golden[i].dispatches);
    EXPECT_EQ(r.breaker_opens, golden[i].breaker_opens);
    EXPECT_EQ(r.hedges_won, golden[i].hedges_won);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.p50_ms), golden[i].p50_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.p99_ms), golden[i].p99_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_ms), golden[i].mean_bits);
    EXPECT_EQ(StableHash(observed), golden[i].observations);
  }
}

TEST(ServingTest, ChaosGraySlowdownInflatesLatencyWithoutOutages) {
  ServingConfig config = Config(DispatchPolicy::kLeastOutstanding, 100, 20);
  ServingResult clean = RunAndCheckAccounting(config);
  config.chaos.gray_mtbf_s = 3;
  config.chaos.gray_mttr_s = 2;
  config.chaos.gray_factor = 5;
  ServingResult gray = RunAndCheckAccounting(config);
  // Gray failures slow service without killing it: latency inflates,
  // availability stays perfect, nothing is dropped to faults.
  EXPECT_GT(gray.mean_ms, clean.mean_ms);
  for (double a : gray.gpu_availability) EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_EQ(gray.retries, 0);
}

TEST(ServingTest, ChaosDomainOutageTakesCorrelatedGpusDown) {
  ServingConfig config = Config(DispatchPolicy::kLeastOutstanding, 100, 20);
  config.chaos.host.size = 2;
  config.chaos.host.mtbf_s = 8;
  config.chaos.host.mttr_s = 1;
  ServingResult result = RunAndCheckAccounting(config);
  // Both GPUs share one host, so their availability dips identically.
  ASSERT_EQ(result.gpu_availability.size(), 2u);
  EXPECT_LT(result.gpu_availability[0], 1.0);
  EXPECT_DOUBLE_EQ(result.gpu_availability[0], result.gpu_availability[1]);
}

TEST(ServingTest, DomainEventAtTimeZeroMttrZeroLeavesBreakersClosed) {
  // Regression (ISSUE 9 satellite): a correlated domain event at t=0
  // with MTTR=0 is a zero-length blip. It must not wedge breakers
  // open — the pool serves normally and every breaker ends closed.
  ServingConfig config = Config(DispatchPolicy::kLeastOutstanding, 100, 10);
  config.chaos.host.size = 2;
  config.chaos.host.mtbf_s = 0;
  config.chaos.host.mttr_s = 0;
  config.chaos.host.first_event_at_s = 0;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown_ms = 500;
  ServingResult result = RunAndCheckAccounting(config);
  EXPECT_GT(result.completed, 0);
  EXPECT_EQ(result.dropped, 0);
  EXPECT_EQ(result.breakers_open_at_end, 0);
  for (double a : result.gpu_availability) EXPECT_DOUBLE_EQ(a, 1.0);
}

TEST(ServingTest, ResilienceKnobValidationNamesTheField) {
  const std::vector<std::vector<double>> truth = AffinityTimes();
  ServingConfig config = Config(DispatchPolicy::kLeastOutstanding);
  config.hedge_trigger_factor = -1;
  Status status =
      SimulateServing(truth, truth, {1, 1}, config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("hedge_trigger_factor"),
            std::string::npos);

  config = Config(DispatchPolicy::kLeastOutstanding);
  config.retry_budget = 0.5;
  config.retry_budget_burst = 0;
  status = SimulateServing(truth, truth, {1, 1}, config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("retry_budget_burst"), std::string::npos);

  config = Config(DispatchPolicy::kLeastOutstanding);
  config.adaptive_detect_quantile = 1.5;
  status = SimulateServing(truth, truth, {1, 1}, config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("adaptive_detect_quantile"),
            std::string::npos);

  config = Config(DispatchPolicy::kLeastOutstanding);
  config.chaos.gray_mtbf_s = 5;
  config.chaos.gray_factor = 0.5;
  status = SimulateServing(truth, truth, {1, 1}, config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("gray_factor"), std::string::npos);

  config = Config(DispatchPolicy::kLeastOutstanding);
  config.chaos.rack.size = 1;
  config.chaos.rack.mtbf_s = 5;
  config.chaos.rack.factor = -2;
  status = SimulateServing(truth, truth, {1, 1}, config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rack factor"), std::string::npos);
}

TEST(ServingTest, ChaosGridWithHedgingIsBitIdenticalAcrossJobCounts) {
  // The acceptance criterion: gray slowdowns, flaps, domain events,
  // hedging, retry budgets, adaptive detection, and breakers all on —
  // and every cell, including breaker state and hedge accounting,
  // bit-identical for every --jobs value.
  ServingConfig base = OverloadConfig(DispatchPolicy::kPredictedLeastLoad);
  base.hedge_trigger_factor = 1.5;
  base.retry_budget = 0.2;
  base.retry_budget_burst = 5;
  base.adaptive_detect_quantile = 0.9;
  base.chaos.gray_mtbf_s = 4;
  base.chaos.gray_mttr_s = 1;
  base.chaos.gray_factor = 3;
  base.chaos.flap_mtbf_s = 6;
  base.chaos.host.size = 2;
  base.chaos.host.mtbf_s = 10;
  std::vector<ServingGridCell> cells;
  for (DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastOutstanding,
        DispatchPolicy::kPredictedLeastLoad}) {
    for (std::uint64_t seed : {5u, 23u}) cells.push_back({policy, seed});
  }
  std::vector<StatusOr<ServingResult>> one = SimulateServingGrid(
      AffinityTimes(), AffinityTimes(), {1, 1}, base, cells, 1);
  for (int jobs : {2, 4}) {
    std::vector<StatusOr<ServingResult>> many = SimulateServingGrid(
        AffinityTimes(), AffinityTimes(), {1, 1}, base, cells, jobs);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      ASSERT_TRUE(one[i].ok());
      ASSERT_TRUE(many[i].ok());
      EXPECT_EQ(one[i]->completed, many[i]->completed) << i;
      EXPECT_EQ(one[i]->retries, many[i]->retries) << i;
      EXPECT_EQ(one[i]->hedges_issued, many[i]->hedges_issued) << i;
      EXPECT_EQ(one[i]->hedges_won, many[i]->hedges_won) << i;
      EXPECT_EQ(one[i]->retries_suppressed, many[i]->retries_suppressed)
          << i;
      EXPECT_EQ(one[i]->breaker_opens, many[i]->breaker_opens) << i;
      EXPECT_EQ(one[i]->breakers_open_at_end, many[i]->breakers_open_at_end)
          << i;
      EXPECT_EQ(one[i]->p99_ms, many[i]->p99_ms) << i;
      EXPECT_EQ(one[i]->mean_ms, many[i]->mean_ms) << i;
      EXPECT_EQ(one[i]->gpu_utilization, many[i]->gpu_utilization) << i;
    }
  }
  // Non-vacuous: the hedge and breaker machinery actually ran.
  int hedges = 0, opens = 0;
  for (const StatusOr<ServingResult>& cell : one) {
    hedges += cell->hedges_issued;
    opens += cell->breaker_opens;
  }
  EXPECT_GT(hedges, 0);
  EXPECT_GT(opens, 0);
}


// --- One emission point: ServingResult, the registry, the flight
// recorder and the span tracer must count every outcome identically.

/** How each sink names one outcome. */
struct SinkOutcome {
  const char* family;  // registry family, also the recorder channel
  int ServingResult::*field;
  const char* instant;  // serialized trace-instant prefix; nullptr = none
};

/** Non-overlapping occurrences of `needle` in `text`. */
std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ServingTest, AllFourSinksAgreeOnEveryChaosPreset) {
  const SinkOutcome outcomes[] = {
      {"gpuperf_serving_jobs_completed", &ServingResult::completed, nullptr},
      {"gpuperf_serving_jobs_dropped", &ServingResult::dropped,
       R"({"name":"drop","cat":"retry","ph":"i")"},
      {"gpuperf_serving_jobs_shed", &ServingResult::shed_on_admission,
       R"({"name":"shed","cat":"admission","ph":"i")"},
      {"gpuperf_serving_retries", &ServingResult::retries,
       R"({"name":"retry","cat":"retry","ph":"i")"},
      {"gpuperf_serving_retries_suppressed",
       &ServingResult::retries_suppressed, nullptr},
      {"gpuperf_serving_breaker_opens", &ServingResult::breaker_opens,
       R"({"name":"breaker-open","cat":"breaker","ph":"i")"},
      {"gpuperf_serving_deadline_misses", &ServingResult::deadline_misses,
       nullptr},
      {"gpuperf_serving_hedges_issued", &ServingResult::hedges_issued, nullptr},
      {"gpuperf_serving_hedges_won", &ServingResult::hedges_won, nullptr},
  };
  // The `gpuperf chaos` presets (its kChaosScenarios) at duration d.
  const struct {
    const char* name;
    void (*apply)(double d, ServingConfig* c);
  } presets[] = {
      {"outage",
       [](double d, ServingConfig* c) {
         c->faults.mtbf_s = d / 3;
         c->faults.mttr_s = d / 10;
       }},
      {"gray",
       [](double d, ServingConfig* c) {
         c->chaos.gray_mtbf_s = d / 3;
         c->chaos.gray_mttr_s = d / 5;
         c->chaos.gray_factor = 4;
       }},
      {"domain",
       [](double d, ServingConfig* c) {
         c->chaos.host.size = 2;
         c->chaos.host.mtbf_s = d;
         c->chaos.host.mttr_s = d / 10;
         c->chaos.host.factor = 0;
       }},
      {"flap",
       [](double d, ServingConfig* c) {
         c->chaos.flap_mtbf_s = d / 2;
         c->chaos.flap_count = 5;
         c->chaos.flap_period_s = 0.2;
         c->chaos.flap_down_s = 0.05;
       }},
  };
  // Optimistic predictions (half of truth) so hedge triggers fire.
  std::vector<std::vector<double>> optimistic = AffinityTimes();
  for (auto& row : optimistic) {
    for (double& v : row) v *= 0.5;
  }
  std::vector<int> nonzero(std::size(outcomes), 0);
  for (const auto& preset : presets) {
    SCOPED_TRACE(preset.name);
    ServingConfig config =
        Config(DispatchPolicy::kPredictedLeastLoad, /*rate=*/400,
               /*duration=*/10);
    config.queue_cap = 4;
    config.slo_ms = 15;
    config.breaker.failure_threshold = 2;
    config.breaker.cooldown_ms = 500;
    config.retry_budget = 0.5;
    config.retry_budget_burst = 10;
    config.hedge_trigger_factor = 1.5;
    preset.apply(config.duration_s, &config);
    obs::FlightRecorder recorder;
    config.recorder = &recorder;
    obs::SpanTracer tracer;
    const RegistryDelta delta;
    const ServingResult result =
        SimulateServing(AffinityTimes(), optimistic, {1, 1}, config, &tracer)
            .value();
    obs::ChromeTraceWriter trace;
    tracer.AppendTo(&trace, 1, preset.name);
    const std::string json = trace.Json();

    ExpectArrivalsAccountedFor(delta);
    for (std::size_t o = 0; o < std::size(outcomes); ++o) {
      const SinkOutcome& outcome = outcomes[o];
      SCOPED_TRACE(outcome.family);
      const std::uint64_t value =
          static_cast<std::uint64_t>(result.*outcome.field);
      EXPECT_EQ(delta(outcome.family), value);
      std::uint64_t recorded = 0;
      for (const obs::FlightFrame& frame : recorder.frames()) {
        for (const obs::FlightSample& sample : frame.samples) {
          if (*sample.channel == outcome.family) {
            recorded += sample.counter_delta;
          }
        }
      }
      EXPECT_EQ(recorded, value);
      if (outcome.instant != nullptr) {
        EXPECT_EQ(CountOccurrences(json, outcome.instant), value);
      }
      nonzero[o] += value > 0;
    }
  }
  for (std::size_t o = 0; o < std::size(outcomes); ++o) {
    EXPECT_GT(nonzero[o], 0) << outcomes[o].family << " never fired";
  }
}

// --- Event-order golden. The pinned values below were computed by the
// simulator that pre-scheduled every arrival before the run; arrivals
// now enter the queue lazily under reserved sequence numbers, and any
// change to the (time, sequence) order of events — arrival ties with
// completions, retries, hedge checks or cancels — moves these values.

struct GoldenCounters {
  int completed, dropped, retries, dispatches, shed, deadline_misses,
      breaker_opens, hedges_issued, hedges_won, retries_suppressed;
};

TEST(ServingTest, ChaosHedgingEventOrderMatchesGolden) {
  ServingConfig base = OverloadConfig(DispatchPolicy::kRoundRobin);
  base.duration_s = 3;
  base.hedge_trigger_factor = 1.5;
  base.retry_budget = 0.2;
  base.retry_budget_burst = 5;
  base.chaos.gray_mtbf_s = 1;
  base.chaos.gray_mttr_s = 0.5;
  base.chaos.gray_factor = 3;
  base.chaos.flap_mtbf_s = 2;
  base.chaos.host.size = 2;
  base.chaos.host.mtbf_s = 2;
  base.chaos.host.mttr_s = 0.1;
  base.record_observations = true;
  base.recorder_config.sample_period_us = 10'000;
  // Optimistic predictions (half of truth) so hedge triggers fire.
  std::vector<std::vector<double>> optimistic = AffinityTimes();
  for (auto& row : optimistic) {
    for (double& v : row) v *= 0.5;
  }
  const std::vector<ServingGridCell> cells = {
      {DispatchPolicy::kRoundRobin, 5},
      {DispatchPolicy::kLeastOutstanding, 5},
      {DispatchPolicy::kPredictedLeastLoad, 5},
  };
  obs::ChromeTraceWriter trace;
  obs::FlightTimeline timeline;
  std::vector<StatusOr<ServingResult>> results = SimulateServingGrid(
      AffinityTimes(), optimistic, {1, 1}, base, cells, 1, &trace, &timeline);

  const GoldenCounters golden[] = {
      {562, 310, 17, 578, 299, 201, 6, 140, 23, 310},
      {553, 310, 13, 565, 308, 193, 6, 150, 16, 310},
      {576, 312, 15, 591, 283, 154, 6, 219, 9, 312},
  };
  const std::uint64_t golden_observations[] = {
      16390639638188795315ULL,
      7868789894276757775ULL,
      9137174583216519281ULL,
  };
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    const ServingResult& r = *results[i];
    EXPECT_EQ(r.completed, golden[i].completed) << i;
    EXPECT_EQ(r.dropped, golden[i].dropped) << i;
    EXPECT_EQ(r.retries, golden[i].retries) << i;
    EXPECT_EQ(r.dispatches, golden[i].dispatches) << i;
    EXPECT_EQ(r.shed_on_admission, golden[i].shed) << i;
    EXPECT_EQ(r.deadline_misses, golden[i].deadline_misses) << i;
    EXPECT_EQ(r.breaker_opens, golden[i].breaker_opens) << i;
    EXPECT_EQ(r.hedges_issued, golden[i].hedges_issued) << i;
    EXPECT_EQ(r.hedges_won, golden[i].hedges_won) << i;
    EXPECT_EQ(r.retries_suppressed, golden[i].retries_suppressed) << i;
    // Observations are in completion order, so same-timestamp
    // reorderings that leave the counters alone still move this hash.
    std::string observed;
    for (const ServingObservation& o : r.observations) {
      observed += Format("%zu,%zu,%.17g,%.17g\n", o.job, o.gpu, o.start_us,
                         o.observed_us);
    }
    EXPECT_EQ(StableHash(observed), golden_observations[i]) << i;
  }
  EXPECT_EQ(StableHash(timeline.Csv()), 51390222808851109ULL);
  EXPECT_EQ(StableHash(trace.Json()), 17853784535721987504ULL);
}

// The truth matrix lowers each network once for all GPUs; every cell
// must still be what a per-cell MeasureE2eUs reports, bit for bit.
TEST(ServingTest, TruthMatrixIsMeasureE2eUsPerCell) {
  const std::vector<dnn::Network> networks = {
      zoo::BuildByName("resnet18"), zoo::BuildByName("mobilenet_v2")};
  const std::vector<const gpuexec::GpuSpec*> gpus = {
      &gpuexec::GpuByName("A40"), &gpuexec::GpuByName("V100")};
  const std::vector<std::vector<double>> truth =
      TruthMatrix(networks, gpus, 16);
  const gpuexec::HardwareOracle oracle;
  const gpuexec::Profiler profiler(oracle);
  ASSERT_EQ(truth.size(), networks.size());
  for (std::size_t j = 0; j < networks.size(); ++j) {
    ASSERT_EQ(truth[j].size(), gpus.size());
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(truth[j][g]),
                std::bit_cast<std::uint64_t>(
                    profiler.MeasureE2eUs(networks[j], *gpus[g], 16)));
    }
  }
}

}  // namespace
}  // namespace gpuperf::simsys
