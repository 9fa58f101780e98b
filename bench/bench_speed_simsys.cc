// google-benchmark microbenchmarks of the simulation subsystem: the case
// studies' value rests on whole design sweeps costing milliseconds, so
// the event engine and system models must be fast.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "simsys/data_parallel.h"
#include "simsys/disagg.h"
#include "simsys/event_queue.h"
#include "simsys/pipeline_parallel.h"
#include "simsys/serving.h"

using namespace gpuperf;

namespace {

void BM_EventQueueThroughput(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simsys::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      queue.Schedule(static_cast<double>((i * 7919) % events),
                     [&fired] { ++fired; });
    }
    queue.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_DisaggSweep(benchmark::State& state) {
  // One full Figure 17 row: a 200-layer network across 6 bandwidths.
  std::vector<double> compute(200, 50.0);
  std::vector<std::int64_t> weights(200, 2'000'000);
  for (auto _ : state) {
    double total = 0;
    for (double bw : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0}) {
      simsys::DisaggConfig config;
      config.link_bandwidth_gbps = bw;
      total += simsys::SimulateDisaggregated(compute, weights, config)
                   .total_time_us;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_DisaggSweep)->Unit(benchmark::kMicrosecond);

void BM_DataParallelStep(benchmark::State& state) {
  std::vector<double> fwd(300, 30.0), bwd(300, 60.0);
  std::vector<std::int64_t> grads(300, 1'500'000);
  simsys::DataParallelConfig config;
  config.num_gpus = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateDataParallelStep(fwd, bwd, grads, config));
  }
}
BENCHMARK(BM_DataParallelStep)->Unit(benchmark::kMicrosecond);

void BM_PipelinePartitionAndStep(benchmark::State& state) {
  std::vector<double> fwd(400, 20.0), bwd(400, 40.0);
  std::vector<std::int64_t> acts(400, 4'000'000);
  simsys::PipelineConfig config;
  config.num_stages = 8;
  config.micro_batches = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulatePipeline(fwd, bwd, acts, config));
  }
}
BENCHMARK(BM_PipelinePartitionAndStep)->Unit(benchmark::kMillisecond);

void BM_ServingSimulation(benchmark::State& state) {
  std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  std::vector<double> mix{1, 1};
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 200;
  config.duration_s = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config).value());
  }
}
BENCHMARK(BM_ServingSimulation)->Unit(benchmark::kMillisecond);

void BM_ServingSimulationFaulty(benchmark::State& state) {
  // Same pool under fault injection: measures the overhead of the fault
  // plan queries plus retry re-dispatch on the event path.
  std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  std::vector<double> mix{1, 1};
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 200;
  config.duration_s = 10;
  config.faults.mtbf_s = 2;
  config.faults.mttr_s = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config).value());
  }
}
BENCHMARK(BM_ServingSimulationFaulty)->Unit(benchmark::kMillisecond);

void BM_ServingChaosLongHorizon(benchmark::State& state) {
  // The long-horizon resilience scenario: 8 job types on 6 GPUs at 85%
  // of healthy capacity for 240 s of sim time (~49k arrivals), with
  // outages, flap bursts and gray slowdowns on, hedging, a retry
  // budget, breakers, bounded queues and an SLO. The rows above run ~2k
  // arrivals, too few for event-queue depth to show.
  const std::vector<double> job_ms = {15, 22, 29, 36, 18, 43, 11, 32};
  const std::vector<double> gpu_speed = {0.6, 0.8, 1.0, 1.1, 1.3, 1.6};
  std::vector<std::vector<double>> truth, predicted;
  std::vector<double> mean_us(gpu_speed.size());
  double slowest_us = 0;
  for (double ms : job_ms) {
    std::vector<double> row;
    for (std::size_t g = 0; g < gpu_speed.size(); ++g) {
      row.push_back(ms * 1e3 * gpu_speed[g]);
      mean_us[g] += row.back() / job_ms.size();
      slowest_us = std::max(slowest_us, row.back());
    }
    truth.push_back(row);
    for (double& us : row) us *= 0.9;  // a slightly optimistic model
    predicted.push_back(row);
  }
  double capacity_per_us = 0;
  for (double mean : mean_us) capacity_per_us += 1 / mean;
  const std::vector<double> mix(job_ms.size(), 1.0);

  simsys::ServingConfig config;
  config.arrival_rate_per_s = 0.85 * capacity_per_us * 1e6;
  config.duration_s = 240;
  config.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  config.faults = {/*mtbf_s=*/6, /*mttr_s=*/0.5, /*seed=*/1};
  config.retry.max_retries = 2;
  config.queue_cap = 8;
  config.slo_ms = 3 * slowest_us / 1e3;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_ms = 200;
  config.hedge_trigger_factor = 1.5;
  config.retry_budget = 0.2;
  config.retry_budget_burst = 5;
  config.chaos.gray_mtbf_s = 4;
  config.chaos.gray_mttr_s = 1;
  config.chaos.gray_factor = 3;
  config.chaos.flap_mtbf_s = 8;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    const simsys::ServingResult result =
        simsys::SimulateServing(truth, predicted, mix, config).value();
    arrivals += result.completed + result.dropped + result.shed_on_admission;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ServingChaosLongHorizon)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
