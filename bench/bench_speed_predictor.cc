// google-benchmark microbenchmarks of the prediction pipeline: the
// paper's core speed claim is that a trained KW model predicts in
// microseconds-to-milliseconds where simulators need hours.

#include <optional>

#include <benchmark/benchmark.h>

#include "dataset/builder.h"
#include "dnn/flops.h"
#include "gpuexec/lowering.h"
#include "gpuexec/profiler.h"
#include "models/e2e_model.h"
#include "models/kw_model.h"
#include "models/lw_model.h"
#include "models/predictor_stack.h"
#include "simsys/serving_matrix.h"
#include "zoo/zoo.h"

using namespace gpuperf;

namespace {

/** Small shared fixture: one dataset + trained models. */
struct Fixture {
  std::vector<dnn::Network> networks = zoo::SmallZoo(/*stride=*/16);
  dataset::Dataset data;
  dataset::NetworkSplit split;
  models::KwModel kw;
  models::KwModel never_queried_kw;  // copied right after training
  models::E2eModel e2e;
  dnn::Network resnet50 = zoo::BuildByName("resnet50");

  Fixture() {
    dataset::BuildOptions options;
    options.gpu_names = {"A100"};
    data = dataset::BuildDataset(networks, options);
    split = dataset::SplitByNetwork(data, 0.15, 7);
    kw.Train(data, split);
    never_queried_kw = kw;
    e2e.Train(data, split);
  }

  static const Fixture& Get() {
    static const Fixture* const kFixture = new Fixture();
    return *kFixture;
  }
};

void BM_KwPredictResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.kw.PredictUs(fixture.resnet50, a100, 256));
  }
}
BENCHMARK(BM_KwPredictResnet50);

// Steady-state prediction: the per-network signature-id vector is
// already memoized, so the loop exercises only the dense arithmetic
// path (no string hashing, no map lookups). perf_gate.sh gates on it;
// items_per_second is queries/s.
void BM_KwPredictResnet50Cached(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  benchmark::DoNotOptimize(fixture.kw.PredictUs(fixture.resnet50, a100, 256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.kw.PredictUs(fixture.resnet50, a100, 256));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KwPredictResnet50Cached);

// The compiled-plan batched hot path (perf_gate.sh gates on this): 512
// queries per sweep cycling the online batch sizes, answered by one
// PredictMany call over the cached resnet50/A100 plan. items_per_second
// is queries/s, so the gate's ns/query is 1e9 / items_per_second.
void BM_PredictManyResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  constexpr std::int64_t kBatches[] = {1, 4, 16, 64};
  std::vector<models::PredictQuery> queries(512);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = {&fixture.resnet50, &a100, kBatches[i % 4]};
  }
  std::vector<double> out(queries.size());
  fixture.kw.PredictMany(queries, out);  // warm the plan cache
  for (auto _ : state) {
    fixture.kw.PredictMany(queries, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_PredictManyResnet50);

// A first-sight plan compile (the "cold plan compile" stage): resolve
// resnet50's layer signatures once, then build its A100 plan. Each
// iteration compiles on a fresh copy of a never-queried model, so the
// sid memo and plan cache start empty; copying (and destroying the
// previous copy) is not timed.
void BM_KwPlanForColdResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  std::optional<models::KwModel> model;
  for (auto _ : state) {
    state.PauseTiming();
    model.emplace(fixture.never_queried_kw);
    state.ResumeTiming();
    benchmark::DoNotOptimize(model->PlanFor(fixture.resnet50, a100));
  }
}
BENCHMARK(BM_KwPlanForColdResnet50)->Unit(benchmark::kMicrosecond);

// A full serving-matrix refresh (the zoo x pool grid the dispatcher
// consumes): coverage pass + one PredictMany sweep + scatter.
void BM_ServingMatrixFill(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  std::vector<const gpuexec::GpuSpec*> pool = {&gpuexec::GpuByName("A100")};
  simsys::ServingMatrixBuffer buffer;
  std::vector<std::vector<double>> predicted;
  simsys::FillPredictedServingMatrix(fixture.kw, fixture.networks, pool, 16,
                                     buffer, predicted);  // warm caches
  for (auto _ : state) {
    simsys::FillPredictedServingMatrix(fixture.kw, fixture.networks, pool,
                                       16, buffer, predicted);
    benchmark::DoNotOptimize(predicted.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fixture.networks.size() * pool.size()));
}
BENCHMARK(BM_ServingMatrixFill);

void BM_E2ePredictResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.e2e.PredictUs(fixture.resnet50, a100, 256));
  }
}
BENCHMARK(BM_E2ePredictResnet50);

// The graceful-degradation path: a stack without a KW tier answers from
// LW, so this measures the cost of a fallback decision (coverage check +
// LW predict) relative to the direct KW path above.
void BM_PredictorStackFallback(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  models::PredictorStack stack;
  models::LwModel lw;
  lw.Train(fixture.data, fixture.split);
  stack.SetLw(std::move(lw));
  models::E2eModel e2e;
  e2e.Train(fixture.data, fixture.split);
  stack.SetE2e(std::move(e2e));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stack.TryPredictUs(fixture.resnet50, a100, 256).value());
  }
}
BENCHMARK(BM_PredictorStackFallback);

void BM_KwTrain(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  for (auto _ : state) {
    models::KwModel model;
    model.Train(fixture.data, fixture.split);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_KwTrain)->Unit(benchmark::kMillisecond);

void BM_LowerResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuexec::LowerNetwork(fixture.resnet50, 256));
  }
}
BENCHMARK(BM_LowerResnet50);

void BM_ProfileResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::HardwareOracle oracle{gpuexec::OracleConfig()};
  const gpuexec::Profiler profiler(oracle);
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profiler.MeasureE2eUs(fixture.resnet50, a100, 256));
  }
}
BENCHMARK(BM_ProfileResnet50)->Unit(benchmark::kMillisecond);

void BM_BuildDatasetSerial(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  dataset::BuildOptions options;
  options.gpu_names = {"A100"};
  options.jobs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset::BuildDataset(fixture.networks, options));
  }
}
BENCHMARK(BM_BuildDatasetSerial)->Unit(benchmark::kMillisecond);

void BM_BuildDatasetParallel(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  dataset::BuildOptions options;
  options.gpu_names = {"A100"};
  options.jobs = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset::BuildDataset(fixture.networks, options));
  }
}
BENCHMARK(BM_BuildDatasetParallel)->Unit(benchmark::kMillisecond);

void BM_NetworkFlops(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dnn::NetworkFlops(fixture.resnet50, 256));
  }
}
BENCHMARK(BM_NetworkFlops);

}  // namespace

BENCHMARK_MAIN();
