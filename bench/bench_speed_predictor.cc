// google-benchmark microbenchmarks of the prediction pipeline: the
// paper's core speed claim is that a trained KW model predicts in
// microseconds-to-milliseconds where simulators need hours.

#include <cstdint>
#include <optional>

#include <benchmark/benchmark.h>

#include "dataset/builder.h"
#include "dnn/flops.h"
#include "gpuexec/lowering.h"
#include "gpuexec/profiler.h"
#include "models/e2e_model.h"
#include "models/igkw_model.h"
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
// PredictMany call over the cached resnet50/A100 plan. The queries form
// one run, so each replay of the plan folds 8 batches. items_per_second
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

// The same 512 A100 queries with the network alternating every query
// between resnet50 and the fixture's first zoo network (perf_gate.sh
// gates on this): every run has length 1, so each query is one one-lane
// replay — the sweep a serving-matrix fill and the campaign's
// PredictMany take. items_per_second is queries/s.
void BM_PredictManyResnet50Interleaved(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const models::KwModel& kw = fixture.kw;
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  const dnn::Network* networks[] = {&fixture.resnet50,
                                    &fixture.networks.front()};
  constexpr std::int64_t kBatches[] = {1, 4, 16, 64};
  std::vector<models::PredictQuery> queries(512);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = {networks[i % 2], &a100, kBatches[(i / 2) % 4]};
  }
  std::vector<double> out(queries.size());
  kw.PredictMany(queries, out);  // warm the plan cache
  for (auto _ : state) {
    kw.PredictMany(queries, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_PredictManyResnet50Interleaved);

// A first-sight plan compile (the "cold plan compile" stage): resolve
// resnet50's layer signatures once, then build its A100 plan. Each
// iteration compiles on a fresh copy of a never-queried model, so the
// sid memo and plan cache start empty; copying (and destroying the
// previous copy) is not timed. Items are compiles, so perf_gate.sh
// reads ns per cold plan.
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
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KwPlanForColdResnet50)->Unit(benchmark::kMicrosecond);

/**
 * An IGKW model fit on A100 and V100 and never queried. IGKW needs two
 * training GPUs and the shared fixture profiles one, so this builds its
 * own two-GPU dataset of the same networks, on first use.
 */
const models::IgkwModel& NeverQueriedIgkw() {
  static const models::IgkwModel* const kModel = [] {
    const Fixture& fixture = Fixture::Get();
    dataset::BuildOptions options;
    options.gpu_names = {"A100", "V100"};
    const dataset::Dataset data =
        dataset::BuildDataset(fixture.networks, options);
    auto* model = new models::IgkwModel();
    model->Train(data, dataset::SplitByNetwork(data, 0.15, 7),
                 {"A100", "V100"});
    return model;
  }();
  return *kModel;
}

// BM_KwPlanForColdResnet50's IGKW twin: one first-sight resnet50 plan
// for A40, a GPU outside IGKW's training set, on a fresh copy of a
// never-queried model (the copy is not timed). Items are compiles.
void BM_IgkwPlanForColdResnet50(benchmark::State& state) {
  const models::IgkwModel& never_queried = NeverQueriedIgkw();
  const gpuexec::GpuSpec& a40 = gpuexec::GpuByName("A40");
  std::optional<models::IgkwModel> model;
  for (auto _ : state) {
    state.PauseTiming();
    model.emplace(never_queried);
    state.ResumeTiming();
    benchmark::DoNotOptimize(model->PlanFor(Fixture::Get().resnet50, a40));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IgkwPlanForColdResnet50)->Unit(benchmark::kMicrosecond);

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

// Items are kernel rows, so perf_gate.sh reads ns per trained row.
void BM_KwTrain(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  for (auto _ : state) {
    models::KwModel model;
    model.Train(fixture.data, fixture.split);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fixture.data.kernel_rows().size()));
}
BENCHMARK(BM_KwTrain)->Unit(benchmark::kMillisecond);

// The campaign's zoo: one SmallZoo(8) per iteration. Items are the
// networks it hands out, so perf_gate.sh reads ns per network returned.
void BM_SmallZooStride8(benchmark::State& state) {
  std::int64_t returned = 0;
  for (auto _ : state) {
    const std::vector<dnn::Network> networks = zoo::SmallZoo(8);
    returned += static_cast<std::int64_t>(networks.size());
    benchmark::DoNotOptimize(networks);
  }
  state.SetItemsProcessed(returned);
}
BENCHMARK(BM_SmallZooStride8)->Unit(benchmark::kMillisecond);

void BM_LowerResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuexec::LowerNetwork(fixture.resnet50, 256));
  }
}
BENCHMARK(BM_LowerResnet50);

// A fresh Profiler per iteration, as each CLI campaign starts with: it
// lowers cold into an empty lowering table and evaluates the oracle into
// an empty expected-time memo, where a Profiler reused across iterations
// would answer both from warm state.
void BM_ProfileResnet50(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::HardwareOracle oracle{gpuexec::OracleConfig()};
  const gpuexec::GpuSpec& a100 = gpuexec::GpuByName("A100");
  for (auto _ : state) {
    const gpuexec::Profiler profiler(oracle);
    benchmark::DoNotOptimize(
        profiler.MeasureE2eUs(fixture.resnet50, a100, 256));
  }
}
BENCHMARK(BM_ProfileResnet50)->Unit(benchmark::kMillisecond);

// A fresh Profiler per iteration lowers the fixture zoo (SmallZoo(16))
// at batch 256 into its empty lowering table: layer signatures, table
// lookups and the lowering of each distinct configuration. Items are
// layers, so perf_gate.sh reads ns per layer lowered.
void BM_ProfilerLowerSmallZoo16(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const gpuexec::HardwareOracle oracle{gpuexec::OracleConfig()};
  std::int64_t layers = 0;
  for (auto _ : state) {
    const gpuexec::Profiler profiler(oracle);
    for (const dnn::Network& network : fixture.networks) {
      benchmark::DoNotOptimize(profiler.Lower(network, 256));
      layers += static_cast<std::int64_t>(network.layers().size());
    }
  }
  state.SetItemsProcessed(layers);
}
BENCHMARK(BM_ProfilerLowerSmallZoo16)->Unit(benchmark::kMillisecond);

// Items are kernel rows, so perf_gate.sh reads ns per profiled kernel.
void BM_BuildDatasetSerial(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  dataset::BuildOptions options;
  options.gpu_names = {"A100"};
  options.jobs = 1;
  std::int64_t rows = 0;
  for (auto _ : state) {
    const dataset::Dataset data =
        dataset::BuildDataset(fixture.networks, options);
    rows += static_cast<std::int64_t>(data.kernel_rows().size());
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_BuildDatasetSerial)->Unit(benchmark::kMillisecond);

// The same serial build on all seven GPUs: each network is lowered once
// and replayed per GPU, which the single-GPU row cannot see. Items are
// kernel rows.
void BM_BuildDatasetAllGpus(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  dataset::BuildOptions options;
  options.jobs = 1;
  std::int64_t rows = 0;
  for (auto _ : state) {
    const dataset::Dataset data =
        dataset::BuildDataset(fixture.networks, options);
    rows += static_cast<std::int64_t>(data.kernel_rows().size());
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_BuildDatasetAllGpus)->Unit(benchmark::kMillisecond);

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
