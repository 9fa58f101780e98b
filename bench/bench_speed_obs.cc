// google-benchmark microbenchmarks of the observability layer: the
// metrics hot path, the span tracer, and the flight recorder ride
// every simulated event, so all must be cheap enough to leave on
// unconditionally. The headline comparisons are BM_ServingUntraced vs
// BM_ServingTraced (span tracer) and BM_ServingRecorded/0 (detached)
// vs /1 (attached): a detached recorder is a null-pointer check (zero
// cost), an attached one adds single-digit percent — ~8% measured on
// this synthetic sim, whose events average ~200ns; the recorder's own
// per-event work is ~10ns (BM_RecorderEvent), so heavier simulations
// see proportionally less. Exporting the recorded frames is a separate
// cost with its own rows (BM_RecorderTimelineCsv, and
// BM_RecorderTimelineCsvServing at serving scale).

#include <cstdint>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "simsys/serving.h"

using namespace gpuperf;

namespace {

void BM_MetricsHotPath(benchmark::State& state) {
  // The cached-reference idiom every call site uses: the registry Mutex
  // was paid at registration; the loop is one relaxed fetch_add.
  obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("gpuperf_bench_events");
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHotPath);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::Histogram& histogram = obs::MetricsRegistry::Global().histogram(
      "gpuperf_bench_latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  double value = 0.125;
  for (auto _ : state) {
    histogram.Observe(value);
    value = value < 900.0 ? value * 1.5 : 0.125;  // walk the buckets
  }
  benchmark::DoNotOptimize(histogram.Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_MetricsSnapshotCsv(benchmark::State& state) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("gpuperf_bench_events").Increment();
  registry.histogram("gpuperf_bench_latency_ms",
                     {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
      .Observe(3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.CsvSnapshot());
  }
}
BENCHMARK(BM_MetricsSnapshotCsv)->Unit(benchmark::kMicrosecond);

simsys::ServingConfig BenchConfig() {
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 200;
  config.duration_s = 10;
  config.faults.mtbf_s = 2;
  config.faults.mttr_s = 0.5;
  config.retry.max_retries = 1;
  config.queue_cap = 8;
  config.slo_ms = 50;
  return config;
}

void BM_ServingUntraced(benchmark::State& state) {
  const std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  const std::vector<double> mix{1, 1};
  const simsys::ServingConfig config = BenchConfig();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config).value());
  }
}
BENCHMARK(BM_ServingUntraced)->Unit(benchmark::kMillisecond);

void BM_ServingTraced(benchmark::State& state) {
  // Same simulation with per-job lifecycle spans recorded; the delta
  // over BM_ServingUntraced is the tracer's whole cost.
  const std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  const std::vector<double> mix{1, 1};
  const simsys::ServingConfig config = BenchConfig();
  for (auto _ : state) {
    obs::SpanTracer tracer;
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config, &tracer)
            .value());
    benchmark::DoNotOptimize(tracer.size());
  }
}
BENCHMARK(BM_ServingTraced)->Unit(benchmark::kMillisecond);

void BM_ServingRecorded(benchmark::State& state) {
  // Same simulation with a flight recorder (100ms windows — the
  // serve-sim default): Arg(1) attaches it, Arg(0) constructs but
  // detaches it, so both variants run the same code with the same
  // allocation pattern and the delta is the recorder's whole cost.
  // Comparing distinct benchmark functions instead (an earlier shape
  // of this file) showed ±10% systematic skew from heap and code
  // layout — more than the effect being measured (~±5% even within
  // this harness). A detached recorder costs nothing on the hot path:
  // config.recorder == nullptr is one branch per event, so Arg(0)
  // tracks BM_ServingUntraced. Attached overhead measures ~8% here
  // (interleaved, 9 repetitions, medians).
  const std::vector<std::vector<double>> times{{1000, 4000}, {5000, 1200}};
  const std::vector<double> mix{1, 1};
  const bool attach = state.range(0) != 0;
  for (auto _ : state) {
    obs::FlightRecorder recorder;
    simsys::ServingConfig config = BenchConfig();
    config.recorder = attach ? &recorder : nullptr;
    benchmark::DoNotOptimize(
        simsys::SimulateServing(times, times, mix, config).value());
    benchmark::DoNotOptimize(recorder.frames().size());
  }
}
BENCHMARK(BM_ServingRecorded)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_RecorderEvent(benchmark::State& state) {
  // The per-event recorder work the serving loop pays, via the cached
  // handles serving.cc uses: one counter bump, one sketch observation,
  // one AdvanceTo (which closes a window every 10th event here —
  // 100us period, 10us event spacing).
  obs::FlightRecorderConfig config;
  config.sample_period_us = 100;
  obs::FlightRecorder recorder(config);
  recorder.Start(0);
  obs::FlightRecorder::CounterHandle events =
      recorder.CounterChannel("gpuperf_bench_events");
  obs::FlightRecorder::SketchHandle latency = recorder.SketchChannel(
      "gpuperf_bench_latency_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  long long t = 0;
  for (auto _ : state) {
    t += 10;
    recorder.AdvanceTo(t);
    recorder.Count(events);
    recorder.Observe(latency, 3.0);
  }
  benchmark::DoNotOptimize(recorder.frames().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderEvent);

void BM_RecorderEventByName(benchmark::State& state) {
  // The same work through the by-name convenience entry points — the
  // map lookup and std::string construction a call site pays for NOT
  // caching handles.
  obs::FlightRecorderConfig config;
  config.sample_period_us = 100;
  obs::FlightRecorder recorder(config);
  recorder.Start(0);
  recorder.DefineSketch("gpuperf_bench_latency_ms",
                        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  long long t = 0;
  for (auto _ : state) {
    t += 10;
    recorder.AdvanceTo(t);
    recorder.Count("gpuperf_bench_events");
    recorder.Observe("gpuperf_bench_latency_ms", 3.0);
  }
  benchmark::DoNotOptimize(recorder.frames().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderEventByName);

void BM_RecorderTimelineCsv(benchmark::State& state) {
  // Export cost for a full ring (the serve-sim --timeline-out path).
  obs::FlightRecorderConfig config;
  config.sample_period_us = 100;
  config.capacity = 256;
  obs::FlightRecorder recorder(config);
  recorder.Start(0);
  recorder.DefineSketch("gpuperf_bench_latency_ms", {1, 10, 100});
  for (int i = 0; i < 256; ++i) {
    recorder.Count("gpuperf_bench_events");
    recorder.Observe("gpuperf_bench_latency_ms", 3.0);
    recorder.AdvanceTo(100 * (i + 1));
  }
  for (auto _ : state) {
    obs::FlightTimeline timeline;
    timeline.Append(recorder, "cell 0");
    benchmark::DoNotOptimize(timeline.Csv());
  }
}
BENCHMARK(BM_RecorderTimelineCsv)->Unit(benchmark::kMicrosecond);

void BM_RecorderTimelineCsvServing(benchmark::State& state) {
  // The "recorder and export" stage at serving scale: serving.cc's
  // channel set (9 counters, the queue-depth gauge, the latency and
  // residual sketches with its bounds) over a 2,400-frame ring of 100ms
  // windows — a 240s serve-sim cell's --timeline-out export, ~86k rows.
  constexpr int kFrames = 2400;
  obs::FlightRecorderConfig config;
  config.capacity = kFrames;
  obs::FlightRecorder recorder(config);
  recorder.Start(0);
  std::vector<obs::FlightRecorder::CounterHandle> counters;
  for (const char* name :
       {"gpuperf_serving_jobs_completed", "gpuperf_serving_jobs_dropped",
        "gpuperf_serving_jobs_shed", "gpuperf_serving_retries",
        "gpuperf_serving_retries_suppressed", "gpuperf_serving_breaker_opens",
        "gpuperf_serving_deadline_misses", "gpuperf_serving_hedges_issued",
        "gpuperf_serving_hedges_won"}) {
    counters.push_back(recorder.CounterChannel(name));
  }
  const obs::FlightRecorder::GaugeHandle depth =
      recorder.GaugeChannel("gpuperf_serving_queue_depth");
  const obs::FlightRecorder::SketchHandle latency =
      recorder.SketchChannel("gpuperf_serving_latency_ms",
                             {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  const obs::FlightRecorder::SketchHandle residual = recorder.SketchChannel(
      "gpuperf_serving_residual_pct", {1, 2, 5, 10, 20, 50, 100});
  // Deterministic, uneven per-window activity so values vary in width.
  std::uint64_t lcg = 7;
  auto next = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % mod;
  };
  for (int frame = 0; frame < kFrames; ++frame) {
    for (std::size_t c = 0; c < counters.size(); ++c) {
      recorder.Count(counters[c], next(c == 0 ? 40 : 4));
    }
    recorder.SetGauge(depth, static_cast<std::int64_t>(next(8)));
    for (std::uint64_t i = next(30); i > 0; --i) {
      recorder.Observe(latency, 0.5 + static_cast<double>(next(2000)) / 3.0);
      recorder.Observe(residual, static_cast<double>(next(1500)) / 13.0);
    }
    recorder.AdvanceTo(config.sample_period_us * (frame + 1));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    obs::FlightTimeline timeline;
    timeline.Append(recorder, "serve");
    const std::string csv = timeline.Csv();
    bytes = csv.size();
    benchmark::DoNotOptimize(csv.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  // Items are exports, so perf_gate.sh reads ns per export.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecorderTimelineCsvServing)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
