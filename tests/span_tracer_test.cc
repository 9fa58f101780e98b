#include "obs/span_tracer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "simsys/serving.h"

namespace gpuperf::obs {
namespace {

TEST(ChromeTraceWriterTest, EmitsGoldenJson) {
  ChromeTraceWriter writer;
  writer.SetProcessName(1, "sim");
  writer.SetThreadName(1, 2, "gpu 0");
  writer.AddComplete("job 0", "service", 1, 2, 10.0, 5.5,
                     "\"attempt\":0");
  writer.AddInstant("drop", "retry", 1, 0, 20.25);
  writer.AddMetadata("seed", "7");
  EXPECT_EQ(writer.event_count(), 4u);
  EXPECT_EQ(
      writer.Json(),
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"sim\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"gpu 0\"}},\n"
      "{\"name\":\"job 0\",\"cat\":\"service\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":2,\"ts\":10.000,\"dur\":5.500,\"args\":{\"attempt\":0}},\n"
      "{\"name\":\"drop\",\"cat\":\"retry\",\"ph\":\"i\",\"s\":\"t\","
      "\"pid\":1,\"tid\":0,\"ts\":20.250,\"args\":{}}\n"
      "],\"displayTimeUnit\":\"ms\",\"metadata\":{\"seed\":7}}\n");
}

TEST(ChromeTraceWriterTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(ChromeTraceWriter::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  ChromeTraceWriter writer;
  writer.AddComplete("conv \"1x1\"", "layer", 1, 1, 0.0, 1.0);
  EXPECT_NE(writer.Json().find("\"name\":\"conv \\\"1x1\\\"\""),
            std::string::npos);
}

TEST(ChromeTraceWriterTest, EscapesControlCharacters) {
  // Raw control bytes inside a JSON string are invalid — Perfetto and
  // chrome://tracing reject the whole file.
  EXPECT_EQ(ChromeTraceWriter::JsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(ChromeTraceWriter::JsonEscape(std::string("x\x01y\x1fz")),
            "x\\u0001y\\u001fz");
  ChromeTraceWriter writer;
  writer.AddComplete("conv\n3x3", "layer", 1, 1, 0.0, 1.0);
  const std::string json = writer.Json();
  EXPECT_NE(json.find("\"name\":\"conv\\n3x3\""), std::string::npos);
  EXPECT_EQ(json.find("conv\n3x3"), std::string::npos);
}

TEST(ChromeTraceWriterTest, EmitsGoldenCounterEvent) {
  ChromeTraceWriter writer;
  writer.AddCounter("queue depth", "timeline", 4, 1234567.0625,
                    "\"value\":-3");
  EXPECT_EQ(writer.Json(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"queue depth\",\"cat\":\"timeline\",\"ph\":\"C\","
            "\"pid\":4,\"tid\":0,\"ts\":1234567.062,"
            "\"args\":{\"value\":-3}}\n"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTraceWriterTest, EscapesMixedRunsInPlace) {
  // Escapes at both ends and back to back, plain runs between them,
  // and bytes >= 0x20 (DEL, UTF-8) passed through untouched.
  const std::string name = std::string("\x01q\"\\\x1f\tab\x7f\xc3\xa9\n");
  const std::string escaped = "\\u0001q\\\"\\\\\\u001f\\tab\x7f\xc3\xa9\\n";
  EXPECT_EQ(ChromeTraceWriter::JsonEscape(name), escaped);
  std::string out = "keep:";
  ChromeTraceWriter::AppendJsonEscaped(out, name);
  EXPECT_EQ(out, "keep:" + escaped);
  ChromeTraceWriter writer;
  writer.AddCounter(name, "c\"t", 1, 0.5, "");
  EXPECT_EQ(writer.Json(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"" + escaped + "\",\"cat\":\"c\\\"t\",\"ph\":\"C\","
            "\"pid\":1,\"tid\":0,\"ts\":0.500,\"args\":{}}\n"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTraceWriterTest, EmptyWriterIsStillAValidDocument) {
  ChromeTraceWriter writer;
  EXPECT_EQ(writer.Json(),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTraceWriterTest, UnwritablePathIsAnError) {
  ChromeTraceWriter writer;
  const Status status = writer.WriteFile("/nonexistent-gpuperf-dir/t.json");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("cannot open trace file"),
            std::string::npos);
}

TEST(SpanTracerTest, AppendToEmitsNamesThenEventsInRecordingOrder) {
  SpanTracer tracer;
  tracer.SetTrackName(1, "gpu 0");
  tracer.SetTrackName(0, "dispatcher");
  tracer.Span(1, "job 0", "service", 10.0, 15.0, "\"attempt\":0");
  tracer.Instant(0, "shed", "admission", 20.0);
  EXPECT_EQ(tracer.size(), 2u);

  ChromeTraceWriter writer;
  tracer.AppendTo(&writer, 3, "cell 2");
  EXPECT_EQ(
      writer.Json(),
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
      "\"args\":{\"name\":\"cell 2\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
      "\"args\":{\"name\":\"dispatcher\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":1,"
      "\"args\":{\"name\":\"gpu 0\"}},\n"
      "{\"name\":\"job 0\",\"cat\":\"service\",\"ph\":\"X\",\"pid\":3,"
      "\"tid\":1,\"ts\":10.000,\"dur\":5.000,\"args\":{\"attempt\":0}},\n"
      "{\"name\":\"shed\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\","
      "\"pid\":3,\"tid\":0,\"ts\":20.000,\"args\":{}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

// --- Serving-simulator integration: tracing must never perturb results,
// and the merged grid trace must be byte-identical across thread counts.

std::vector<std::vector<double>> AffinityTimes() {
  return {{1000, 8000}, {8000, 1000}};
}

simsys::ServingConfig StressConfig() {
  simsys::ServingConfig config;
  config.arrival_rate_per_s = 150;
  config.duration_s = 10;
  config.seed = 7;
  config.policy = simsys::DispatchPolicy::kLeastOutstanding;
  config.faults.mtbf_s = 2;     // faults → retries, drops
  config.faults.mttr_s = 1;
  config.faults.seed = 11;
  config.retry.max_retries = 1;
  config.queue_cap = 4;         // → admission sheds
  config.slo_ms = 50;           // → predicted-SLO sheds + misses
  config.breaker.failure_threshold = 2;  // → breaker opens
  return config;
}

TEST(SpanTracerTest, TracingDoesNotChangeSimulationResults) {
  const auto times = AffinityTimes();
  const std::vector<double> mix = {1.0, 1.0};
  const simsys::ServingConfig config = StressConfig();
  StatusOr<simsys::ServingResult> untraced =
      simsys::SimulateServing(times, times, mix, config);
  SpanTracer tracer;
  StatusOr<simsys::ServingResult> traced =
      simsys::SimulateServing(times, times, mix, config, &tracer);
  ASSERT_TRUE(untraced.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_FALSE(tracer.empty());
  EXPECT_EQ(traced->completed, untraced->completed);
  EXPECT_EQ(traced->dropped, untraced->dropped);
  EXPECT_EQ(traced->shed_on_admission, untraced->shed_on_admission);
  EXPECT_EQ(traced->retries, untraced->retries);
  EXPECT_EQ(traced->breaker_opens, untraced->breaker_opens);
  EXPECT_EQ(traced->p99_ms, untraced->p99_ms);
}

std::vector<simsys::ServingGridCell> StressCells() {
  return {{simsys::DispatchPolicy::kRoundRobin, 7},
          {simsys::DispatchPolicy::kLeastOutstanding, 7},
          {simsys::DispatchPolicy::kLeastOutstanding, 8},
          {simsys::DispatchPolicy::kPredictedLeastLoad, 7}};
}

TEST(SpanTracerTest, GridTraceIsByteIdenticalAcrossJobCounts) {
  const auto times = AffinityTimes();
  const std::vector<double> mix = {1.0, 1.0};
  const simsys::ServingConfig config = StressConfig();
  const std::vector<simsys::ServingGridCell> cells = StressCells();

  ChromeTraceWriter serial, parallel;
  const auto grid1 = simsys::SimulateServingGrid(times, times, mix, config,
                                                 cells, /*jobs=*/1, &serial);
  const auto grid4 = simsys::SimulateServingGrid(times, times, mix, config,
                                                 cells, /*jobs=*/4, &parallel);
  for (const auto& cell : grid1) ASSERT_TRUE(cell.ok());
  for (const auto& cell : grid4) ASSERT_TRUE(cell.ok());
  EXPECT_GT(serial.event_count(), cells.size());  // real events, not just names
  EXPECT_EQ(serial.Json(), parallel.Json());
}

TEST(SpanTracerTest, MetricsSnapshotIsByteIdenticalAcrossJobCounts) {
  const auto times = AffinityTimes();
  const std::vector<double> mix = {1.0, 1.0};
  const simsys::ServingConfig config = StressConfig();
  const std::vector<simsys::ServingGridCell> cells = StressCells();
  MetricsRegistry& registry = MetricsRegistry::Global();

  registry.ResetAll();
  auto grid1 =
      simsys::SimulateServingGrid(times, times, mix, config, cells, 1);
  for (const auto& cell : grid1) ASSERT_TRUE(cell.ok());
  const std::string csv1 = registry.CsvSnapshot();
  const std::string prom1 = registry.PrometheusSnapshot();

  registry.ResetAll();
  auto grid4 =
      simsys::SimulateServingGrid(times, times, mix, config, cells, 4);
  for (const auto& cell : grid4) ASSERT_TRUE(cell.ok());
  EXPECT_EQ(registry.CsvSnapshot(), csv1);
  EXPECT_EQ(registry.PrometheusSnapshot(), prom1);
}

}  // namespace
}  // namespace gpuperf::obs
