#include "obs/flight_recorder.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"

namespace gpuperf::obs {
namespace {

FlightRecorderConfig Config(long long period_us, std::size_t capacity = 4096) {
  FlightRecorderConfig config;
  config.sample_period_us = period_us;
  config.capacity = capacity;
  return config;
}

TEST(FlightRecorderTest, AdvanceToClosesWholeWindowsOnly) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_events", 2);
  recorder.AdvanceTo(250);  // closes [0,100] and (100,200]; 250 is mid-window
  ASSERT_EQ(recorder.frames().size(), 2u);
  EXPECT_EQ(recorder.frames()[0].t_us, 100);
  EXPECT_EQ(recorder.frames()[1].t_us, 200);
  EXPECT_EQ(recorder.frames()[0].window_us, 100);
  // The events landed before the first close.
  EXPECT_EQ(recorder.frames()[0].samples[0].counter_delta, 2u);
  EXPECT_EQ(recorder.frames()[1].samples[0].counter_delta, 0u);
  EXPECT_EQ(recorder.frames()[1].samples[0].counter_total, 2u);
}

TEST(FlightRecorderTest, FinishAtAddsAPartialFinalWindow) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_events");
  recorder.FinishAt(250);
  ASSERT_EQ(recorder.frames().size(), 3u);
  EXPECT_EQ(recorder.frames()[2].t_us, 250);
  EXPECT_EQ(recorder.frames()[2].window_us, 50);  // partial
}

TEST(FlightRecorderTest, FinishAtOnTheGridAddsNoExtraWindow) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.FinishAt(200);
  EXPECT_EQ(recorder.frames().size(), 2u);
}

TEST(FlightRecorderTest, GaugeSamplesTheLevelAtWindowClose) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.SetGauge("gpuperf_test_depth", 5);
  recorder.AdvanceTo(100);
  recorder.SetGauge("gpuperf_test_depth", -3);
  recorder.AdvanceTo(200);
  EXPECT_EQ(recorder.frames()[0].samples[0].gauge_value, 5);
  EXPECT_EQ(recorder.frames()[1].samples[0].gauge_value, -3);
}

TEST(FlightRecorderTest, SketchWindowsResetAtEachClose) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.DefineSketch("gpuperf_test_latency_ms", {1.0, 10.0});
  recorder.Observe("gpuperf_test_latency_ms", 0.5);
  recorder.Observe("gpuperf_test_latency_ms", 20.0);
  recorder.AdvanceTo(100);
  recorder.Observe("gpuperf_test_latency_ms", 4.0);
  recorder.AdvanceTo(200);
  const SketchWindow& first = recorder.frames()[0].samples[0].window;
  const SketchWindow& second = recorder.frames()[1].samples[0].window;
  EXPECT_EQ(first.count, 2u);
  EXPECT_EQ(first.buckets, (std::vector<std::uint64_t>{1, 0, 1}));
  EXPECT_EQ(second.count, 1u);
  EXPECT_EQ(second.buckets, (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(FlightRecorderTest, ChannelsSampleInSortedNameOrder) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_zebra");
  recorder.SetGauge("gpuperf_test_alpha", 1);
  recorder.AdvanceTo(100);
  ASSERT_EQ(recorder.frames()[0].samples.size(), 2u);
  EXPECT_EQ(*recorder.frames()[0].samples[0].channel, "gpuperf_test_alpha");
  EXPECT_EQ(*recorder.frames()[0].samples[1].channel, "gpuperf_test_zebra");
}

TEST(FlightRecorderTest, FullRingEvictsOldestAndCountsDrops) {
  FlightRecorder recorder(Config(100, /*capacity=*/3));
  recorder.Start(0);
  recorder.Count("gpuperf_test_events");
  recorder.AdvanceTo(500);  // 5 closes into a 3-frame ring
  EXPECT_EQ(recorder.frames().size(), 3u);
  EXPECT_EQ(recorder.dropped_frames(), 2u);
  EXPECT_EQ(recorder.frames().front().t_us, 300);
  EXPECT_EQ(recorder.frames().back().t_us, 500);
  // Counter totals survive eviction — only frames drop, not state.
  EXPECT_EQ(recorder.frames().back().samples[0].counter_total, 1u);
}

TEST(FlightRecorderTest, RestartContinuesOneMonotoneTimeline) {
  // Two serving epochs share one recorder: epoch 1's Start re-anchors
  // without clearing, counters stay cumulative, windows stay monotone.
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_events", 3);
  recorder.FinishAt(200);
  recorder.Start(200);
  recorder.Count("gpuperf_test_events", 2);
  recorder.FinishAt(400);
  ASSERT_EQ(recorder.frames().size(), 4u);
  long long prev = -1;
  for (const FlightFrame& frame : recorder.frames()) {
    EXPECT_GT(frame.t_us, prev);
    prev = frame.t_us;
  }
  EXPECT_EQ(recorder.frames().back().samples[0].counter_total, 5u);
}

TEST(FlightRecorderTest, RestartBehindTheLastCloseReAnchorsForward) {
  // An epoch's retries can run past its horizon, so the next epoch's
  // origin may land *before* the last closed window. Start must anchor
  // at the later of the two, keeping the timeline monotone.
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.FinishAt(250);  // final partial window closes at 250
  recorder.Start(200);     // new epoch origin is behind the last close
  recorder.FinishAt(450);
  long long prev = -1;
  for (const FlightFrame& frame : recorder.frames()) {
    EXPECT_GT(frame.t_us, prev);
    prev = frame.t_us;
  }
  // Window grid resumed from 250, not 200: next close is 350.
  EXPECT_EQ(recorder.frames()[3].t_us, 350);
}

TEST(FlightRecorderTest, SampleRegistryDifferencesSnapshots) {
  MetricsRegistry registry;
  Counter& events = registry.counter("gpuperf_test_events");
  Histogram& latency =
      registry.histogram("gpuperf_test_latency_ms", {1.0, 10.0});
  FlightRecorder recorder(Config(1000));
  recorder.Start(0);
  events.Increment(3);
  latency.Observe(0.5);
  recorder.SampleRegistry(registry, 1000);
  events.Increment(2);
  latency.Observe(4.0);
  latency.Observe(20.0);
  recorder.SampleRegistry(registry, 2000);
  ASSERT_EQ(recorder.frames().size(), 2u);
  // Cumulative registry totals become per-window deltas.
  const FlightFrame& f0 = recorder.frames()[0];
  const FlightFrame& f1 = recorder.frames()[1];
  EXPECT_EQ(f0.samples[0].counter_delta, 3u);
  EXPECT_EQ(f1.samples[0].counter_delta, 2u);
  EXPECT_EQ(f1.samples[0].counter_total, 5u);
  EXPECT_EQ(f0.samples[1].window.count, 1u);
  EXPECT_EQ(f1.samples[1].window.count, 2u);
  EXPECT_EQ(f1.samples[1].window.buckets,
            (std::vector<std::uint64_t>{0, 1, 1}));
}

TEST(FlightRecorderTest, CsvRowsAreStableAndLabeled) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_events", 4);
  recorder.SetGauge("gpuperf_test_depth", 7);
  recorder.AdvanceTo(100);
  FlightTimeline timeline;
  timeline.Append(recorder, "cell 0");
  EXPECT_EQ(timeline.Csv(),
            "t_us,source,metric,kind,field,value\n"
            "100,cell 0,gpuperf_test_depth,gauge,value,7\n"
            "100,cell 0,gpuperf_test_events,counter,total,4\n"
            "100,cell 0,gpuperf_test_events,counter,delta,4\n"
            "100,cell 0,gpuperf_test_events,counter,rate_per_s,40000\n");
}

TEST(FlightRecorderTest, SketchCsvEmitsCountSumAndQuantiles) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.DefineSketch("gpuperf_test_latency_ms", {1.0, 10.0});
  recorder.Observe("gpuperf_test_latency_ms", 0.5);
  recorder.Observe("gpuperf_test_latency_ms", 0.5);
  recorder.AdvanceTo(100);
  std::string rows;
  recorder.AppendCsvRows("cell 0", &rows);
  EXPECT_EQ(rows,
            "100,cell 0,gpuperf_test_latency_ms,sketch,count,2\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,sum,1\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,p50,0.5\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,p99,0.99\n");
}

/**
 * Two frames covering every exported form: a counter, a negative gauge,
 * and a sketch whose one observation lands in the overflow bucket (its
 * quantiles report the last bound); then a partial final window, where
 * rate_per_s divides by the 50us window and the empty sketch reports 0.
 */
FlightRecorder GoldenRecorder() {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.DefineSketch("gpuperf_test_latency_ms", {1.0, 10.0});
  recorder.Count("gpuperf_test_events", 3);
  recorder.SetGauge("gpuperf_test_depth", 5);
  recorder.Observe("gpuperf_test_latency_ms", 20.5);
  recorder.AdvanceTo(100);
  recorder.Count("gpuperf_test_events", 2);
  recorder.SetGauge("gpuperf_test_depth", -2);
  recorder.FinishAt(150);
  return recorder;
}

TEST(FlightRecorderTest, CsvGoldenCoversEveryRowForm) {
  const FlightRecorder recorder = GoldenRecorder();
  ASSERT_EQ(recorder.frames().size(), 2u);
  EXPECT_EQ(recorder.frames()[1].window_us, 50);
  std::string rows = "prior\n";  // appends, never overwrites
  recorder.AppendCsvRows("cell 0", &rows);
  EXPECT_EQ(rows,
            "prior\n"
            "100,cell 0,gpuperf_test_depth,gauge,value,5\n"
            "100,cell 0,gpuperf_test_events,counter,total,3\n"
            "100,cell 0,gpuperf_test_events,counter,delta,3\n"
            "100,cell 0,gpuperf_test_events,counter,rate_per_s,30000\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,count,1\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,sum,20.5\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,p50,10\n"
            "100,cell 0,gpuperf_test_latency_ms,sketch,p99,10\n"
            "150,cell 0,gpuperf_test_depth,gauge,value,-2\n"
            "150,cell 0,gpuperf_test_events,counter,total,5\n"
            "150,cell 0,gpuperf_test_events,counter,delta,2\n"
            "150,cell 0,gpuperf_test_events,counter,rate_per_s,40000\n"
            "150,cell 0,gpuperf_test_latency_ms,sketch,count,0\n"
            "150,cell 0,gpuperf_test_latency_ms,sketch,sum,0\n"
            "150,cell 0,gpuperf_test_latency_ms,sketch,p50,0\n"
            "150,cell 0,gpuperf_test_latency_ms,sketch,p99,0\n");
}

TEST(FlightRecorderTest, CounterEventsGoldenCoversEveryChannelKind) {
  const FlightRecorder recorder = GoldenRecorder();
  ChromeTraceWriter writer;
  recorder.AppendCounterEvents(&writer, /*pid=*/3);
  EXPECT_EQ(
      writer.Json(),
      "{\"traceEvents\":[\n"
      "{\"name\":\"gpuperf_test_depth\",\"cat\":\"timeline\","
      "\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":100.000,"
      "\"args\":{\"value\":5}},\n"
      "{\"name\":\"gpuperf_test_events\",\"cat\":\"timeline\","
      "\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":100.000,"
      "\"args\":{\"delta\":3}},\n"
      "{\"name\":\"gpuperf_test_latency_ms\",\"cat\":\"timeline\","
      "\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":100.000,"
      "\"args\":{\"p99\":10}},\n"
      "{\"name\":\"gpuperf_test_depth\",\"cat\":\"timeline\","
      "\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":150.000,"
      "\"args\":{\"value\":-2}},\n"
      "{\"name\":\"gpuperf_test_events\",\"cat\":\"timeline\","
      "\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":150.000,"
      "\"args\":{\"delta\":2}},\n"
      "{\"name\":\"gpuperf_test_latency_ms\",\"cat\":\"timeline\","
      "\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":150.000,"
      "\"args\":{\"p99\":0}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(FlightRecorderTest, ExportFindsChannelsAddedAfterEarlierFrames) {
  // Early frames sample fewer channels than the recorder holds at
  // export time; every frame still exports exactly its own samples.
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_b", 1);
  recorder.AdvanceTo(100);
  recorder.Count("gpuperf_test_a", 2);
  recorder.Count("gpuperf_test_c", 3);
  recorder.AdvanceTo(200);
  std::string rows;
  recorder.AppendCsvRows("s", &rows);
  EXPECT_EQ(rows,
            "100,s,gpuperf_test_b,counter,total,1\n"
            "100,s,gpuperf_test_b,counter,delta,1\n"
            "100,s,gpuperf_test_b,counter,rate_per_s,10000\n"
            "200,s,gpuperf_test_a,counter,total,2\n"
            "200,s,gpuperf_test_a,counter,delta,2\n"
            "200,s,gpuperf_test_a,counter,rate_per_s,20000\n"
            "200,s,gpuperf_test_b,counter,total,1\n"
            "200,s,gpuperf_test_b,counter,delta,0\n"
            "200,s,gpuperf_test_b,counter,rate_per_s,0\n"
            "200,s,gpuperf_test_c,counter,total,3\n"
            "200,s,gpuperf_test_c,counter,delta,3\n"
            "200,s,gpuperf_test_c,counter,rate_per_s,30000\n");
}

TEST(FlightRecorderTest, WriteCsvWritesHeaderThenRows) {
  const FlightRecorder recorder = GoldenRecorder();
  FlightTimeline timeline;
  timeline.Append(recorder, "cell 0");
  const std::string path = ::testing::TempDir() + "flight_timeline.csv";
  ASSERT_TRUE(timeline.WriteCsv(path).ok());
  std::ifstream file(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, timeline.Csv());
  EXPECT_EQ(written.rfind("t_us,source,metric,kind,field,value\n", 0), 0u);
  std::remove(path.c_str());

  const Status status = timeline.WriteCsv("/nonexistent-gpuperf-dir/t.csv");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("cannot open timeline file"),
            std::string::npos);
}

TEST(FlightRecorderTest, CounterEventsLandInTheChromeTrace) {
  FlightRecorder recorder(Config(100));
  recorder.Start(0);
  recorder.Count("gpuperf_test_events", 2);
  recorder.AdvanceTo(200);
  ChromeTraceWriter writer;
  recorder.AppendCounterEvents(&writer, /*pid=*/3);
  EXPECT_EQ(writer.event_count(), 2u);  // one per frame
  const std::string json = writer.Json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("gpuperf_test_events"), std::string::npos);
  EXPECT_NE(json.find("\"delta\":2"), std::string::npos);
}

TEST(FlightRecorderTest, IdenticalInputsYieldIdenticalBytes) {
  // The determinism contract: two recorders fed the same sequence emit
  // byte-identical CSV — the per-cell building block behind timeline
  // files being byte-identical across --jobs.
  auto run = [] {
    FlightRecorder recorder(Config(100));
    recorder.Start(0);
    recorder.DefineSketch("gpuperf_test_latency_ms", {1.0, 10.0});
    for (int i = 0; i < 10; ++i) {
      recorder.Count("gpuperf_test_events");
      recorder.Observe("gpuperf_test_latency_ms", 0.5 + i);
      recorder.AdvanceTo(100 * (i + 1));
    }
    recorder.FinishAt(1050);
    std::string rows;
    recorder.AppendCsvRows("cell 0", &rows);
    return rows;
  };
  EXPECT_EQ(run(), run());
}

TEST(FlightRecorderDeathTest, MisuseIsAProgrammerError) {
  FlightRecorder recorder(Config(100));
  EXPECT_DEATH(recorder.AdvanceTo(100), "must be started");
  EXPECT_DEATH(recorder.FinishAt(100), "must be started");
  FlightRecorder started(Config(100));
  started.Start(0);
  started.Count("gpuperf_test_events");
  EXPECT_DEATH(started.SetGauge("gpuperf_test_events", 1),
               "different kind");
  EXPECT_DEATH(started.Observe("gpuperf_test_events", 1.0),
               "must be defined before Observe");
  started.DefineSketch("gpuperf_test_latency_ms", {1.0});
  EXPECT_DEATH(started.DefineSketch("gpuperf_test_latency_ms", {2.0}),
               "different bounds");
}

TEST(FlightRecorderDeathTest, ConfigMustBePositive) {
  EXPECT_DEATH(FlightRecorder(Config(0)), "positive sample period");
  EXPECT_DEATH(FlightRecorder(Config(100, 0)), "nonzero frame capacity");
}

}  // namespace
}  // namespace gpuperf::obs
