#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"

namespace gpuperf::obs {

constexpr char kCsvHeader[] = "t_us,source,metric,kind,field,value\n";

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  GP_CHECK_GT(config_.sample_period_us, 0)
      << "flight recorder needs a positive sample period";
  GP_CHECK_GT(config_.capacity, 0u)
      << "flight recorder needs a nonzero frame capacity";
}

void FlightRecorder::Start(long long origin_us) {
  if (started_) {
    // Epoch continuation: re-anchor the window grid without clearing
    // channels or frames, so one recorder spans many serving epochs.
    // The previous epoch's final window may close past this origin
    // (retries and hedges fire events beyond the horizon), so anchor at
    // whichever is later — the timeline stays monotone either way.
    last_tick_us_ = std::max(origin_us, last_tick_us_);
    next_tick_us_ = last_tick_us_ + config_.sample_period_us;
    return;
  }
  origin_us_ = origin_us;
  last_tick_us_ = origin_us;
  next_tick_us_ = origin_us + config_.sample_period_us;
  started_ = true;
}

FlightRecorder::Channel& FlightRecorder::ChannelFor(const std::string& name,
                                                    int kind) {
  auto [it, inserted] = channels_.emplace(name, Channel{});
  if (inserted) {
    it->second.kind = kind;
  } else {
    GP_CHECK_EQ(it->second.kind, kind)
        << "channel '" << name << "' already has a different kind";
  }
  return it->second;
}

void FlightRecorder::Count(const std::string& name, std::uint64_t n) {
  Channel& channel = ChannelFor(name, FlightSample::kCounter);
  channel.total += n;
  channel.window_delta += n;
}

void FlightRecorder::SetGauge(const std::string& name, std::int64_t value) {
  ChannelFor(name, FlightSample::kGauge).gauge = value;
}

void FlightRecorder::DefineSketch(const std::string& name,
                                  const std::vector<double>& upper_bounds) {
  GP_CHECK(!upper_bounds.empty())
      << "sketch channel '" << name << "' needs at least one bucket";
  Channel& channel = ChannelFor(name, FlightSample::kSketch);
  if (channel.bounds.empty()) {
    channel.bounds = upper_bounds;
    channel.window.buckets.assign(upper_bounds.size() + 1, 0);
  } else {
    GP_CHECK(channel.bounds == upper_bounds)
        << "sketch channel '" << name
        << "' re-defined with different bounds";
  }
}

void FlightRecorder::Observe(const std::string& name, double value) {
  auto it = channels_.find(name);
  GP_CHECK(it != channels_.end() && it->second.kind == FlightSample::kSketch &&
           !it->second.bounds.empty())
      << "sketch channel '" << name << "' must be defined before Observe";
  Observe(SketchHandle(&it->second), value);
}

FlightRecorder::CounterHandle FlightRecorder::CounterChannel(
    const std::string& name) {
  return CounterHandle(&ChannelFor(name, FlightSample::kCounter));
}

FlightRecorder::GaugeHandle FlightRecorder::GaugeChannel(
    const std::string& name) {
  return GaugeHandle(&ChannelFor(name, FlightSample::kGauge));
}

FlightRecorder::SketchHandle FlightRecorder::SketchChannel(
    const std::string& name, const std::vector<double>& upper_bounds) {
  DefineSketch(name, upper_bounds);
  return SketchHandle(&channels_.find(name)->second);
}


void FlightRecorder::Tick(long long t_us) {
  GP_CHECK(started_) << "flight recorder must be started before ticking";
  GP_CHECK_GT(t_us, last_tick_us_) << "windows must close in ascending order";
  FlightFrame frame;
  frame.t_us = t_us;
  frame.window_us = t_us - last_tick_us_;
  frame.samples.reserve(channels_.size());
  for (auto& [name, channel] : channels_) {
    FlightSample sample;
    sample.channel = &name;
    sample.kind = channel.kind;
    if (channel.kind == FlightSample::kCounter) {
      sample.counter_total = channel.total;
      sample.counter_delta = channel.window_delta;
      channel.window_delta = 0;
    } else if (channel.kind == FlightSample::kGauge) {
      sample.gauge_value = channel.gauge;
    } else {
      sample.window = channel.window;
      channel.window.count = 0;
      channel.window.sum_fp = 0;
      channel.window.buckets.assign(channel.bounds.size() + 1, 0);
    }
    frame.samples.push_back(std::move(sample));
  }
  if (frames_.size() == config_.capacity) {
    frames_.pop_front();
    ++dropped_frames_;
  }
  frames_.push_back(std::move(frame));
  last_tick_us_ = t_us;
}

void FlightRecorder::AdvanceSlow(long long t_us) {
  GP_CHECK(started_) << "flight recorder must be started before advancing";
  while (next_tick_us_ <= t_us) {
    Tick(next_tick_us_);
    next_tick_us_ += config_.sample_period_us;
  }
}

void FlightRecorder::FinishAt(long long t_us) {
  AdvanceTo(t_us);
  if (last_tick_us_ < t_us) Tick(t_us);
}

void FlightRecorder::SampleRegistry(const MetricsRegistry& registry,
                                    long long t_us) {
  GP_CHECK(started_) << "flight recorder must be started before sampling";
  for (const InstrumentSnapshot& inst : registry.Snapshot()) {
    if (inst.kind == FlightSample::kCounter) {
      Channel& channel = ChannelFor(inst.name, FlightSample::kCounter);
      const std::uint64_t delta = inst.counter_value - channel.prev_total;
      channel.total = inst.counter_value;
      channel.window_delta += delta;
      channel.prev_total = inst.counter_value;
    } else if (inst.kind == FlightSample::kGauge) {
      SetGauge(inst.name, inst.gauge_value);
    } else {
      DefineSketch(inst.name, inst.upper_bounds);
      Channel& channel = channels_.find(inst.name)->second;
      if (channel.prev_buckets.empty()) {
        channel.prev_buckets.assign(inst.bucket_counts.size(), 0);
      }
      for (std::size_t i = 0; i < inst.bucket_counts.size(); ++i) {
        const std::uint64_t delta =
            inst.bucket_counts[i] - channel.prev_buckets[i];
        channel.window.buckets[i] += delta;
        channel.window.count += delta;
        channel.prev_buckets[i] = inst.bucket_counts[i];
      }
      channel.window.sum_fp += inst.histogram_sum_fp - channel.prev_sum_fp;
      channel.prev_sum_fp = inst.histogram_sum_fp;
    }
  }
  Tick(t_us);
}

namespace {

/** One channel as the exporters see it, built once per export call. */
struct ExportChannel {
  const std::string* name = nullptr;            // the recorder's map key
  const std::vector<double>* bounds = nullptr;  // sketches only
  std::string prefix;  // ",<source>,<metric>,<kind>," (CSV rows only)
  std::size_t rows = 0;
};

/**
 * Finds `name`'s entry at or after `*cursor` in `table` (channel-name
 * order). Channels are never removed and every frame samples the
 * channels that existed at its close in name order, so a frame's
 * samples are a subsequence of the table: one forward cursor per frame
 * finds each sample's channel without a map lookup.
 */
const ExportChannel& Seek(const std::vector<ExportChannel>& table,
                          std::size_t* cursor, const std::string* name) {
  while (*cursor < table.size() && table[*cursor].name != name) ++*cursor;
  GP_CHECK_LT(*cursor, table.size()) << "sample of an unknown channel";
  return table[*cursor];
}

}  // namespace

void FlightRecorder::AppendCsvRows(const std::string& source,
                                   std::string* out) const {
  if (frames_.empty()) return;
  std::string t_us;
  AppendInt(t_us, frames_.back().t_us);
  // Per row, after the t_us and prefix: the widest field name
  // ("rate_per_s,", 11 bytes), a positive "%g" value at its widest
  // (12), and the newline.
  constexpr std::size_t kRowTailBytes = 24;
  std::vector<ExportChannel> table;
  table.reserve(channels_.size());
  std::size_t frame_bytes = 0;
  for (const auto& [name, channel] : channels_) {
    ExportChannel& entry = table.emplace_back();
    entry.name = &name;
    entry.prefix = "," + source + "," + name;
    if (channel.kind == FlightSample::kCounter) {
      entry.prefix += ",counter,";
      entry.rows = 3;
    } else if (channel.kind == FlightSample::kGauge) {
      entry.prefix += ",gauge,";
      entry.rows = 1;
    } else {
      entry.prefix += ",sketch,";
      entry.rows = 4;
      entry.bounds = &channel.bounds;
    }
    frame_bytes +=
        entry.rows * (t_us.size() + entry.prefix.size() + kRowTailBytes);
  }
  // One allocation for the whole export (frames only ever sample a
  // subset of today's channels), growing geometrically across the
  // serial appends of a multi-cell timeline.
  const std::size_t needed = out->size() + frames_.size() * frame_bytes;
  if (needed > out->capacity()) {
    out->reserve(std::max(needed, 2 * out->capacity()));
  }

  std::string& text = *out;
  for (const FlightFrame& frame : frames_) {
    t_us.clear();
    AppendInt(t_us, frame.t_us);
    const double window_s = static_cast<double>(frame.window_us) / 1e6;
    std::size_t cursor = 0;
    for (const FlightSample& sample : frame.samples) {
      const ExportChannel& channel = Seek(table, &cursor, sample.channel);
      // `<t_us>,<source>,<metric>,<kind>,<field>,` — the value follows.
      auto begin_row = [&](const char* field) {
        text += t_us;
        text += channel.prefix;
        text += field;
      };
      if (sample.kind == FlightSample::kCounter) {
        begin_row("total,");
        AppendUint(text, sample.counter_total);
        text += '\n';
        begin_row("delta,");
        AppendUint(text, sample.counter_delta);
        text += '\n';
        begin_row("rate_per_s,");
        AppendGeneral(text, frame.window_us > 0
                                ? static_cast<double>(sample.counter_delta) /
                                      window_s
                                : 0.0);
        text += '\n';
      } else if (sample.kind == FlightSample::kGauge) {
        begin_row("value,");
        AppendInt(text, sample.gauge_value);
        text += '\n';
      } else {
        begin_row("count,");
        AppendUint(text, sample.window.count);
        text += '\n';
        begin_row("sum,");
        AppendGeneral(text, WindowedSketch::WindowSum(sample.window));
        text += '\n';
        for (const auto& [field, p] :
             {std::pair{"p50,", 50.0}, std::pair{"p99,", 99.0}}) {
          begin_row(field);
          AppendGeneral(text, sample.window.count == 0
                                  ? 0.0
                                  : HistogramQuantile(*channel.bounds,
                                                      sample.window.buckets,
                                                      p));
          text += '\n';
        }
      }
    }
  }
}

void FlightRecorder::AppendCounterEvents(ChromeTraceWriter* writer,
                                         int pid) const {
  std::vector<ExportChannel> table;
  table.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) {
    ExportChannel& entry = table.emplace_back();
    entry.name = &name;
    if (channel.kind == FlightSample::kSketch) entry.bounds = &channel.bounds;
  }
  const std::string category = "timeline";
  std::string args;
  for (const FlightFrame& frame : frames_) {
    const double ts = static_cast<double>(frame.t_us);
    std::size_t cursor = 0;
    for (const FlightSample& sample : frame.samples) {
      const ExportChannel& channel = Seek(table, &cursor, sample.channel);
      args.clear();
      if (sample.kind == FlightSample::kCounter) {
        args += "\"delta\":";
        AppendUint(args, sample.counter_delta);
      } else if (sample.kind == FlightSample::kGauge) {
        args += "\"value\":";
        AppendInt(args, sample.gauge_value);
      } else {
        args += "\"p99\":";
        AppendGeneral(args, sample.window.count == 0
                                ? 0.0
                                : HistogramQuantile(*channel.bounds,
                                                    sample.window.buckets,
                                                    99.0));
      }
      writer->AddCounter(*sample.channel, category, pid, ts, args);
    }
  }
}

void FlightTimeline::Append(const FlightRecorder& recorder,
                            const std::string& source) {
  recorder.AppendCsvRows(source, &rows_);
}

std::string FlightTimeline::Csv() const {
  return kCsvHeader + rows_;
}

Status FlightTimeline::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return UnavailableError("cannot open timeline file: " + path);
  }
  // Header, then the rows in place — no header+rows copy of a
  // multi-megabyte document.
  const std::string_view header = kCsvHeader;
  const bool wrote_header =
      std::fwrite(header.data(), 1, header.size(), f) == header.size();
  const bool wrote_rows =
      wrote_header &&
      std::fwrite(rows_.data(), 1, rows_.size(), f) == rows_.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote_rows || !closed) {
    return UnavailableError("cannot write timeline file: " + path);
  }
  return Status::Ok();
}

}  // namespace gpuperf::obs
