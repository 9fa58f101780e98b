// perfbench: the repository benchmark. One single-threaded process runs
// one workload (campaign, predict or serve) through gpuperf's public API,
// checks its outputs, and prints its metrics; the last stdout line is
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exit status is 0 only when every check passed.
//
//   perfbench --workload NAME --reference FILE --work-dir DIR
//             [--seed N] [--seconds S] [--trace 0|1]
//
// run.py builds the binary and supplies the reference file and the work
// directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

/** One per-layer row: metric, unit, and the end-to-end metrics it feeds. */
struct LayerRow {
  const char* metric;
  const char* unit;
  const char* feeds;
  bool timed;  // also reported as a share of its round or set-up
};

// The per-layer catalog, with the end-to-end metrics each row should move
// on the workload that exercises it. A workload that bypasses a layer
// reports 0 for its rows ("not exercised"): its prediction is no change.
constexpr LayerRow kLayerRows[] = {
    {"zoo.build_s", "s", "items_per_s", true},
    {"gpuexec.lower_s", "s", "items_per_s", true},
    {"gpuexec.lowering_hit_ratio", "ratio", "items_per_s", false},
    {"gpuexec.profile_s", "s", "items_per_s", true},
    {"gpuexec.truth_measure_s", "s", "setup_s", true},
    {"dataset.build_s", "s", "items_per_s", true},
    {"dataset.kernel_rows", "count", "", false},
    {"models.kw_train_s", "s", "items_per_s", true},
    {"models.igkw_train_s", "s", "items_per_s", true},
    {"models.eval_s", "s", "items_per_s, single_queries_per_s", true},
    {"models.cluster_ratio", "ratio", "kw_error_pct", false},
    {"models.bundle_load_s", "s", "setup_s", true},
    {"models.kw_compile_us", "us", "cold_plans_per_s", true},
    {"models.igkw_compile_us", "us", "cold_plans_per_s", true},
    {"models.fingerprint_ns", "ns", "single_queries_per_s", true},
    {"models.predict_us_ns", "ns", "single_queries_per_s", true},
    {"models.plan_eval_ns", "ns", "items_per_s", true},
    {"models.predict_many_ns", "ns", "items_per_s", true},
    {"models.plan_compiles_per_query", "ratio", "items_per_s", false},
    {"simsys.matrix_fill_us", "us", "cold_plans_per_s", true},
    {"simsys.simulate_s", "s", "items_per_s", true},
    {"simsys.dispatches_per_arrival", "ratio", "items_per_s", false},
    {"simsys.hedge_win_ratio", "ratio", "items_per_s, slo_attainment_pct",
     false},
    {"simsys.shed_ratio", "ratio", "slo_attainment_pct", false},
    {"common.chaos_plan_us", "us", "items_per_s", true},
    {"obs.recorded_simulate_s", "s", "recorder_slowdown", true},
    {"obs.timeline_csv_s", "s", "recorder_slowdown", true},
    {"obs.frames", "count", "recorder_slowdown", false},
};

/** "gpuexec.lower_s" -> "gpuexec.lower.share_pct". */
std::string ShareName(const std::string& metric) {
  return metric.substr(0, metric.rfind('_')) + ".share_pct";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload campaign|predict|serve "
               "--reference FILE --work-dir DIR [--seed N] [--seconds S] "
               "[--trace 0|1]\n",
               message);
  return 2;
}

/** Appends `"name": {"value": v, "unit": "u"}` to `json`. */
void AppendMetric(std::string& json, const Metric& metric) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, "
                "\"unit\": \"%s\"}", json.empty() ? "" : ", ",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  json += buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*value < '0' || *value > '9' || *end != '\0') {
        return Usage("--seed must be a non-negative integer");
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--reference") {
      options.reference_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const Options&, Report&, Outcome&) = nullptr;
  if (options.workload == "campaign") run = RunCampaign;
  if (options.workload == "predict") run = RunPredict;
  if (options.workload == "serve") run = RunServe;
  if (run == nullptr) return Usage("--workload must be campaign, predict or serve");
  if (options.reference_path.empty() || options.work_dir.empty()) {
    return Usage("--reference and --work-dir are required");
  }

  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) return Usage(("cannot create " + options.work_dir).c_str());

  Report report;
  Outcome outcome;
  run(options, report, outcome);

  std::vector<Metric> metrics = report.metrics;
  std::printf("perfbench %s seed=%llu trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  if (options.trace) {
    std::printf("%-32s %14s %-6s %8s  %s\n", "layer metric", "value", "unit",
                "share", "feeds");
    for (const LayerRow& row : kLayerRows) {
      const auto it = report.layers.find(row.metric);
      const bool exercised = it != report.layers.end();
      const LayerValue value = exercised ? it->second : LayerValue{};
      const double share = std::isnan(value.share_pct) ? 0 : value.share_pct;
      char share_text[16] = "-";
      if (row.timed) std::snprintf(share_text, sizeof(share_text), "%.2f%%", share);
      std::string feeds;
      for (std::size_t begin = 0; *row.feeds != '\0';) {
        const std::string rest = std::string(row.feeds).substr(begin);
        const std::size_t comma = rest.find(", ");
        feeds += (feeds.empty() ? "" : ", ") + options.workload + "/" +
                 rest.substr(0, comma);
        if (comma == std::string::npos) break;
        begin += comma + 2;
      }
      std::printf("%-32s %14.6g %-6s %8s  %s\n", row.metric, value.value,
                  row.unit, share_text,
                  !exercised       ? "(not exercised)"
                  : feeds.empty()  ? "(work base of the rows above)"
                                   : feeds.c_str());
      metrics.push_back({row.metric, value.value, row.unit});
      if (row.timed) metrics.push_back({ShareName(row.metric), share, "%"});
    }
    std::printf("tracing overhead: %.2f%% of an untraced round\n",
                report.trace_overhead_pct);
    metrics.push_back({"trace.overhead_pct", report.trace_overhead_pct, "%"});
  } else {
    for (const Metric& metric : report.metrics) {
      std::printf("%-24s %16.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("timed metrics are at reference host speed; as measured:\n");
    for (const Metric& metric : report.context) {
      std::printf("  %-22s %16.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (Metric& metric : metrics) {
    if (!outcome.Check(std::isfinite(metric.value),
                       metric.name + " is a finite number")) {
      metric.value = 0;
    }
  }
  std::printf("operations: %lld attempted, %lld failed (%.2f%%)\n",
              static_cast<long long>(outcome.attempted()),
              static_cast<long long>(outcome.failed()),
              100.0 * outcome.failed() / outcome.attempted());

  std::string json;
  for (const Metric& metric : metrics) AppendMetric(json, metric);
  const bool correct = outcome.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted()),
              static_cast<long long>(outcome.failed()), json.c_str());
  return correct ? 0 : 1;
}
