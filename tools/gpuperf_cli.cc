// gpuperf — command-line front end for the library. Run `gpuperf --help`
// for the command list and `gpuperf <command> --help` for a command's
// flags; both are generated from the command table in cli_flags.cc,
// which also parses and bounds every flag before a command body runs.
//
// Error-handling contract: anything a user can cause from the command
// line — a typo'd network, a corrupt bundle, a malformed flag value — is
// reported as a one-line actionable message on stderr with exit code 1,
// never an abort. Usage mistakes additionally print the subcommand's full
// flag list; `--help` prints it on stdout and exits 0.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "common/ascii_plot.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "dataset/builder.h"
#include "dnn/flops.h"
#include "dnn/memory.h"
#include "gpuexec/oracle.h"
#include "gpuexec/roofline.h"
#include "models/e2e_model.h"
#include "models/explain.h"
#include "models/kw_model.h"
#include "models/lw_model.h"
#include "models/bundle_registry.h"
#include "models/model_io.h"
#include "models/refit.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "simsys/self_healing.h"
#include "simsys/serving.h"
#include "simsys/serving_matrix.h"
#include "zoo/zoo.h"

using namespace gpuperf;
using cli::Flags;

namespace {

/** A user mistake: one actionable line + the subcommand's flag list. */
int UsageError(const cli::Command& command, const std::string& message) {
  std::fprintf(stderr, "gpuperf: %s\n%s", message.c_str(),
               cli::Help(command).c_str());
  return 1;
}

/** A runtime user-facing failure (bad file, unknown name, ...). */
int UserError(const std::string& message) {
  std::fprintf(stderr, "gpuperf: %s\n", message.c_str());
  return 1;
}

int UserError(const Status& status) { return UserError(status.message()); }

int CmdGpus(const Flags&) {
  TextTable table;
  table.SetHeader({"GPU", "BW (GB/s)", "Memory (GB)", "TFLOPS", "SMs"});
  for (const gpuexec::GpuSpec& gpu : gpuexec::AllGpus()) {
    table.AddRow({gpu.name, Format("%.0f", gpu.bandwidth_gbps),
                  Format("%.0f", gpu.memory_gb),
                  Format("%.1f", gpu.fp32_tflops),
                  Format("%d", gpu.sm_count)});
  }
  table.Print();
  return 0;
}

int CmdZoo(const Flags& flags) {
  const std::string& family = flags.String("family");
  TextTable table;
  table.SetHeader({"network", "family", "layers", "GFLOPs", "params"});
  int shown = 0;
  for (const dnn::Network& net : zoo::ImageClassificationZoo()) {
    if (!family.empty() && net.family() != family) continue;
    table.AddRow({net.name(), net.family(),
                  Format("%zu", net.layers().size()),
                  Format("%.2f",
                         static_cast<double>(dnn::NetworkFlops(net, 1)) / 1e9),
                  Engineering(static_cast<double>(net.ParameterCount()))});
    ++shown;
  }
  table.Print();
  std::printf("%d networks\n", shown);
  return 0;
}

int CmdShow(const Flags& flags) {
  StatusOr<dnn::Network> net = zoo::TryBuildByName(flags.args()[0]);
  if (!net.ok()) return UserError(net.status());
  std::fputs(net->Summary().c_str(), stdout);
  return 0;
}

int CmdDataset(const Flags& flags) {
  const std::string& out = flags.String("out");
  dataset::BuildOptions options;
  if (!flags.String("gpus").empty()) {
    options.gpu_names = flags.List("gpus");
    for (const std::string& name : options.gpu_names) {
      if (gpuexec::FindGpu(name) == nullptr) {
        return UserError("unknown GPU '" + name +
                         "' (run `gpuperf gpus` for the list)");
      }
    }
  }
  options.batch = flags.Int("batch");
  options.jobs = static_cast<int>(flags.Int("jobs"));
  if (flags.Bool("training")) {
    options.workload = gpuexec::Workload::kTraining;
  }
  std::vector<dnn::Network> networks =
      zoo::SmallZoo(static_cast<int>(flags.Int("stride")));
  std::printf("profiling %zu networks...\n", networks.size());
  dataset::Dataset data = dataset::BuildDataset(networks, options);
  std::filesystem::create_directories(out);
  data.SaveCsv(out);
  std::printf("wrote %zu network rows, %zu kernel rows to %s\n",
              data.network_rows().size(), data.kernel_rows().size(),
              out.c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string& out = flags.String("out");
  StatusOr<dataset::Dataset> data =
      dataset::Dataset::TryLoadCsv(flags.String("dataset"));
  if (!data.ok()) return UserError(data.status());
  dataset::NetworkSplit split = dataset::SplitByNetwork(
      *data, flags.Double("test-fraction"),
      static_cast<std::uint64_t>(flags.Int("seed")));
  models::KwModel kw;
  kw.Train(*data, split);
  std::filesystem::create_directories(out);
  if (Status saved = models::ModelIo::SaveKw(kw, out); !saved.ok()) {
    return UserError(saved);
  }
  for (const std::string& gpu : kw.TrainedGpus()) {
    std::printf("%s: %d kernels -> %d models (calibration %.3f)\n",
                gpu.c_str(), kw.KernelCount(gpu), kw.ClusterCount(gpu),
                kw.CalibrationFor(gpu));
  }
  std::printf("model bundle written to %s\n", out.c_str());
  return 0;
}

int CmdEval(const Flags& flags) {
  StatusOr<dataset::Dataset> data =
      dataset::Dataset::TryLoadCsv(flags.String("dataset"));
  if (!data.ok()) return UserError(data.status());
  dataset::NetworkSplit split = dataset::SplitByNetwork(
      *data, flags.Double("test-fraction"),
      static_cast<std::uint64_t>(flags.Int("seed")));
  models::E2eModel e2e;
  models::LwModel lw;
  models::KwModel kw;
  e2e.Train(*data, split);
  lw.Train(*data, split);
  kw.Train(*data, split);

  // Build each test network once, meeting the rows in the evaluation
  // loop's order, so an unknown name fails on the same row as it would
  // there.
  const std::vector<std::string> gpu_names = kw.TrainedGpus();
  std::vector<std::optional<dnn::Network>> test_nets(
      static_cast<std::size_t>(data->networks().size()));
  for (const std::string& gpu_name : gpu_names) {
    for (const dataset::NetworkRow& row : data->network_rows()) {
      if (!split.IsTest(row.network_id) || test_nets[row.network_id]) {
        continue;
      }
      if (data->gpus().Get(row.gpu_id) != gpu_name) continue;
      StatusOr<dnn::Network> net =
          zoo::TryBuildByName(data->networks().Get(row.network_id));
      if (!net.ok()) {
        Status annotated = net.status();
        return UserError(
            annotated.Annotate("dataset references unknown network"));
      }
      test_nets[row.network_id] = std::move(net).value();
    }
  }

  // Evaluate against the held-out e2e rows of the dataset itself.
  TextTable table;
  table.SetHeader({"GPU", "E2E error", "LW error", "KW error", "test nets"});
  for (const std::string& gpu_name : gpu_names) {
    const gpuexec::GpuSpec& gpu = gpuexec::GpuByName(gpu_name);
    std::vector<double> e2e_pred, lw_pred, kw_pred, measured;
    for (const dataset::NetworkRow& row : data->network_rows()) {
      if (!split.IsTest(row.network_id)) continue;
      if (data->gpus().Get(row.gpu_id) != gpu_name) continue;
      const dnn::Network& net = *test_nets[row.network_id];
      e2e_pred.push_back(e2e.PredictUs(net, gpu, row.batch));
      lw_pred.push_back(lw.PredictUs(net, gpu, row.batch));
      kw_pred.push_back(kw.PredictUs(net, gpu, row.batch));
      measured.push_back(row.e2e_us);
    }
    if (measured.empty()) continue;
    table.AddRow({gpu_name, Format("%.1f%%", 100 * Mape(e2e_pred, measured)),
                  Format("%.1f%%", 100 * Mape(lw_pred, measured)),
                  Format("%.1f%%", 100 * Mape(kw_pred, measured)),
                  Format("%zu", measured.size())});
  }
  table.Print();
  return 0;
}

int CmdRoofline(const Flags& flags) {
  const std::vector<std::string>& args = flags.args();
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args[0]);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(args[1]);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + args[1] +
                     "' (run `gpuperf gpus` for the list)");
  }
  std::int64_t batch = 256;
  if (args.size() > 2) {
    StatusOr<long long> parsed = cli::ParseBatch(args[2]);
    if (!parsed.ok()) {
      return UsageError(flags.command(), parsed.status().message());
    }
    batch = *parsed;
  }
  gpuexec::RooflineReport report =
      gpuexec::AnalyzeRoofline(*net, *gpu, batch);
  TextTable table;
  table.SetHeader({"layer", "type", "FLOP/byte", "bound", "attainable"});
  for (const gpuexec::LayerRoofline& layer : report.layers) {
    table.AddRow({net->layers()[layer.layer_index].name,
                  dnn::LayerKindName(layer.kind),
                  Format("%.1f", layer.operational_intensity),
                  layer.memory_bound ? "memory" : "compute",
                  Format("%.0f GF/s", layer.attainable_gflops)});
  }
  table.Print();
  std::printf("\nridge point of %s: %.1f FLOP/byte\n", gpu->name.c_str(),
              report.ridge_intensity);
  std::printf("%d memory-bound / %d compute-bound layers; %.0f%% of the "
              "roofline time is memory-bound\n",
              report.memory_bound_layers, report.compute_bound_layers,
              100 * report.memory_bound_time_share);
  return 0;
}

int CmdBatch(const Flags& flags) {
  const std::vector<std::string>& args = flags.args();
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args[0]);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(args[1]);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + args[1] +
                     "' (run `gpuperf gpus` for the list)");
  }
  const std::int64_t inference =
      dnn::LargestFittingBatch(*net, gpu->memory_gb);
  std::printf("%s on %s (%.0f GB): largest inference batch %ld "
              "(footprint %s); BS-64 training footprint %s\n",
              net->name().c_str(), gpu->name.c_str(), gpu->memory_gb,
              (long)inference,
              Engineering(static_cast<double>(dnn::InferenceFootprintBytes(
                              *net, std::max<std::int64_t>(1, inference))))
                  .c_str(),
              Engineering(static_cast<double>(
                              dnn::TrainingFootprintBytes(*net, 64)))
                  .c_str());
  return 0;
}

int CmdPredict(const Flags& flags) {
  const std::vector<std::string>& args = flags.args();
  StatusOr<models::KwModel> kw = models::ModelIo::LoadKw(flags.String("model"));
  if (!kw.ok()) return UserError(kw.status());
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args[0]);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(args[1]);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + args[1] +
                     "' (run `gpuperf gpus` for the list)");
  }
  StatusOr<long long> batch = cli::ParseBatch(args[2]);
  if (!batch.ok()) {
    return UsageError(flags.command(), batch.status().message());
  }
  if (!kw->CoverageFor(*net, gpu->name).gpu_trained) {
    std::string trained;
    for (const std::string& name : kw->TrainedGpus()) {
      if (!trained.empty()) trained += ", ";
      trained += name;
    }
    return UserError("model bundle is not trained for GPU '" + gpu->name +
                     "' (trained: " + trained + ")");
  }
  const double us = kw->PredictUs(*net, *gpu, *batch);
  std::printf("%s @BS%ld on %s: %.3f ms (%.1f images/s)\n",
              net->name().c_str(), (long)*batch, gpu->name.c_str(), us / 1e3,
              static_cast<double>(*batch) / (us * 1e-6));
  return 0;
}

/**
 * Builds the --drift-* schedule over `pool`. Returns 0 and leaves
 * `schedule` empty when no drift was requested, 0 with a populated
 * schedule on success, and 1 (usage error already printed) when the
 * flags conflict or name a GPU outside the pool.
 */
int BuildDriftSchedule(const Flags& flags,
                       const std::vector<std::string>& pool,
                       double horizon_s, gpuexec::DriftSchedule* schedule) {
  const std::string& drift_gpu = flags.String("drift-gpu");
  const double drift_rate = flags.Double("drift-rate");
  if (!drift_gpu.empty() && drift_rate > 0) {
    return UsageError(flags.command(),
                      "--drift-gpu and --drift-rate are mutually exclusive");
  }
  if (drift_gpu.empty() && drift_rate == 0) return 0;

  if (!drift_gpu.empty()) {
    std::size_t resource = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i] == drift_gpu) resource = i;
    }
    if (resource == pool.size()) {
      return UsageError(flags.command(),
                        "--drift-gpu '" + drift_gpu + "' is not in the pool");
    }
    const std::string& scope = flags.String("drift-scope");
    gpuexec::DriftEvent event;
    event.resource = resource;
    event.at_us = flags.Double("drift-at") * 1e6;
    event.ramp_us = flags.Double("drift-ramp") * 1e6;
    event.factor = flags.Double("drift-factor");
    event.scope = scope == "memory"    ? gpuexec::DriftScope::kMemoryBound
                  : scope == "compute" ? gpuexec::DriftScope::kComputeBound
                                       : gpuexec::DriftScope::kAll;
    *schedule = gpuexec::DriftSchedule(pool.size(), {event});
    return 0;
  }

  gpuexec::DriftScheduleConfig config;
  config.rate_per_s = drift_rate;
  config.factor_sigma = flags.Double("drift-sigma");
  config.ramp_s = flags.Double("drift-ramp");
  config.seed = static_cast<std::uint64_t>(flags.Int("drift-seed"));
  *schedule = gpuexec::DriftSchedule(pool.size(), horizon_s * 1e6, config);
  return 0;
}

/** The dispatch policies a --policy value sweeps. */
std::vector<simsys::DispatchPolicy> PoliciesFor(const std::string& name) {
  if (name == "round-robin") return {simsys::DispatchPolicy::kRoundRobin};
  if (name == "least-outstanding") {
    return {simsys::DispatchPolicy::kLeastOutstanding};
  }
  if (name == "predicted-least-load") {
    return {simsys::DispatchPolicy::kPredictedLeastLoad};
  }
  return {simsys::DispatchPolicy::kRoundRobin,
          simsys::DispatchPolicy::kLeastOutstanding,
          simsys::DispatchPolicy::kPredictedLeastLoad};
}

int CmdServeSim(const Flags& flags) {
  // --- Pool and job-mix flags.
  std::vector<std::string> pool = flags.List("pool");
  std::vector<const gpuexec::GpuSpec*> gpus;
  for (const std::string& name : pool) {
    const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(name);
    if (gpu == nullptr) {
      return UserError("unknown GPU '" + name +
                       "' (run `gpuperf gpus` for the list)");
    }
    gpus.push_back(gpu);
  }
  std::vector<dnn::Network> networks;
  for (const std::string& name : flags.List("networks")) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    networks.push_back(std::move(net).value());
  }
  const long long batch = flags.Int("batch");
  const double duration = flags.Double("duration");

  // --- Service-time matrices: truth from the hardware oracle, predictions
  // from the bundle (when given, loadable, and canary-clean). The bundle
  // goes through the registry's promote gates — integrity validation plus
  // finite canary predictions on the job networks — so a corrupt or
  // insane bundle degrades dispatch instead of failing the simulation.
  models::BundleRegistry registry;
  const std::string& model_dir = flags.String("model");
  if (!model_dir.empty()) {
    models::CanaryOptions canary;
    canary.probe_networks = networks;
    canary.batch = batch;
    const Status promoted = registry.TryPromote(model_dir, canary);
    if (!promoted.ok()) {
      std::fprintf(stderr,
                   "gpuperf: warning: %s; dispatch degrades to "
                   "least-outstanding\n",
                   promoted.message().c_str());
    }
  }
  const std::shared_ptr<const models::KwModel> kw = registry.Snapshot();
  const std::vector<std::vector<double>> truth =
      simsys::TruthMatrix(networks, gpus, batch);
  std::vector<std::vector<double>> predicted;
  if (kw != nullptr) {
    // One batched PredictMany sweep over compiled plans fills the whole
    // matrix; uncovered (network, GPU) cells come back NaN, so those
    // decisions degrade while the rest keep using the model.
    simsys::ServingMatrixBuffer matrix_buffer;
    simsys::FillPredictedServingMatrix(*kw, networks, gpus, batch,
                                       matrix_buffer, predicted);
  }
  const std::vector<double> mix(networks.size(), 1.0);

  // --- The simulation grid (policy x run); SimulateServingGrid fills
  // pre-sized slots in parallel so the output is identical for every
  // --jobs value.
  std::vector<simsys::ServingGridCell> cells;
  for (simsys::DispatchPolicy policy : PoliciesFor(flags.String("policy"))) {
    for (int run = 0; run < flags.Int("runs"); ++run) {
      cells.push_back(simsys::ServingGridCell{
          policy, static_cast<std::uint64_t>(flags.Int("seed")) + run});
    }
  }
  simsys::ServingConfig base_config;
  base_config.arrival_rate_per_s = flags.Double("rate");
  base_config.duration_s = duration;
  base_config.faults.mtbf_s = flags.Double("mtbf");
  base_config.faults.mttr_s = flags.Double("mttr");
  base_config.retry.max_retries = static_cast<int>(flags.Int("retries"));
  base_config.queue_cap = static_cast<int>(flags.Int("queue-cap"));
  base_config.slo_ms = flags.Double("slo-ms");
  base_config.breaker.failure_threshold =
      static_cast<int>(flags.Int("breaker-failures"));
  base_config.breaker.cooldown_ms = flags.Double("breaker-cooldown-ms");
  base_config.breaker.half_open_probes =
      static_cast<int>(flags.Int("breaker-probes"));
  base_config.hedge_trigger_factor = flags.Double("hedge-factor");
  base_config.retry_budget = flags.Double("retry-budget");
  base_config.retry_budget_burst = flags.Double("retry-burst");
  base_config.adaptive_detect_quantile = flags.Double("adaptive-detect");
  ChaosPlanConfig& chaos = base_config.chaos;
  chaos.gray_mtbf_s = flags.Double("chaos-gray-mtbf");
  chaos.gray_mttr_s = flags.Double("chaos-gray-mttr");
  chaos.gray_factor = flags.Double("chaos-gray-factor");
  chaos.flap_mtbf_s = flags.Double("chaos-flap-mtbf");
  chaos.flap_count = static_cast<int>(flags.Int("chaos-flap-count"));
  chaos.flap_period_s = flags.Double("chaos-flap-period");
  chaos.flap_down_s = flags.Double("chaos-flap-down");
  chaos.host.size = static_cast<std::size_t>(flags.Int("chaos-host-size"));
  chaos.host.mtbf_s = flags.Double("chaos-host-mtbf");
  chaos.host.mttr_s = flags.Double("chaos-host-mttr");
  chaos.host.factor = flags.Double("chaos-host-factor");
  chaos.rack.size = static_cast<std::size_t>(flags.Int("chaos-rack-size"));
  chaos.rack.mtbf_s = flags.Double("chaos-rack-mtbf");
  chaos.rack.mttr_s = flags.Double("chaos-rack-mttr");
  chaos.rack.factor = flags.Double("chaos-rack-factor");
  gpuexec::DriftSchedule drift;
  if (int rc = BuildDriftSchedule(flags, pool, duration, &drift)) return rc;
  if (!drift.empty()) base_config.drift = &drift;

  const std::string& metrics_out = flags.String("metrics-out");
  const std::string& trace_out = flags.String("trace-out");
  const std::string& timeline_out = flags.String("timeline-out");
  const std::string& observations_out = flags.String("observations-out");
  base_config.recorder_config.sample_period_us =
      static_cast<long long>(flags.Double("timeline-period-ms") * 1e3);
  obs::ChromeTraceWriter trace_writer;
  obs::FlightTimeline timeline;
  const std::vector<StatusOr<simsys::ServingResult>> grid =
      simsys::SimulateServingGrid(truth, predicted, mix, base_config, cells,
                                  static_cast<int>(flags.Int("jobs")),
                                  trace_out.empty() ? nullptr : &trace_writer,
                                  timeline_out.empty() ? nullptr : &timeline);

  TextTable table;
  table.SetHeader({"policy", "seed", "p50 (ms)", "p99 (ms)", "completed",
                   "dropped", "shed", "miss", "SLO", "retries", "trips",
                   "degraded", "avail"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!grid[i].ok()) return UserError(grid[i].status());
    const simsys::ServingResult& r = *grid[i];
    double avail = 0;
    for (double a : r.gpu_availability) avail += a;
    avail /= static_cast<double>(r.gpu_availability.size());
    table.AddRow({simsys::DispatchPolicyName(cells[i].policy),
                  Format("%llu", (unsigned long long)cells[i].seed),
                  Format("%.1f", r.p50_ms), Format("%.1f", r.p99_ms),
                  Format("%d", r.completed), Format("%d", r.dropped),
                  Format("%d", r.shed_on_admission),
                  Format("%d", r.deadline_misses),
                  Format("%.1f%%", 100 * r.slo_attainment),
                  Format("%d", r.retries), Format("%d", r.breaker_opens),
                  Format("%.0f%%", 100 * r.degraded_dispatch_fraction),
                  Format("%.1f%%", 100 * avail)});
  }
  table.Print();
  if (predicted.empty()) {
    std::printf("\n(no model bundle: predicted-least-load served every "
                "decision via its least-outstanding fallback)\n");
  }
  if (!trace_out.empty()) {
    const Status written = trace_writer.WriteFile(trace_out);
    if (!written.ok()) return UserError(written);
  }
  if (!timeline_out.empty()) {
    const Status written = timeline.WriteCsv(timeline_out);
    if (!written.ok()) return UserError(written);
  }
  if (!observations_out.empty()) {
    // One row per (network, GPU): the oracle service time every cell
    // used as truth, plus the model's prediction when a bundle loaded.
    CsvWriter writer(observations_out);
    writer.WriteRow({"network", "gpu", "batch", "observed_us",
                     "predicted_us"});
    for (std::size_t n = 0; n < networks.size(); ++n) {
      for (std::size_t g = 0; g < gpus.size(); ++g) {
        writer.WriteRow({networks[n].name(), gpus[g]->name,
                         Format("%lld", batch),
                         Format("%.9g", truth[n][g]),
                         predicted.empty() ? ""
                                           : Format("%.9g", predicted[n][g])});
      }
    }
  }
  if (!metrics_out.empty()) {
    const Status written =
        obs::MetricsRegistry::Global().WriteSnapshot(metrics_out);
    if (!written.ok()) return UserError(written);
  }
  return 0;
}

// --- gpuperf chaos: scenario sweep + invariant checking -----------------

/** One chaos scenario preset; its knobs scale with the simulated
 *  duration so every preset produces multiple fault episodes per cell. */
struct ChaosScenario {
  const char* name;
  void (*apply)(double duration_s, simsys::ServingConfig* config);
};

const ChaosScenario kChaosScenarios[] = {
    {"outage",
     [](double d, simsys::ServingConfig* c) {
       c->faults.mtbf_s = d / 3;
       c->faults.mttr_s = d / 10;
     }},
    {"gray",
     [](double d, simsys::ServingConfig* c) {
       c->chaos.gray_mtbf_s = d / 3;
       c->chaos.gray_mttr_s = d / 5;
       c->chaos.gray_factor = 4;
     }},
    {"domain",
     [](double d, simsys::ServingConfig* c) {
       c->chaos.host.size = 2;
       c->chaos.host.mtbf_s = d;
       c->chaos.host.mttr_s = d / 10;
       c->chaos.host.factor = 0;
     }},
    {"flap",
     [](double d, simsys::ServingConfig* c) {
       c->chaos.flap_mtbf_s = d / 2;
       c->chaos.flap_count = 5;
       c->chaos.flap_period_s = 0.2;
       c->chaos.flap_down_s = 0.05;
     }},
};

/**
 * Checks one cell's resilience invariants; returns "" when all hold,
 * else a one-line description of the first violation. `config` must be
 * the exact per-cell config the simulator saw (policy and seeds
 * applied), because the breaker check reconstructs the cell's
 * deterministic outage timeline from it.
 */
std::string CheckChaosCell(const simsys::ServingConfig& config,
                           std::size_t pool_size,
                           const simsys::ServingResult& r,
                           double min_avail) {
  if (r.hedges_won > r.hedges_issued) {
    return Format("hedges_won %d > hedges_issued %d", r.hedges_won,
                  r.hedges_issued);
  }
  // Availability floor: resilience must keep the pool serving even
  // while the scenario injects faults.
  double avail = 0;
  for (double a : r.gpu_availability) avail += a;
  avail /= static_cast<double>(r.gpu_availability.size());
  if (avail < min_avail) {
    return Format("mean availability %.3f below the --min-avail floor %.3f",
                  avail, min_avail);
  }
  // Retry-budget bound: the token bucket structurally caps retries at
  // burst + budget x completions, so a mass failure cannot ignite a
  // retry storm.
  if (config.retry_budget > 0) {
    const double bound = config.retry_budget_burst +
                         config.retry_budget * r.completed + 1e-9;
    if (r.retries > bound) {
      return Format("retries %d exceed the budget bound %.1f "
                    "(burst %.0f + %.2f x %d completions)",
                    r.retries, bound, config.retry_budget_burst,
                    config.retry_budget, r.completed);
    }
  }
  // Breaker re-close: a breaker may still be open at the horizon only
  // on a GPU whose deterministic outage timeline has an outage near the
  // end (failure detection, the cooldown, and a half-open probe all
  // take time). Breakers open exclusively on outage-caused failures, so
  // a stuck-open breaker on an outage-free tail means re-close broke.
  if (config.breaker.failure_threshold > 0 && r.breakers_open_at_end > 0) {
    const double horizon_us = config.duration_s * 1e6;
    const double window_us = 2 * config.breaker.cooldown_ms * 1e3 + 2e6;
    const FaultPlan base_plan(pool_size, horizon_us, config.faults);
    ChaosPlan chaos;
    const FaultPlan* outages = &base_plan;
    if (ChaosConfigEnabled(config.chaos)) {
      chaos = ChaosPlan(pool_size, horizon_us, config.chaos, &base_plan);
      outages = &chaos.outage_plan();
    }
    int excused = 0;
    for (std::size_t g = 0; g < pool_size; ++g) {
      if (outages->FirstOutageIn(g, std::max(0.0, horizon_us - window_us),
                                 horizon_us) != nullptr) {
        ++excused;
      }
    }
    if (r.breakers_open_at_end > excused) {
      return Format("%d breaker(s) still open at the horizon but only %d "
                    "GPU(s) had an outage in the final %.1f s — breakers "
                    "failed to re-close after their fault healed",
                    r.breakers_open_at_end, excused, window_us / 1e6);
    }
  }
  return "";
}

int CmdChaos(const Flags& flags) {
  std::vector<std::string> pool = flags.List("pool");
  std::vector<const gpuexec::GpuSpec*> gpus;
  for (const std::string& name : pool) {
    const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(name);
    if (gpu == nullptr) {
      return UserError("unknown GPU '" + name +
                       "' (run `gpuperf gpus` for the list)");
    }
    gpus.push_back(gpu);
  }
  std::vector<dnn::Network> networks;
  for (const std::string& name : flags.List("networks")) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    networks.push_back(std::move(net).value());
  }
  const long long batch = flags.Int("batch");
  const double duration = flags.Double("duration");
  const double min_avail = flags.Double("min-avail");
  std::vector<const ChaosScenario*> scenarios;
  for (const std::string& name : flags.List("scenarios")) {
    const ChaosScenario* found = nullptr;
    for (const ChaosScenario& scenario : kChaosScenarios) {
      if (name == scenario.name) found = &scenario;
    }
    if (found == nullptr) {
      std::string names;
      for (const ChaosScenario& scenario : kChaosScenarios) {
        names += (names.empty() ? "" : ",") + std::string(scenario.name);
      }
      return UsageError(flags.command(),
                        "--scenarios must be a comma-separated subset of " +
                            names + "; got '" + name + "'");
    }
    scenarios.push_back(found);
  }

  // The resilience stack under test, shared by every scenario. The
  // deep semantic checks (e.g. gray_factor > 1) live in the simulator's
  // ValidateInputs and surface as one-line errors, never aborts.
  simsys::ServingConfig resilient;
  resilient.arrival_rate_per_s = flags.Double("rate");
  resilient.duration_s = duration;
  resilient.retry.max_retries = static_cast<int>(flags.Int("retries"));
  resilient.breaker.failure_threshold =
      static_cast<int>(flags.Int("breaker-failures"));
  resilient.breaker.cooldown_ms = flags.Double("breaker-cooldown-ms");
  resilient.hedge_trigger_factor = flags.Double("hedge-factor");
  resilient.retry_budget = flags.Double("retry-budget");
  resilient.retry_budget_burst = flags.Double("retry-burst");
  resilient.adaptive_detect_quantile = flags.Double("adaptive-detect");

  // Truth from the hardware oracle; predictions are the same matrix —
  // the oracle as its own predictor — so a hedge fires exactly when a
  // chaos slowdown pushes a job past hedge_trigger_factor x truth.
  const std::vector<std::vector<double>> truth =
      simsys::TruthMatrix(networks, gpus, batch);
  const std::vector<std::vector<double>>& predicted = truth;
  const std::vector<double> mix(networks.size(), 1.0);

  std::vector<simsys::ServingGridCell> cells;
  for (simsys::DispatchPolicy policy : PoliciesFor(flags.String("policy"))) {
    for (int run = 0; run < flags.Int("runs"); ++run) {
      cells.push_back(simsys::ServingGridCell{
          policy, static_cast<std::uint64_t>(flags.Int("seed")) + run});
    }
  }

  const std::string& metrics_out = flags.String("metrics-out");
  const std::string& trace_out = flags.String("trace-out");
  const std::string& timeline_out = flags.String("timeline-out");
  obs::ChromeTraceWriter trace_writer;
  obs::FlightTimeline timeline;
  TextTable table;
  table.SetHeader({"scenario", "policy", "seed", "p50 (ms)", "p99 (ms)",
                   "done", "drop", "shed", "retry", "suppr", "hedge", "won",
                   "trips", "open", "avail", "check"});
  std::string violation;  // first invariant violation, already located
  const obs::Counter& arrived_total =
      obs::MetricsRegistry::Global().counter("gpuperf_serving_jobs_arrived");
  for (const ChaosScenario* scenario : scenarios) {
    simsys::ServingConfig base_config = resilient;
    scenario->apply(duration, &base_config);
    const std::uint64_t arrived_before = arrived_total.Value();
    const std::vector<StatusOr<simsys::ServingResult>> grid =
        simsys::SimulateServingGrid(
            truth, predicted, mix, base_config, cells,
            static_cast<int>(flags.Int("jobs")),
            trace_out.empty() ? nullptr : &trace_writer,
            timeline_out.empty() ? nullptr : &timeline,
            std::string(scenario->name) + " ");
    long long sum_completed = 0, sum_dropped = 0, sum_shed = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!grid[i].ok()) return UserError(grid[i].status());
      const simsys::ServingResult& r = *grid[i];
      sum_completed += r.completed;
      sum_dropped += r.dropped;
      sum_shed += r.shed_on_admission;
      simsys::ServingConfig cell_config = base_config;
      cell_config.policy = cells[i].policy;
      cell_config.seed = cells[i].seed;
      cell_config.faults.seed = cells[i].seed;
      cell_config.chaos.seed = cells[i].seed;
      const std::string failed =
          CheckChaosCell(cell_config, pool.size(), r, min_avail);
      double avail = 0;
      for (double a : r.gpu_availability) avail += a;
      avail /= static_cast<double>(r.gpu_availability.size());
      table.AddRow({scenario->name,
                    simsys::DispatchPolicyName(cells[i].policy),
                    Format("%llu", (unsigned long long)cells[i].seed),
                    Format("%.1f", r.p50_ms), Format("%.1f", r.p99_ms),
                    Format("%d", r.completed), Format("%d", r.dropped),
                    Format("%d", r.shed_on_admission),
                    Format("%d", r.retries),
                    Format("%d", r.retries_suppressed),
                    Format("%d", r.hedges_issued),
                    Format("%d", r.hedges_won),
                    Format("%d", r.breaker_opens),
                    Format("%d", r.breakers_open_at_end),
                    Format("%.1f%%", 100 * avail),
                    failed.empty() ? "OK" : "FAIL"});
      if (!failed.empty() && violation.empty()) {
        violation = Format(
            "chaos invariant violated: scenario=%s policy=%s seed=%llu: %s",
            scenario->name,
            simsys::DispatchPolicyName(cells[i].policy).c_str(),
            (unsigned long long)cells[i].seed, failed.c_str());
      }
    }
    // Accounting identity, cross-checked against the registry's arrival
    // count (taken from each cell's arrival plan): every arrival of this
    // scenario's grid completed, dropped, or was shed — nothing vanished.
    const long long arrived =
        static_cast<long long>(arrived_total.Value() - arrived_before);
    if (arrived != sum_completed + sum_dropped + sum_shed &&
        violation.empty()) {
      violation = Format(
          "chaos invariant violated: scenario=%s: %lld arrivals != "
          "%lld completed + %lld dropped + %lld shed",
          scenario->name, arrived, sum_completed, sum_dropped, sum_shed);
    }
  }
  table.Print();
  if (!trace_out.empty()) {
    const Status written = trace_writer.WriteFile(trace_out);
    if (!written.ok()) return UserError(written);
  }
  if (!timeline_out.empty()) {
    const Status written = timeline.WriteCsv(timeline_out);
    if (!written.ok()) return UserError(written);
  }
  if (!metrics_out.empty()) {
    const Status written =
        obs::MetricsRegistry::Global().WriteSnapshot(metrics_out);
    if (!written.ok()) return UserError(written);
  }
  if (!violation.empty()) return UserError(violation);
  std::printf("chaos: all invariants held across %zu scenario(s) x %zu "
              "cell(s)\n",
              scenarios.size(), cells.size());
  return 0;
}

int CmdBundleCheck(const Flags& flags) {
  const std::string& candidate = flags.String("candidate");
  const long long batch = flags.Int("batch");
  const double tolerance = flags.Double("tolerance");
  models::CanaryOptions canary;
  canary.batch = batch;
  canary.tolerance = tolerance;
  for (const std::string& name : flags.List("networks")) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    canary.probe_networks.push_back(std::move(net).value());
  }
  if (!flags.String("gpus").empty()) canary.gpus = flags.List("gpus");

  // The baseline (when given) becomes the serving generation the
  // candidate's canary drift is measured against — exactly the hot-reload
  // sequence a serving process would run.
  models::BundleRegistry registry;
  const std::string& baseline = flags.String("baseline");
  if (!baseline.empty()) {
    models::CanaryOptions integrity_only;
    const Status loaded = registry.TryPromote(baseline, integrity_only);
    if (!loaded.ok()) {
      return UserError(
          Status(loaded).Annotate("--baseline failed its own validation"));
    }
  }
  const Status promoted = registry.TryPromote(candidate, canary);
  if (!promoted.ok()) return UserError(promoted);
  const models::BundleRegistryCounters counters = registry.counters();
  std::printf("bundle-check: PROMOTED '%s' (generation %llu, "
              "%zu probe network(s) @BS%lld, tolerance %.0f%%)\n",
              candidate.c_str(), (unsigned long long)counters.generation,
              canary.probe_networks.size(), batch, 100 * tolerance);
  return 0;
}

int CmdDriftReport(const Flags& flags) {
  const std::string& model_dir = flags.String("model");
  std::vector<std::string> pool = flags.List("pool");
  std::vector<const gpuexec::GpuSpec*> gpus;
  for (const std::string& name : pool) {
    const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(name);
    if (gpu == nullptr) {
      return UserError("unknown GPU '" + name +
                       "' (run `gpuperf gpus` for the list)");
    }
    gpus.push_back(gpu);
  }
  std::vector<dnn::Network> networks;
  for (const std::string& name : flags.List("networks")) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    networks.push_back(std::move(net).value());
  }
  const long long batch = flags.Int("batch");
  const double epoch_s = flags.Double("epoch-seconds");
  const int epochs = static_cast<int>(flags.Int("epochs"));

  gpuexec::DriftSchedule drift;
  if (int rc = BuildDriftSchedule(flags, pool, epoch_s * epochs, &drift)) {
    return rc;
  }

  // Seed the registry with the initial bundle through the same promote
  // gate a serving process uses; a bundle that cannot serve is a user
  // error here (drift-report is about healing a live model).
  models::BundleRegistry registry;
  models::CanaryOptions canary;
  canary.probe_networks = networks;
  canary.batch = batch;
  const Status promoted = registry.TryPromote(model_dir, canary);
  if (!promoted.ok()) return UserError(promoted);

  const std::vector<std::vector<double>> truth =
      simsys::TruthMatrix(networks, gpus, batch);
  const std::vector<double> mix(networks.size(), 1.0);

  models::LifecycleOptions lifecycle;
  lifecycle.work_dir = flags.String("work-dir").empty()
                           ? model_dir + "-heal"
                           : flags.String("work-dir");
  models::LifecycleController controller(&registry, model_dir, canary,
                                         lifecycle);

  simsys::SelfHealingConfig config;
  config.serving.arrival_rate_per_s = flags.Double("rate");
  config.serving.duration_s = epoch_s;
  config.serving.seed = static_cast<std::uint64_t>(flags.Int("seed"));
  config.serving.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  if (!drift.empty()) config.serving.drift = &drift;
  config.epochs = epochs;
  config.batch = batch;
  // One recorder spans every epoch: the lifecycle copies the serving
  // config per epoch advancing time_origin_us, and the recorder
  // re-anchors at each epoch's origin, so the timeline is one
  // continuous monotone document across the whole lifecycle.
  const std::string& timeline_out = flags.String("timeline-out");
  obs::FlightRecorder recorder;
  if (!timeline_out.empty()) config.serving.recorder = &recorder;

  StatusOr<simsys::SelfHealingResult> result = simsys::RunSelfHealingServing(
      networks, gpus, truth, mix, &registry, &controller, config);
  if (!result.ok()) return UserError(result.status());

  TextTable table;
  std::vector<std::string> header = {"epoch", "state", "completed"};
  for (const std::string& name : pool) header.push_back(name + " |lnR|");
  table.SetHeader(header);
  for (std::size_t e = 0; e < result->epochs.size(); ++e) {
    const simsys::SelfHealingEpoch& epoch = result->epochs[e];
    std::vector<std::string> row = {
        Format("%zu", e), models::LifecycleStateName(epoch.state),
        Format("%d", epoch.completed)};
    for (std::size_t g = 0; g < pool.size(); ++g) {
      row.push_back(Format("%.4f", epoch.mean_abs_log_ratio[g]));
    }
    table.AddRow(row);
  }
  table.Print();

  // Parseable summary (scripts/drift_smoke.sh consumes these lines):
  // per-GPU peak vs final epoch residual, then the lifecycle verdict.
  for (std::size_t g = 0; g < pool.size(); ++g) {
    double peak = 0;
    for (const simsys::SelfHealingEpoch& epoch : result->epochs) {
      peak = std::max(peak, epoch.mean_abs_log_ratio[g]);
    }
    const double final_residual =
        result->epochs.back().mean_abs_log_ratio[g];
    std::printf("drift-report: gpu=%s peak=%.4f final=%.4f\n",
                pool[g].c_str(), peak, final_residual);
  }
  std::printf("drift-report: final_state=%s refits=%llu promotions=%llu "
              "rollbacks=%llu shadow_rejections=%llu "
              "canary_rejections=%llu\n",
              models::LifecycleStateName(result->final_state),
              (unsigned long long)result->counters.refits,
              (unsigned long long)result->counters.promotions,
              (unsigned long long)result->counters.rollbacks,
              (unsigned long long)result->counters.shadow_rejections,
              (unsigned long long)result->counters.canary_rejections);

  if (!timeline_out.empty()) {
    obs::FlightTimeline timeline;
    timeline.Append(recorder, "self-healing");
    const Status written = timeline.WriteCsv(timeline_out);
    if (!written.ok()) return UserError(written);
  }
  const std::string& metrics_out = flags.String("metrics-out");
  if (!metrics_out.empty()) {
    const Status written =
        obs::MetricsRegistry::Global().WriteSnapshot(metrics_out);
    if (!written.ok()) return UserError(written);
  }
  return 0;
}

// --- gpuperf timeline: render a flight-recorder timeline CSV ------------

/** The field summarized/plotted by default for each sample kind. */
std::string DefaultTimelineField(const std::string& kind) {
  if (kind == "counter") return "delta";
  if (kind == "gauge") return "value";
  return "p99";
}

int CmdTimeline(const Flags& flags) {
  const std::string& in = flags.String("in");
  StatusOr<CsvTable> parsed = TryReadCsv(in);
  if (!parsed.ok()) return UserError(parsed.status());
  const CsvTable& csv = *parsed;
  std::size_t columns[6];
  const char* names[6] = {"t_us", "source", "metric", "kind", "field",
                          "value"};
  for (int i = 0; i < 6; ++i) {
    StatusOr<std::size_t> column = csv.FindColumn(names[i]);
    if (!column.ok()) {
      Status annotated = column.status();
      return UserError(annotated.Annotate("not a flight-recorder timeline"));
    }
    columns[i] = *column;
  }
  const std::size_t c_t = columns[0], c_source = columns[1],
                    c_metric = columns[2], c_kind = columns[3],
                    c_field = columns[4], c_value = columns[5];
  const std::string& metric = flags.String("metric");
  const std::string& source = flags.String("source");

  if (metric.empty()) {
    // Summary mode: one row per (source, metric) over its default field.
    struct Summary {
      std::string kind;
      std::size_t windows = 0;
      double min = 0, max = 0, last = 0;
    };
    std::map<std::pair<std::string, std::string>, Summary> groups;
    for (std::size_t i = 0; i < csv.rows.size(); ++i) {
      const std::vector<std::string>& row = csv.rows[i];
      if (!source.empty() && row[c_source] != source) continue;
      if (row[c_field] != DefaultTimelineField(row[c_kind])) continue;
      StatusOr<double> value = ParseFiniteDouble(row[c_value]);
      if (!value.ok()) {
        return UserError(csv.RowLocation(i) + ": non-numeric value '" +
                         row[c_value] + "'");
      }
      Summary& s = groups[{row[c_source], row[c_metric]}];
      if (s.windows == 0) {
        s.min = s.max = *value;
      } else {
        s.min = std::min(s.min, *value);
        s.max = std::max(s.max, *value);
      }
      s.kind = row[c_kind];
      s.last = *value;
      ++s.windows;
    }
    if (groups.empty()) {
      return UserError("no timeline rows" +
                       (source.empty() ? std::string()
                                       : " for source '" + source + "'") +
                       " in " + in);
    }
    TextTable table;
    table.SetHeader({"source", "metric", "kind", "field", "windows", "min",
                     "max", "last"});
    for (const auto& [key, s] : groups) {
      table.AddRow({key.first, key.second, s.kind,
                    DefaultTimelineField(s.kind), Format("%zu", s.windows),
                    Format("%g", s.min), Format("%g", s.max),
                    Format("%g", s.last)});
    }
    table.Print();
    return 0;
  }

  // Series mode: every (t_us, source) sample of one metric.
  std::string kind;
  std::vector<std::string> fields;  // first-appearance order
  struct SeriesRow {
    std::string t_us;
    std::string source;
    std::map<std::string, std::string> values;
  };
  std::vector<SeriesRow> series;
  for (const std::vector<std::string>& row : csv.rows) {
    if (row[c_metric] != metric) continue;
    if (!source.empty() && row[c_source] != source) continue;
    kind = row[c_kind];
    bool seen = false;
    for (const std::string& field : fields) seen |= field == row[c_field];
    if (!seen) fields.push_back(row[c_field]);
    if (series.empty() || series.back().t_us != row[c_t] ||
        series.back().source != row[c_source]) {
      series.push_back(SeriesRow{row[c_t], row[c_source], {}});
    }
    series.back().values[row[c_field]] = row[c_value];
  }
  if (series.empty()) {
    return UserError("metric '" + metric + "' not found in " + in +
                     " (run `gpuperf timeline --in " + in +
                     "` for the list)");
  }

  if (flags.Bool("ascii")) {
    const std::string field = flags.String("field").empty()
                                  ? DefaultTimelineField(kind)
                                  : flags.String("field");
    // One plot series per source, sim time in seconds on the x axis.
    std::map<std::string, PlotSeries> by_source;
    for (const SeriesRow& row : series) {
      auto it = row.values.find(field);
      if (it == row.values.end()) {
        return UserError("metric '" + metric + "' has no field '" + field +
                         "'");
      }
      StatusOr<double> t = ParseFiniteDouble(row.t_us);
      StatusOr<double> value = ParseFiniteDouble(it->second);
      if (!t.ok() || !value.ok()) {
        return UserError("non-numeric timeline row for metric '" + metric +
                         "'");
      }
      PlotSeries& plot = by_source[row.source];
      plot.label = row.source;
      plot.x.push_back(*t / 1e6);
      plot.y.push_back(*value);
    }
    std::vector<PlotSeries> plots;
    for (auto& [name, plot] : by_source) {
      (void)name;
      plots.push_back(std::move(plot));
    }
    PlotOptions options;
    options.width = static_cast<int>(flags.Int("width"));
    options.height = 12;
    options.x_label = "sim time (s)";
    options.y_label = field;
    options.title = metric;
    std::fputs(AsciiPlot(plots, options).c_str(), stdout);
    return 0;
  }

  TextTable table;
  std::vector<std::string> header = {"t_s", "source"};
  for (const std::string& field : fields) header.push_back(field);
  table.SetHeader(header);
  for (const SeriesRow& row : series) {
    StatusOr<double> t = ParseFiniteDouble(row.t_us);
    std::vector<std::string> cells = {
        t.ok() ? Format("%.3f", *t / 1e6) : row.t_us, row.source};
    for (const std::string& field : fields) {
      auto it = row.values.find(field);
      cells.push_back(it == row.values.end() ? "" : it->second);
    }
    table.AddRow(cells);
  }
  table.Print();
  return 0;
}

// --- gpuperf explain: prediction-error attribution ----------------------

/** Cluster ids are small ints; -1 marks layer-wise fallback terms. */
std::string ClusterName(int cluster_id) {
  return cluster_id < 0 ? "lw-fallback" : Format("cluster %d", cluster_id);
}

int CmdExplain(const Flags& flags) {
  const long long batch = flags.Int("batch");
  const int top = static_cast<int>(flags.Int("top"));
  StatusOr<models::KwModel> kw = models::ModelIo::LoadKw(flags.String("model"));
  if (!kw.ok()) return UserError(kw.status());
  StatusOr<dnn::Network> net = zoo::TryBuildByName(flags.String("network"));
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(flags.String("gpu"));
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + flags.String("gpu") +
                     "' (run `gpuperf gpus` for the list)");
  }
  if (!kw->CoverageFor(*net, gpu->name).gpu_trained) {
    std::string trained;
    for (const std::string& name : kw->TrainedGpus()) {
      if (!trained.empty()) trained += ", ";
      trained += name;
    }
    return UserError("model bundle is not trained for GPU '" + gpu->name +
                     "' (trained: " + trained + ")");
  }

  const models::PredictionPlan* plan = kw->PlanFor(*net, *gpu);
  const models::PredictionBreakdown breakdown =
      models::ExplainPlan(*plan, *net, batch);
  std::printf("%s @BS%lld on %s: predicted %.3f ms "
              "(%zu layers, %zu terms, %zu clusters)\n\n",
              net->name().c_str(), batch, gpu->name.c_str(),
              breakdown.total_us / 1e3, breakdown.layers.size(),
              breakdown.terms.size(), breakdown.clusters.size());

  // Top-K layers by contribution; ties break on plan order so the
  // table is deterministic.
  std::vector<const models::LayerContribution*> ranked;
  for (const models::LayerContribution& layer : breakdown.layers) {
    ranked.push_back(&layer);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const models::LayerContribution* a,
               const models::LayerContribution* b) {
              if (a->us != b->us) return a->us > b->us;
              return a->index < b->index;
            });
  TextTable layers;
  layers.SetHeader({"layer", "name", "ms", "share", "cumulative"});
  double cumulative = 0;
  for (std::size_t i = 0;
       i < ranked.size() && i < static_cast<std::size_t>(top); ++i) {
    cumulative += ranked[i]->share;
    layers.AddRow({Format("%zu", ranked[i]->index),
                   ranked[i]->label.empty() ? "(unnamed)" : ranked[i]->label,
                   Format("%.4f", ranked[i]->us / 1e3),
                   Format("%.1f%%", 100 * ranked[i]->share),
                   Format("%.1f%%", 100 * cumulative)});
  }
  layers.Print();
  if (ranked.size() > static_cast<std::size_t>(top)) {
    std::printf("(%zu more layers; raise --top to see them)\n",
                ranked.size() - static_cast<std::size_t>(top));
  }

  std::printf("\n");
  TextTable clusters;
  clusters.SetHeader({"cluster", "terms", "ms", "share"});
  for (const models::ClusterContribution& cc : breakdown.clusters) {
    clusters.AddRow({ClusterName(cc.cluster_id),
                     Format("%llu", (unsigned long long)cc.terms),
                     Format("%.4f", cc.us / 1e3),
                     Format("%.1f%%", 100 * cc.share)});
  }
  clusters.Print();

  const std::string& layer_name = flags.String("layer");
  if (!layer_name.empty()) {
    TextTable terms;
    terms.SetHeader({"layer", "term", "cluster", "raw ms", "scaled ms",
                     "share"});
    bool found = false;
    for (std::size_t t = 0; t < breakdown.terms.size(); ++t) {
      const models::TermContribution& tc = breakdown.terms[t];
      if (tc.layer_label != layer_name) continue;
      found = true;
      terms.AddRow({Format("%zu", tc.layer), Format("%zu", t),
                    ClusterName(tc.cluster_id),
                    Format("%.4f", tc.raw_us / 1e3),
                    Format("%.4f", tc.scaled_us / 1e3),
                    Format("%.1f%%",
                           100 * (breakdown.total_us != 0
                                      ? tc.scaled_us / breakdown.total_us
                                      : 0.0))});
    }
    if (!found) {
      return UserError("network '" + net->name() + "' has no layer named '" +
                       layer_name + "' (run `gpuperf show " + net->name() +
                       "`)");
    }
    std::printf("\n");
    terms.Print();
  }

  const std::string& observations = flags.String("observations");
  if (!observations.empty()) {
    StatusOr<CsvTable> parsed = TryReadCsv(observations);
    if (!parsed.ok()) return UserError(parsed.status());
    const CsvTable& csv = *parsed;
    StatusOr<std::size_t> c_network = csv.FindColumn("network");
    StatusOr<std::size_t> c_gpu = csv.FindColumn("gpu");
    StatusOr<std::size_t> c_batch = csv.FindColumn("batch");
    StatusOr<std::size_t> c_observed = csv.FindColumn("observed_us");
    if (!c_network.ok()) return UserError(c_network.status());
    if (!c_gpu.ok()) return UserError(c_gpu.status());
    if (!c_batch.ok()) return UserError(c_batch.status());
    if (!c_observed.ok()) return UserError(c_observed.status());
    double observed_sum = 0;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < csv.rows.size(); ++i) {
      const std::vector<std::string>& row = csv.rows[i];
      if (row[*c_network] != net->name() || row[*c_gpu] != gpu->name ||
          row[*c_batch] != Format("%lld", batch)) {
        continue;
      }
      StatusOr<double> observed = ParseFiniteDouble(row[*c_observed]);
      if (!observed.ok()) {
        return UserError(csv.RowLocation(i) + ": non-numeric observed_us '" +
                         row[*c_observed] + "'");
      }
      observed_sum += *observed;
      ++matched;
    }
    if (matched == 0) {
      return UserError(Format("no observation rows for %s on %s @BS%lld in ",
                              net->name().c_str(), gpu->name.c_str(),
                              batch) +
                       observations);
    }
    const double observed_us = observed_sum / static_cast<double>(matched);
    const double residual_us = observed_us - breakdown.total_us;
    std::printf("\nobserved %.3f ms (%zu row(s)), predicted %.3f ms, "
                "residual %+.3f ms (%+.1f%%)\n",
                observed_us / 1e3, matched, breakdown.total_us / 1e3,
                residual_us / 1e3,
                breakdown.total_us != 0
                    ? 100 * residual_us / breakdown.total_us
                    : 0.0);
    const std::vector<models::ResidualAttribution> attributed =
        models::AttributeResiduals(breakdown, observed_us);
    // Largest |residual slice| first; ties break on cluster id.
    std::vector<const models::ResidualAttribution*> order;
    for (const models::ResidualAttribution& ra : attributed) {
      order.push_back(&ra);
    }
    std::sort(order.begin(), order.end(),
              [](const models::ResidualAttribution* a,
                 const models::ResidualAttribution* b) {
                const double am = std::abs(a->residual_us);
                const double bm = std::abs(b->residual_us);
                if (am != bm) return am > bm;
                return a->cluster_id < b->cluster_id;
              });
    TextTable attribution;
    attribution.SetHeader({"cluster", "share", "residual ms"});
    for (std::size_t i = 0;
         i < order.size() && i < static_cast<std::size_t>(top); ++i) {
      attribution.AddRow({ClusterName(order[i]->cluster_id),
                          Format("%.1f%%", 100 * order[i]->share),
                          Format("%+.4f", order[i]->residual_us / 1e3)});
    }
    attribution.Print();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InstallProcessMetrics();
  const std::string name = argc < 2 ? "" : argv[1];
  if (name == "--help") {
    std::fputs(cli::Usage().c_str(), stdout);
    return 0;
  }
  const cli::Command* command = cli::FindCommand(name);
  if (command == nullptr) {
    if (argc >= 2) {
      std::fprintf(stderr, "gpuperf: unknown command '%s'\n", name.c_str());
    }
    std::fputs(cli::Usage().c_str(), stderr);
    return 1;
  }
  static const std::map<std::string_view, int (*)(const Flags&)> kBodies = {
      {"gpus", CmdGpus},
      {"zoo", CmdZoo},
      {"show", CmdShow},
      {"dataset", CmdDataset},
      {"train", CmdTrain},
      {"eval", CmdEval},
      {"predict", CmdPredict},
      {"roofline", CmdRoofline},
      {"batch", CmdBatch},
      {"serve-sim", CmdServeSim},
      {"chaos", CmdChaos},
      {"bundle-check", CmdBundleCheck},
      {"drift-report", CmdDriftReport},
      {"timeline", CmdTimeline},
      {"explain", CmdExplain},
  };
  const auto body = kBodies.find(command->name);
  GP_CHECK(body != kBodies.end()) << "no body for gpuperf " << name;
  const StatusOr<Flags> flags = Flags::Parse(
      *command, std::vector<std::string>(argv + 2, argv + argc));
  if (!flags.ok()) return UsageError(*command, flags.status().message());
  if (flags->help()) {
    std::fputs(cli::Help(*command).c_str(), stdout);
    return 0;
  }
  return body->second(*flags);
}
