// gpuperf — command-line front end for the library.
//
//   gpuperf gpus                          list the supported GPUs (Table 1)
//   gpuperf zoo [--family F]              list zoo networks
//   gpuperf show <network>                layer-by-layer network summary
//   gpuperf dataset --out DIR [options]   run a measurement campaign
//   gpuperf train --dataset DIR --out DIR train + save a KW model bundle
//   gpuperf eval --dataset DIR            train E2E/LW/KW and report errors
//   gpuperf predict --model DIR <network> <gpu> <batch>
//   gpuperf roofline <network> <gpu> [batch]
//   gpuperf batch <network> <gpu>
//   gpuperf serve-sim [options]           fault-tolerant serving simulation
//   gpuperf chaos [options]               chaos-scenario sweep + invariants
//   gpuperf bundle-check --candidate DIR  validate + canary a bundle
//   gpuperf drift-report [options]        self-healing lifecycle report
//   gpuperf timeline --in PATH [options]  render a flight-recorder timeline
//   gpuperf explain --model DIR --network N --gpu G --batch B
//                                         decompose a prediction
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
#include <set>
#include <string>
#include <vector>

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
#include "gpuexec/profiler.h"
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

namespace {

/** Minimal --flag[=value] parser: positionals plus a flag map. */
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args Parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (StartsWith(token, "--")) {
        std::string key = token.substr(2);
        std::string value = "1";
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
          value = key.substr(eq + 1);
          key = key.substr(0, eq);
        } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
          value = argv[++i];
        }
        args.flags[key] = value;
      } else {
        args.positional.push_back(token);
      }
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  /** The first flag not in `allowed`, or empty when all are known. */
  std::string UnknownFlag(const std::set<std::string>& allowed) const {
    for (const auto& [key, value] : flags) {
      (void)value;
      if (allowed.count(key) == 0) return key;
    }
    return "";
  }
};

// Per-subcommand usage text: first line is the synopsis, the rest the
// full flag list. Printed verbatim on any usage mistake.
constexpr char kShowUsage[] = "usage: gpuperf show <network>\n";
constexpr char kZooUsage[] =
    "usage: gpuperf zoo [--family F]\n"
    "  --family F     only list networks of family F (e.g. ResNet)\n";
constexpr char kDatasetUsage[] =
    "usage: gpuperf dataset --out DIR [options]\n"
    "  --out DIR      output directory for the dataset CSVs (required)\n"
    "  --gpus A,B     comma-separated GPU names (default: all seven)\n"
    "  --batch N      batch size to profile at (default 512)\n"
    "  --stride N     profile every N-th zoo network (default 1)\n"
    "  --training     profile the training workload instead of inference\n"
    "  --jobs N       profiling threads; 0 = all hardware threads\n";
constexpr char kTrainUsage[] =
    "usage: gpuperf train --dataset DIR --out DIR [options]\n"
    "  --dataset DIR        dataset directory from `gpuperf dataset`\n"
    "  --out DIR            output directory for the model bundle\n"
    "  --test-fraction F    held-out fraction in (0, 1) (default 0.15)\n"
    "  --seed N             network-split seed (default 42)\n";
constexpr char kEvalUsage[] =
    "usage: gpuperf eval --dataset DIR [options]\n"
    "  --dataset DIR        dataset directory from `gpuperf dataset`\n"
    "  --test-fraction F    held-out fraction in (0, 1) (default 0.15)\n"
    "  --seed N             network-split seed (default 42)\n";
constexpr char kPredictUsage[] =
    "usage: gpuperf predict --model DIR <network> <gpu> <batch>\n"
    "  --model DIR    model bundle directory from `gpuperf train`\n";
constexpr char kRooflineUsage[] =
    "usage: gpuperf roofline <network> <gpu> [batch]\n";
constexpr char kBatchUsage[] = "usage: gpuperf batch <network> <gpu>\n";
constexpr char kServeSimUsage[] =
    "usage: gpuperf serve-sim [options]\n"
    "  --model DIR    KW bundle for predicted-least-load dispatch; when\n"
    "                 omitted (or the bundle fails to load) the policy\n"
    "                 degrades to least-outstanding dispatch\n"
    "  --pool A,B     comma-separated GPU pool (default A40,TITAN RTX,V100)\n"
    "  --networks a,b job types (default resnet18,resnet50,densenet121,\n"
    "                 mobilenet_v2,vgg16_bn)\n"
    "  --batch N      per-request micro-batch size (default 16)\n"
    "  --rate R       Poisson arrival rate per second (default 60)\n"
    "  --duration S   simulated seconds (default 30)\n"
    "  --seed N       base simulation seed (default 1)\n"
    "  --policy P     round-robin | least-outstanding |\n"
    "                 predicted-least-load | all (default all)\n"
    "  --mtbf S       mean seconds between failures per GPU (0 = no\n"
    "                 faults; default 0)\n"
    "  --mttr S       mean seconds to repair a failed GPU (default 2)\n"
    "  --retries N    re-dispatches before a job is dropped (default 3)\n"
    "  --runs N       simulations per policy, seeds seed..seed+N-1\n"
    "                 (default 1)\n"
    "  --jobs N       simulation threads; 0 = all hardware threads\n"
    "  --queue-cap N  max outstanding jobs per GPU; arrivals beyond it are\n"
    "                 shed on admission (0 = unbounded; default 0)\n"
    "  --slo-ms MS    per-job latency SLO; jobs whose predicted completion\n"
    "                 already misses it are shed (0 = no SLO; default 0)\n"
    "  --breaker-failures N     consecutive failures that open a per-GPU\n"
    "                 circuit breaker (0 = breakers off; default 0)\n"
    "  --breaker-cooldown-ms MS open-state cooldown before half-open\n"
    "                 probing (default 1000)\n"
    "  --breaker-probes N       probe dispatches allowed half-open\n"
    "                 (default 1)\n"
    "  --hedge-factor F    issue a duplicate dispatch once a job's elapsed\n"
    "                 time exceeds F x its predicted time; the first\n"
    "                 completion wins (0 = no hedging; default 0)\n"
    "  --retry-budget F    retry tokens refilled per completion; an empty\n"
    "                 bucket suppresses the retry (0 = off; default 0)\n"
    "  --retry-burst N     retry token-bucket cap and initial balance\n"
    "                 (default 10)\n"
    "  --adaptive-detect Q the failure-detection timeout follows this\n"
    "                 quantile of observed service times (0 = fixed\n"
    "                 timeout; default 0)\n"
    "  --chaos-gray-mtbf S   mean seconds between gray-slowdown episodes\n"
    "                 per GPU (0 = none; default 0)\n"
    "  --chaos-gray-mttr S   mean episode length in seconds (default 5)\n"
    "  --chaos-gray-factor F service-time multiplier while gray (default 3)\n"
    "  --chaos-flap-mtbf S   mean seconds between flap bursts per GPU\n"
    "                 (0 = none; default 0)\n"
    "  --chaos-flap-count N  outage blips per burst (default 5)\n"
    "  --chaos-flap-period S blip start-to-start seconds (default 0.2)\n"
    "  --chaos-flap-down S   seconds each blip lasts (default 0.05)\n"
    "  --chaos-host-size N   GPUs per host domain (0 = level off)\n"
    "  --chaos-host-mtbf S   mean seconds between host-domain events\n"
    "                 (default 0)\n"
    "  --chaos-host-mttr S   mean event length in seconds (default 2)\n"
    "  --chaos-host-factor F 0 = host outage; > 1 = host-wide slowdown\n"
    "  --chaos-rack-size N   hosts per rack domain (0 = level off)\n"
    "  --chaos-rack-mtbf S   mean seconds between rack-domain events\n"
    "                 (default 0)\n"
    "  --chaos-rack-mttr S   mean event length in seconds (default 2)\n"
    "  --chaos-rack-factor F 0 = rack outage; > 1 = rack-wide slowdown\n"
    "  --drift-gpu NAME    inject one deterministic drift event on this\n"
    "                 pool GPU (service times drift by --drift-factor)\n"
    "  --drift-at S        sim-seconds when the event starts (default 0)\n"
    "  --drift-ramp S      linear ramp-in seconds (0 = step; default 0)\n"
    "  --drift-factor F    full-effect service-time multiplier, e.g. 1.1 =\n"
    "                 10% slower (default 1.1)\n"
    "  --drift-scope S     all | memory | compute: which side of the\n"
    "                 roofline the event perturbs (default all)\n"
    "  --drift-rate R      seed-driven drift events per GPU per second\n"
    "                 (mutually exclusive with --drift-gpu; default 0)\n"
    "  --drift-sigma F     log-normal factor spread of generated events\n"
    "                 (default 0.12)\n"
    "  --drift-seed N      drift generation seed (default 1)\n"
    "  --metrics-out PATH  write a gpuperf_* metrics snapshot after the\n"
    "                 grid (.prom = Prometheus text, else CSV)\n"
    "  --trace-out PATH    write a Chrome trace (chrome://tracing /\n"
    "                 ui.perfetto.dev) of every job's lifecycle\n"
    "  --timeline-out PATH write the flight-recorder timeline CSV (render\n"
    "                 it with `gpuperf timeline --in PATH`); with\n"
    "                 --trace-out the counter tracks also join the trace\n"
    "  --timeline-period-ms MS  flight-recorder window width in simulated\n"
    "                 milliseconds (default 100)\n"
    "  --observations-out PATH  write the (network, GPU) observed service\n"
    "                 times as CSV for `gpuperf explain --observations`\n"
    "  --help         print this flag list and exit 0\n";
constexpr char kDriftReportUsage[] =
    "usage: gpuperf drift-report --model DIR [options]\n"
    "  Runs the self-healing lifecycle over a serving pool: epochs of\n"
    "  simulated serving with drift injection, online drift detection,\n"
    "  incremental refit, and shadow -> canary -> promote / rollback\n"
    "  bundle promotion; prints a per-epoch report.\n"
    "  --model DIR      initial KW bundle to serve (required)\n"
    "  --work-dir DIR   where refit candidate bundles are written\n"
    "                   (default: <model>-heal)\n"
    "  --pool A,B       GPU pool (default A40,TITAN RTX,V100)\n"
    "  --networks a,b   job types (default resnet18,resnet50,mobilenet_v2)\n"
    "  --batch N        per-request micro-batch size (default 16)\n"
    "  --rate R         Poisson arrivals per second (default 80)\n"
    "  --epoch-seconds S  epoch length in simulated seconds (default 5)\n"
    "  --epochs N       number of serving epochs (default 10)\n"
    "  --seed N         base simulation seed (default 1)\n"
    "  --drift-gpu NAME   inject one drift event on this pool GPU\n"
    "  --drift-at S       sim-seconds when the event starts (default 0)\n"
    "  --drift-ramp S     linear ramp-in seconds (0 = step; default 0)\n"
    "  --drift-factor F   full-effect multiplier (default 1.1)\n"
    "  --drift-scope S    all | memory | compute (default all)\n"
    "  --drift-rate R     seed-driven events per GPU per second\n"
    "                     (mutually exclusive with --drift-gpu)\n"
    "  --drift-sigma F    log-normal factor spread (default 0.12)\n"
    "  --drift-seed N     drift generation seed (default 1)\n"
    "  --metrics-out PATH write a gpuperf_* metrics snapshot at the end\n"
    "  --timeline-out PATH  write the cross-epoch flight-recorder timeline\n"
    "                     CSV (one continuous monotone timeline; epochs\n"
    "                     re-anchor the window grid)\n"
    "  --help             print this flag list and exit 0\n";
constexpr char kChaosUsage[] =
    "usage: gpuperf chaos [options]\n"
    "  Sweeps seeded chaos scenarios against the gray-failure resilience\n"
    "  stack (hedged dispatch, retry budgets, adaptive detection, circuit\n"
    "  breakers) and checks per-cell invariants: arrivals accounting, an\n"
    "  availability floor, the retry-budget bound, and breaker re-close\n"
    "  after the fault heals. Scenarios: outage (uncorrelated binary\n"
    "  failures), gray (4x service slowdowns), domain (correlated\n"
    "  host-domain outages), flap (bursts of short outage blips).\n"
    "  Dispatch predictions are the oracle's true times, so hedges fire\n"
    "  exactly when chaos slows a job past the trigger. Any violation\n"
    "  exits 1 with a one-line located error after the table.\n"
    "  --pool A,B       GPU pool (default A40,TITAN RTX,V100,A100)\n"
    "  --networks a,b   job types (default resnet18,resnet50)\n"
    "  --batch N        per-request micro-batch size (default 16)\n"
    "  --rate R         Poisson arrivals per second (default 80)\n"
    "  --duration S     simulated seconds per cell; the scenario\n"
    "                   MTBF/MTTR presets scale with it (default 10)\n"
    "  --seed N         base seed; cell seeds are seed..seed+runs-1\n"
    "                   (default 1)\n"
    "  --runs N         seeds per scenario x policy (default 1)\n"
    "  --jobs N         simulation threads; 0 = all hardware threads (the\n"
    "                   table is bit-identical for every value)\n"
    "  --scenarios a,b  subset of outage,gray,domain,flap (default all)\n"
    "  --policy P       round-robin | least-outstanding |\n"
    "                   predicted-least-load | all (default all)\n"
    "  --retries N      re-dispatches before a job drops (default 3)\n"
    "  --hedge-factor F   hedge once elapsed > F x predicted (default 1.5)\n"
    "  --retry-budget F   retry tokens refilled per completion\n"
    "                   (default 0.5)\n"
    "  --retry-burst N    retry token-bucket cap (default 10)\n"
    "  --adaptive-detect Q  detection-timeout quantile of observed\n"
    "                   service times (default 0.99)\n"
    "  --breaker-failures N consecutive failures that open a breaker\n"
    "                   (default 3)\n"
    "  --breaker-cooldown-ms MS open-state cooldown (default 500)\n"
    "  --min-avail F    per-cell mean-availability floor in [0, 1]\n"
    "                   (default 0.5)\n"
    "  --metrics-out PATH  write a gpuperf_* metrics snapshot after the\n"
    "                   sweep (.prom = Prometheus text, else CSV)\n"
    "  --trace-out PATH    write a Chrome trace of every cell (scenarios\n"
    "                   share cell process slots)\n"
    "  --timeline-out PATH write the flight-recorder timeline CSV across\n"
    "                   every scenario's cells (scenarios share cell\n"
    "                   labels; rows stay in scenario order)\n"
    "  --help           print this flag list and exit 0\n";
constexpr char kBundleCheckUsage[] =
    "usage: gpuperf bundle-check --candidate DIR [options]\n"
    "  --candidate DIR  bundle to validate (required): integrity checks\n"
    "                   (manifest version, checksums, field validation),\n"
    "                   then a canary prediction gate\n"
    "  --baseline DIR   currently-serving bundle; canary predictions must\n"
    "                   stay within --tolerance of it (optional)\n"
    "  --networks a,b   canary probe networks (default resnet18,resnet50,\n"
    "                   mobilenet_v2)\n"
    "  --gpus A,B       canary probe GPUs (default: the candidate's\n"
    "                   trained GPUs)\n"
    "  --batch N        canary batch size (default 16)\n"
    "  --tolerance F    max relative drift vs the baseline, e.g. 0.5 = 50%\n"
    "                   (default 0.5)\n"
    "  --help           print this flag list and exit 0\n";
constexpr char kTimelineUsage[] =
    "usage: gpuperf timeline --in PATH [options]\n"
    "  Renders a flight-recorder timeline CSV (written by serve-sim,\n"
    "  chaos, or drift-report via --timeline-out). Without --metric it\n"
    "  prints one summary row per (source, metric); with --metric it\n"
    "  prints the metric's full time series, one column per field.\n"
    "  --in PATH      timeline CSV (required)\n"
    "  --metric M     exact metric name (e.g. gpuperf_serving_latency_ms)\n"
    "  --source S     only rows of this source (e.g. 'cell 0: ...')\n"
    "  --field F      series field for --ascii (default: delta for\n"
    "                 counters, value for gauges, p99 for sketches)\n"
    "  --ascii        plot the metric over sim time instead of a table\n"
    "  --width N      plot columns for --ascii (default 72)\n"
    "  --help         print this flag list and exit 0\n";
constexpr char kExplainUsage[] =
    "usage: gpuperf explain --model DIR --network N --gpu G --batch B "
    "[options]\n"
    "  Decomposes a KW prediction into per-layer, per-cluster, and\n"
    "  per-term contributions by walking the compiled prediction plan in\n"
    "  the evaluator's exact accumulation order: the layer contributions\n"
    "  sum bit-for-bit to the `gpuperf predict` value. With an\n"
    "  observations CSV it also attributes the observed-minus-predicted\n"
    "  residual across kernel clusters by prediction share.\n"
    "  --model DIR    model bundle directory from `gpuperf train`\n"
    "  --network N    zoo network name\n"
    "  --gpu G        GPU name (run `gpuperf gpus` for the list)\n"
    "  --batch B      batch size (positive integer)\n"
    "  --layer NAME   also print the per-term breakdown of this layer\n"
    "  --top K        rows in the per-layer table (default 10)\n"
    "  --observations PATH  CSV with network,gpu,batch,observed_us rows\n"
    "                 (serve-sim --observations-out writes one)\n"
    "  --help         print this flag list and exit 0\n";

/** A user mistake: one actionable line + the subcommand's flag list. */
int UsageError(const char* usage, const std::string& message) {
  std::fprintf(stderr, "gpuperf: %s\n%s", message.c_str(), usage);
  return 1;
}

/** True when --help was given; prints the flag list on stdout (exit 0). */
bool WantsHelp(const Args& args, const char* usage) {
  if (args.flags.count("help") == 0) return false;
  std::fputs(usage, stdout);
  return true;
}

/** A runtime user-facing failure (bad file, unknown name, ...). */
int UserError(const std::string& message) {
  std::fprintf(stderr, "gpuperf: %s\n", message.c_str());
  return 1;
}

int UserError(const Status& status) { return UserError(status.message()); }

int CmdGpus() {
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

int CmdZoo(const Args& args) {
  const std::string unknown = args.UnknownFlag({"family"});
  if (!unknown.empty()) {
    return UsageError(kZooUsage, "unknown flag --" + unknown);
  }
  const std::string family = args.Get("family", "");
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

int CmdShow(const Args& args) {
  if (args.positional.empty()) {
    return UsageError(kShowUsage, "missing <network> argument");
  }
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args.positional[0]);
  if (!net.ok()) return UserError(net.status());
  std::fputs(net->Summary().c_str(), stdout);
  return 0;
}

int CmdDataset(const Args& args) {
  const std::string unknown = args.UnknownFlag(
      {"out", "gpus", "batch", "stride", "training", "jobs"});
  if (!unknown.empty()) {
    return UsageError(kDatasetUsage, "unknown flag --" + unknown);
  }
  const std::string out = args.Get("out", "");
  if (out.empty()) return UsageError(kDatasetUsage, "--out DIR is required");
  dataset::BuildOptions options;
  const std::string gpus = args.Get("gpus", "");
  if (!gpus.empty()) {
    options.gpu_names = Split(gpus, ',');
    for (const std::string& name : options.gpu_names) {
      if (gpuexec::FindGpu(name) == nullptr) {
        return UserError("unknown GPU '" + name +
                         "' (run `gpuperf gpus` for the list)");
      }
    }
  }
  StatusOr<long long> batch = ParseInt64(args.Get("batch", "512"));
  if (!batch.ok() || *batch < 1) {
    return UsageError(kDatasetUsage, "--batch must be a positive integer, "
                                     "got '" + args.Get("batch", "512") + "'");
  }
  options.batch = *batch;
  StatusOr<int> jobs = ParseInt(args.Get("jobs", "0"));
  if (!jobs.ok() || *jobs < 0) {
    return UsageError(kDatasetUsage, "--jobs must be a non-negative integer, "
                                     "got '" + args.Get("jobs", "0") + "'");
  }
  options.jobs = *jobs;
  if (args.Get("training", "0") == "1") {
    options.workload = gpuexec::Workload::kTraining;
  }
  StatusOr<int> stride = ParseInt(args.Get("stride", "1"));
  if (!stride.ok() || *stride < 1) {
    return UsageError(kDatasetUsage, "--stride must be a positive integer, "
                                     "got '" + args.Get("stride", "1") + "'");
  }
  std::vector<dnn::Network> networks = zoo::SmallZoo(*stride);
  std::printf("profiling %zu networks...\n", networks.size());
  dataset::Dataset data = dataset::BuildDataset(networks, options);
  std::filesystem::create_directories(out);
  data.SaveCsv(out);
  std::printf("wrote %zu network rows, %zu kernel rows to %s\n",
              data.network_rows().size(), data.kernel_rows().size(),
              out.c_str());
  return 0;
}

/** Parses one finite non-negative double flag (usage error otherwise). */
int ParseNonNegativeFlag(const Args& args, const char* usage,
                         const char* flag, const char* fallback,
                         double* out) {
  StatusOr<double> value = ParseFiniteDouble(args.Get(flag, fallback));
  if (!value.ok() || *value < 0) {
    return UsageError(usage, std::string("--") + flag +
                                 " must be a non-negative number, got '" +
                                 args.Get(flag, fallback) + "'");
  }
  *out = *value;
  return 0;
}

/** Parses one finite strictly-positive double flag. */
int ParsePositiveFlag(const Args& args, const char* usage, const char* flag,
                      const char* fallback, double* out) {
  StatusOr<double> value = ParseFiniteDouble(args.Get(flag, fallback));
  if (!value.ok() || *value <= 0) {
    return UsageError(usage, std::string("--") + flag +
                                 " must be a positive number, got '" +
                                 args.Get(flag, fallback) + "'");
  }
  *out = *value;
  return 0;
}

/** Parses one integer flag bounded below by `min`. */
int ParseCountFlag(const Args& args, const char* usage, const char* flag,
                   const char* fallback, int min, int* out) {
  StatusOr<int> value = ParseInt(args.Get(flag, fallback));
  if (!value.ok() || *value < min) {
    return UsageError(usage, std::string("--") + flag + " must be an integer"
                                 " >= " + Format("%d", min) + ", got '" +
                                 args.Get(flag, fallback) + "'");
  }
  *out = *value;
  return 0;
}

/** Parses --policy into the list of dispatch policies to sweep. */
int ParsePolicyFlag(const Args& args, const char* usage,
                    std::vector<simsys::DispatchPolicy>* policies) {
  const std::string policy_name = args.Get("policy", "all");
  if (policy_name == "all") {
    *policies = {simsys::DispatchPolicy::kRoundRobin,
                 simsys::DispatchPolicy::kLeastOutstanding,
                 simsys::DispatchPolicy::kPredictedLeastLoad};
  } else if (policy_name == "round-robin") {
    *policies = {simsys::DispatchPolicy::kRoundRobin};
  } else if (policy_name == "least-outstanding") {
    *policies = {simsys::DispatchPolicy::kLeastOutstanding};
  } else if (policy_name == "predicted-least-load") {
    *policies = {simsys::DispatchPolicy::kPredictedLeastLoad};
  } else {
    return UsageError(usage,
                      "--policy must be round-robin, least-outstanding, "
                      "predicted-least-load, or all; got '" + policy_name +
                          "'");
  }
  return 0;
}

// The gray-failure resilience flags shared by serve-sim and chaos; the
// caller chooses the defaults (serve-sim: everything off; chaos: the
// full stack on).
struct ResilienceDefaults {
  const char* hedge_factor = "0";
  const char* retry_budget = "0";
  const char* retry_burst = "10";
  const char* adaptive_detect = "0";
};

int ParseResilienceFlags(const Args& args, const char* usage,
                         const ResilienceDefaults& defaults,
                         simsys::ServingConfig* config) {
  if (int rc = ParseNonNegativeFlag(args, usage, "hedge-factor",
                                    defaults.hedge_factor,
                                    &config->hedge_trigger_factor)) {
    return rc;
  }
  if (int rc = ParseNonNegativeFlag(args, usage, "retry-budget",
                                    defaults.retry_budget,
                                    &config->retry_budget)) {
    return rc;
  }
  if (int rc = ParsePositiveFlag(args, usage, "retry-burst",
                                 defaults.retry_burst,
                                 &config->retry_budget_burst)) {
    return rc;
  }
  if (int rc = ParseNonNegativeFlag(args, usage, "adaptive-detect",
                                    defaults.adaptive_detect,
                                    &config->adaptive_detect_quantile)) {
    return rc;
  }
  if (config->adaptive_detect_quantile > 1) {
    return UsageError(usage, "--adaptive-detect must be a quantile in "
                             "[0, 1], got '" +
                                 args.Get("adaptive-detect",
                                          defaults.adaptive_detect) + "'");
  }
  return 0;
}

/** The --chaos-* timeline flags (serve-sim only; chaos uses presets). */
int ParseChaosFlags(const Args& args, const char* usage,
                    simsys::ServingConfig* config) {
  ChaosPlanConfig& chaos = config->chaos;
  struct DoubleFlag {
    const char* flag;
    const char* fallback;
    bool positive;  // strictly positive vs non-negative
    double* out;
  };
  const DoubleFlag flags[] = {
      {"chaos-gray-mtbf", "0", false, &chaos.gray_mtbf_s},
      {"chaos-gray-mttr", "5", false, &chaos.gray_mttr_s},
      {"chaos-gray-factor", "3", true, &chaos.gray_factor},
      {"chaos-flap-mtbf", "0", false, &chaos.flap_mtbf_s},
      {"chaos-flap-period", "0.2", true, &chaos.flap_period_s},
      {"chaos-flap-down", "0.05", false, &chaos.flap_down_s},
      {"chaos-host-mtbf", "0", false, &chaos.host.mtbf_s},
      {"chaos-host-mttr", "2", false, &chaos.host.mttr_s},
      {"chaos-host-factor", "0", false, &chaos.host.factor},
      {"chaos-rack-mtbf", "0", false, &chaos.rack.mtbf_s},
      {"chaos-rack-mttr", "2", false, &chaos.rack.mttr_s},
      {"chaos-rack-factor", "0", false, &chaos.rack.factor},
  };
  for (const DoubleFlag& f : flags) {
    const int rc =
        f.positive
            ? ParsePositiveFlag(args, usage, f.flag, f.fallback, f.out)
            : ParseNonNegativeFlag(args, usage, f.flag, f.fallback, f.out);
    if (rc != 0) return rc;
  }
  if (int rc = ParseCountFlag(args, usage, "chaos-flap-count", "5", 1,
                              &chaos.flap_count)) {
    return rc;
  }
  int host_size = 0, rack_size = 0;
  if (int rc = ParseCountFlag(args, usage, "chaos-host-size", "0", 0,
                              &host_size)) {
    return rc;
  }
  if (int rc = ParseCountFlag(args, usage, "chaos-rack-size", "0", 0,
                              &rack_size)) {
    return rc;
  }
  chaos.host.size = static_cast<std::size_t>(host_size);
  chaos.rack.size = static_cast<std::size_t>(rack_size);
  return 0;
}

/** Parses the shared --test-fraction/--seed split flags. */
int ParseSplitFlags(const Args& args, const char* usage, double* fraction,
                    std::uint64_t* seed) {
  StatusOr<double> f =
      ParseFiniteDouble(args.Get("test-fraction", "0.15"));
  if (!f.ok() || *f <= 0 || *f >= 1) {
    return UsageError(usage, "--test-fraction must be in (0, 1), got '" +
                                 args.Get("test-fraction", "0.15") + "'");
  }
  *fraction = *f;
  StatusOr<long long> s = ParseInt64(args.Get("seed", "42"));
  if (!s.ok() || *s < 0) {
    return UsageError(usage, "--seed must be a non-negative integer, got '" +
                                 args.Get("seed", "42") + "'");
  }
  *seed = static_cast<std::uint64_t>(*s);
  return 0;
}

int CmdTrain(const Args& args) {
  const std::string unknown =
      args.UnknownFlag({"dataset", "out", "test-fraction", "seed"});
  if (!unknown.empty()) {
    return UsageError(kTrainUsage, "unknown flag --" + unknown);
  }
  const std::string dataset_dir = args.Get("dataset", "");
  const std::string out = args.Get("out", "");
  if (dataset_dir.empty() || out.empty()) {
    return UsageError(kTrainUsage, "--dataset DIR and --out DIR are required");
  }
  double fraction = 0;
  std::uint64_t seed = 0;
  if (int rc = ParseSplitFlags(args, kTrainUsage, &fraction, &seed)) return rc;
  StatusOr<dataset::Dataset> data = dataset::Dataset::TryLoadCsv(dataset_dir);
  if (!data.ok()) return UserError(data.status());
  dataset::NetworkSplit split = dataset::SplitByNetwork(*data, fraction, seed);
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

int CmdEval(const Args& args) {
  const std::string unknown =
      args.UnknownFlag({"dataset", "test-fraction", "seed"});
  if (!unknown.empty()) {
    return UsageError(kEvalUsage, "unknown flag --" + unknown);
  }
  const std::string dataset_dir = args.Get("dataset", "");
  if (dataset_dir.empty()) {
    return UsageError(kEvalUsage, "--dataset DIR is required");
  }
  double fraction = 0;
  std::uint64_t seed = 0;
  if (int rc = ParseSplitFlags(args, kEvalUsage, &fraction, &seed)) return rc;
  StatusOr<dataset::Dataset> data = dataset::Dataset::TryLoadCsv(dataset_dir);
  if (!data.ok()) return UserError(data.status());
  dataset::NetworkSplit split = dataset::SplitByNetwork(*data, fraction, seed);
  models::E2eModel e2e;
  models::LwModel lw;
  models::KwModel kw;
  e2e.Train(*data, split);
  lw.Train(*data, split);
  kw.Train(*data, split);

  // Evaluate against the held-out e2e rows of the dataset itself.
  TextTable table;
  table.SetHeader({"GPU", "E2E error", "LW error", "KW error", "test nets"});
  for (const std::string& gpu_name : kw.TrainedGpus()) {
    const gpuexec::GpuSpec& gpu = gpuexec::GpuByName(gpu_name);
    std::vector<double> e2e_pred, lw_pred, kw_pred, measured;
    for (const dataset::NetworkRow& row : data->network_rows()) {
      if (!split.IsTest(row.network_id)) continue;
      if (data->gpus().Get(row.gpu_id) != gpu_name) continue;
      StatusOr<dnn::Network> net =
          zoo::TryBuildByName(data->networks().Get(row.network_id));
      if (!net.ok()) {
        Status annotated = net.status();
        return UserError(
            annotated.Annotate("dataset references unknown network"));
      }
      e2e_pred.push_back(e2e.PredictUs(*net, gpu, row.batch));
      lw_pred.push_back(lw.PredictUs(*net, gpu, row.batch));
      kw_pred.push_back(kw.PredictUs(*net, gpu, row.batch));
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

int CmdRoofline(const Args& args) {
  if (args.positional.size() < 2) {
    return UsageError(kRooflineUsage, "expected <network> and <gpu>");
  }
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args.positional[0]);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(args.positional[1]);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + args.positional[1] +
                     "' (run `gpuperf gpus` for the list)");
  }
  std::int64_t batch = 256;
  if (args.positional.size() > 2) {
    StatusOr<long long> parsed = ParseInt64(args.positional[2]);
    if (!parsed.ok() || *parsed < 1) {
      return UsageError(kRooflineUsage, "batch must be a positive integer, "
                                        "got '" + args.positional[2] + "'");
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

int CmdBatch(const Args& args) {
  if (args.positional.size() < 2) {
    return UsageError(kBatchUsage, "expected <network> and <gpu>");
  }
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args.positional[0]);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(args.positional[1]);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + args.positional[1] +
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

int CmdPredict(const Args& args) {
  const std::string unknown = args.UnknownFlag({"model"});
  if (!unknown.empty()) {
    return UsageError(kPredictUsage, "unknown flag --" + unknown);
  }
  const std::string model_dir = args.Get("model", "");
  if (model_dir.empty() || args.positional.size() < 3) {
    return UsageError(kPredictUsage,
                      "expected --model DIR plus <network> <gpu> <batch>");
  }
  StatusOr<models::KwModel> kw = models::ModelIo::LoadKw(model_dir);
  if (!kw.ok()) return UserError(kw.status());
  StatusOr<dnn::Network> net = zoo::TryBuildByName(args.positional[0]);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(args.positional[1]);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + args.positional[1] +
                     "' (run `gpuperf gpus` for the list)");
  }
  StatusOr<long long> batch = ParseInt64(args.positional[2]);
  if (!batch.ok() || *batch < 1) {
    return UsageError(kPredictUsage, "batch must be a positive integer, "
                                     "got '" + args.positional[2] + "'");
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
 * Parses the shared --drift-* flags into a schedule over `pool`.
 * Returns 0 and leaves `schedule` empty when no drift was requested,
 * 0 with a populated schedule on success, and a nonzero exit code
 * (usage error already printed) on a bad value.
 */
int ParseDriftFlags(const Args& args, const char* usage,
                    const std::vector<std::string>& pool, double horizon_s,
                    gpuexec::DriftSchedule* schedule) {
  const std::string drift_gpu = args.Get("drift-gpu", "");
  StatusOr<double> drift_rate =
      ParseFiniteDouble(args.Get("drift-rate", "0"));
  if (!drift_rate.ok() || *drift_rate < 0) {
    return UsageError(usage, "--drift-rate must be a non-negative number, "
                             "got '" + args.Get("drift-rate", "0") + "'");
  }
  if (!drift_gpu.empty() && *drift_rate > 0) {
    return UsageError(usage,
                      "--drift-gpu and --drift-rate are mutually exclusive");
  }
  StatusOr<double> drift_at = ParseFiniteDouble(args.Get("drift-at", "0"));
  if (!drift_at.ok() || *drift_at < 0) {
    return UsageError(usage, "--drift-at must be a non-negative number of "
                             "seconds, got '" + args.Get("drift-at", "0") +
                             "'");
  }
  StatusOr<double> drift_ramp =
      ParseFiniteDouble(args.Get("drift-ramp", "0"));
  if (!drift_ramp.ok() || *drift_ramp < 0) {
    return UsageError(usage, "--drift-ramp must be a non-negative number of "
                             "seconds, got '" + args.Get("drift-ramp", "0") +
                             "'");
  }
  StatusOr<double> drift_factor =
      ParseFiniteDouble(args.Get("drift-factor", "1.1"));
  if (!drift_factor.ok() || *drift_factor <= 0) {
    return UsageError(usage, "--drift-factor must be a positive number, "
                             "got '" + args.Get("drift-factor", "1.1") + "'");
  }
  const std::string scope_name = args.Get("drift-scope", "all");
  gpuexec::DriftScope scope = gpuexec::DriftScope::kAll;
  if (scope_name == "memory") {
    scope = gpuexec::DriftScope::kMemoryBound;
  } else if (scope_name == "compute") {
    scope = gpuexec::DriftScope::kComputeBound;
  } else if (scope_name != "all") {
    return UsageError(usage, "--drift-scope must be all, memory, or "
                             "compute; got '" + scope_name + "'");
  }
  StatusOr<double> drift_sigma =
      ParseFiniteDouble(args.Get("drift-sigma", "0.12"));
  if (!drift_sigma.ok() || *drift_sigma <= 0) {
    return UsageError(usage, "--drift-sigma must be a positive number, "
                             "got '" + args.Get("drift-sigma", "0.12") + "'");
  }
  StatusOr<long long> drift_seed = ParseInt64(args.Get("drift-seed", "1"));
  if (!drift_seed.ok() || *drift_seed < 0) {
    return UsageError(usage, "--drift-seed must be a non-negative integer, "
                             "got '" + args.Get("drift-seed", "1") + "'");
  }
  // Values validated even when no event was requested — a malformed
  // flag is a user mistake whether or not it would have been used.
  if (drift_gpu.empty() && *drift_rate == 0) return 0;

  if (!drift_gpu.empty()) {
    std::size_t resource = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i] == drift_gpu) resource = i;
    }
    if (resource == pool.size()) {
      return UsageError(usage, "--drift-gpu '" + drift_gpu +
                                   "' is not in the pool");
    }
    gpuexec::DriftEvent event;
    event.resource = resource;
    event.at_us = *drift_at * 1e6;
    event.ramp_us = *drift_ramp * 1e6;
    event.factor = *drift_factor;
    event.scope = scope;
    *schedule = gpuexec::DriftSchedule(pool.size(), {event});
    return 0;
  }

  gpuexec::DriftScheduleConfig config;
  config.rate_per_s = *drift_rate;
  config.factor_sigma = *drift_sigma;
  config.ramp_s = *drift_ramp;
  config.seed = static_cast<std::uint64_t>(*drift_seed);
  *schedule = gpuexec::DriftSchedule(pool.size(), horizon_s * 1e6, config);
  return 0;
}

int CmdServeSim(const Args& args) {
  if (WantsHelp(args, kServeSimUsage)) return 0;
  const std::string unknown = args.UnknownFlag(
      {"model", "pool", "networks", "batch", "rate", "duration", "seed",
       "policy", "mtbf", "mttr", "retries", "runs", "jobs", "queue-cap",
       "slo-ms", "breaker-failures", "breaker-cooldown-ms",
       "breaker-probes", "hedge-factor", "retry-budget", "retry-burst",
       "adaptive-detect", "chaos-gray-mtbf", "chaos-gray-mttr",
       "chaos-gray-factor", "chaos-flap-mtbf", "chaos-flap-count",
       "chaos-flap-period", "chaos-flap-down", "chaos-host-size",
       "chaos-host-mtbf", "chaos-host-mttr", "chaos-host-factor",
       "chaos-rack-size", "chaos-rack-mtbf", "chaos-rack-mttr",
       "chaos-rack-factor", "metrics-out", "trace-out", "timeline-out",
       "timeline-period-ms", "observations-out", "drift-gpu",
       "drift-at", "drift-ramp", "drift-factor", "drift-scope",
       "drift-rate", "drift-sigma", "drift-seed"});
  if (!unknown.empty()) {
    return UsageError(kServeSimUsage, "unknown flag --" + unknown);
  }

  // --- Pool and job-mix flags.
  std::vector<std::string> pool =
      Split(args.Get("pool", "A40,TITAN RTX,V100"), ',');
  std::vector<const gpuexec::GpuSpec*> gpus;
  for (const std::string& name : pool) {
    const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(name);
    if (gpu == nullptr) {
      return UserError("unknown GPU '" + name +
                       "' (run `gpuperf gpus` for the list)");
    }
    gpus.push_back(gpu);
  }
  const std::vector<std::string> network_names = Split(
      args.Get("networks",
               "resnet18,resnet50,densenet121,mobilenet_v2,vgg16_bn"),
      ',');
  std::vector<dnn::Network> networks;
  for (const std::string& name : network_names) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    networks.push_back(std::move(net).value());
  }

  // --- Numeric flags.
  StatusOr<long long> batch = ParseInt64(args.Get("batch", "16"));
  if (!batch.ok() || *batch < 1) {
    return UsageError(kServeSimUsage, "--batch must be a positive integer, "
                                      "got '" + args.Get("batch", "16") + "'");
  }
  StatusOr<double> rate = ParseFiniteDouble(args.Get("rate", "60"));
  if (!rate.ok() || *rate <= 0) {
    return UsageError(kServeSimUsage, "--rate must be a positive number, "
                                      "got '" + args.Get("rate", "60") + "'");
  }
  StatusOr<double> duration = ParseFiniteDouble(args.Get("duration", "30"));
  if (!duration.ok() || *duration <= 0) {
    return UsageError(kServeSimUsage,
                      "--duration must be a positive number, got '" +
                          args.Get("duration", "30") + "'");
  }
  StatusOr<long long> seed = ParseInt64(args.Get("seed", "1"));
  if (!seed.ok() || *seed < 0) {
    return UsageError(kServeSimUsage,
                      "--seed must be a non-negative integer, got '" +
                          args.Get("seed", "1") + "'");
  }
  StatusOr<double> mtbf = ParseFiniteDouble(args.Get("mtbf", "0"));
  if (!mtbf.ok() || *mtbf < 0) {
    return UsageError(kServeSimUsage,
                      "--mtbf must be a non-negative number of seconds "
                      "(0 disables faults), got '" + args.Get("mtbf", "0") +
                          "'");
  }
  StatusOr<double> mttr = ParseFiniteDouble(args.Get("mttr", "2"));
  if (!mttr.ok() || *mttr <= 0) {
    return UsageError(kServeSimUsage,
                      "--mttr must be a positive number of seconds, got '" +
                          args.Get("mttr", "2") + "'");
  }
  StatusOr<int> retries = ParseInt(args.Get("retries", "3"));
  if (!retries.ok() || *retries < 0) {
    return UsageError(kServeSimUsage,
                      "--retries must be a non-negative integer, got '" +
                          args.Get("retries", "3") + "'");
  }
  StatusOr<int> runs = ParseInt(args.Get("runs", "1"));
  if (!runs.ok() || *runs < 1) {
    return UsageError(kServeSimUsage,
                      "--runs must be a positive integer, got '" +
                          args.Get("runs", "1") + "'");
  }
  StatusOr<int> jobs = ParseInt(args.Get("jobs", "0"));
  if (!jobs.ok() || *jobs < 0) {
    return UsageError(kServeSimUsage,
                      "--jobs must be a non-negative integer, got '" +
                          args.Get("jobs", "0") + "'");
  }
  StatusOr<int> queue_cap = ParseInt(args.Get("queue-cap", "0"));
  if (!queue_cap.ok() || *queue_cap < 0) {
    return UsageError(kServeSimUsage,
                      "--queue-cap must be a non-negative integer "
                      "(0 = unbounded), got '" + args.Get("queue-cap", "0") +
                          "'");
  }
  StatusOr<double> slo_ms = ParseFiniteDouble(args.Get("slo-ms", "0"));
  if (!slo_ms.ok() || *slo_ms < 0) {
    return UsageError(kServeSimUsage,
                      "--slo-ms must be a non-negative number "
                      "(0 = no SLO), got '" + args.Get("slo-ms", "0") + "'");
  }
  StatusOr<int> breaker_failures =
      ParseInt(args.Get("breaker-failures", "0"));
  if (!breaker_failures.ok() || *breaker_failures < 0) {
    return UsageError(kServeSimUsage,
                      "--breaker-failures must be a non-negative integer "
                      "(0 = breakers off), got '" +
                          args.Get("breaker-failures", "0") + "'");
  }
  StatusOr<double> breaker_cooldown =
      ParseFiniteDouble(args.Get("breaker-cooldown-ms", "1000"));
  if (!breaker_cooldown.ok() || *breaker_cooldown < 0) {
    return UsageError(kServeSimUsage,
                      "--breaker-cooldown-ms must be a non-negative number, "
                      "got '" + args.Get("breaker-cooldown-ms", "1000") +
                          "'");
  }
  StatusOr<int> breaker_probes = ParseInt(args.Get("breaker-probes", "1"));
  if (!breaker_probes.ok() || *breaker_probes < 1) {
    return UsageError(kServeSimUsage,
                      "--breaker-probes must be a positive integer, got '" +
                          args.Get("breaker-probes", "1") + "'");
  }

  std::vector<simsys::DispatchPolicy> policies;
  if (int rc = ParsePolicyFlag(args, kServeSimUsage, &policies)) return rc;

  // --- Service-time matrices: truth from the hardware oracle, predictions
  // from the bundle (when given, loadable, and canary-clean). The bundle
  // goes through the registry's promote gates — integrity validation plus
  // finite canary predictions on the job networks — so a corrupt or
  // insane bundle degrades dispatch instead of failing the simulation.
  models::BundleRegistry registry;
  const std::string model_dir = args.Get("model", "");
  if (!model_dir.empty()) {
    models::CanaryOptions canary;
    canary.probe_networks = networks;
    canary.batch = *batch;
    const Status promoted = registry.TryPromote(model_dir, canary);
    if (!promoted.ok()) {
      std::fprintf(stderr,
                   "gpuperf: warning: %s; dispatch degrades to "
                   "least-outstanding\n",
                   promoted.message().c_str());
    }
  }
  const std::shared_ptr<const models::KwModel> kw = registry.Snapshot();
  gpuexec::HardwareOracle oracle;
  gpuexec::Profiler profiler(oracle);
  std::vector<std::vector<double>> truth, predicted;
  for (const dnn::Network& network : networks) {
    std::vector<double> t;
    for (const gpuexec::GpuSpec* gpu : gpus) {
      t.push_back(profiler.MeasureE2eUs(network, *gpu, *batch));
    }
    truth.push_back(std::move(t));
  }
  if (kw != nullptr) {
    // One batched PredictMany sweep over compiled plans fills the whole
    // matrix; uncovered (network, GPU) cells come back NaN, so those
    // decisions degrade while the rest keep using the model.
    simsys::ServingMatrixBuffer matrix_buffer;
    simsys::FillPredictedServingMatrix(*kw, networks, gpus, *batch,
                                       matrix_buffer, predicted);
  }
  const std::vector<double> mix(networks.size(), 1.0);

  // --- The simulation grid (policy x run); SimulateServingGrid fills
  // pre-sized slots in parallel so the output is identical for every
  // --jobs value.
  std::vector<simsys::ServingGridCell> cells;
  for (simsys::DispatchPolicy policy : policies) {
    for (int run = 0; run < *runs; ++run) {
      cells.push_back(simsys::ServingGridCell{
          policy, static_cast<std::uint64_t>(*seed) + run});
    }
  }
  simsys::ServingConfig base_config;
  base_config.arrival_rate_per_s = *rate;
  base_config.duration_s = *duration;
  base_config.faults.mtbf_s = *mtbf;
  base_config.faults.mttr_s = *mttr;
  base_config.retry.max_retries = *retries;
  base_config.queue_cap = *queue_cap;
  base_config.slo_ms = *slo_ms;
  base_config.breaker.failure_threshold = *breaker_failures;
  base_config.breaker.cooldown_ms = *breaker_cooldown;
  base_config.breaker.half_open_probes = *breaker_probes;
  if (int rc = ParseResilienceFlags(args, kServeSimUsage,
                                    ResilienceDefaults{}, &base_config)) {
    return rc;
  }
  if (int rc = ParseChaosFlags(args, kServeSimUsage, &base_config)) {
    return rc;
  }
  gpuexec::DriftSchedule drift;
  if (int rc = ParseDriftFlags(args, kServeSimUsage, pool, *duration, &drift)) {
    return rc;
  }
  if (!drift.empty()) base_config.drift = &drift;

  const std::string metrics_out = args.Get("metrics-out", "");
  const std::string trace_out = args.Get("trace-out", "");
  const std::string timeline_out = args.Get("timeline-out", "");
  const std::string observations_out = args.Get("observations-out", "");
  double timeline_period_ms = 0;
  if (int rc = ParsePositiveFlag(args, kServeSimUsage, "timeline-period-ms",
                                 "100", &timeline_period_ms)) {
    return rc;
  }
  base_config.recorder_config.sample_period_us =
      static_cast<long long>(timeline_period_ms * 1e3);
  obs::ChromeTraceWriter trace_writer;
  obs::FlightTimeline timeline;
  const std::vector<StatusOr<simsys::ServingResult>> grid =
      simsys::SimulateServingGrid(truth, predicted, mix, base_config, cells,
                                  *jobs,
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
                         Format("%lld", (long long)*batch),
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

int CmdChaos(const Args& args) {
  if (WantsHelp(args, kChaosUsage)) return 0;
  const std::string unknown = args.UnknownFlag(
      {"pool", "networks", "batch", "rate", "duration", "seed", "runs",
       "jobs", "scenarios", "policy", "retries", "hedge-factor",
       "retry-budget", "retry-burst", "adaptive-detect",
       "breaker-failures", "breaker-cooldown-ms", "min-avail",
       "metrics-out", "trace-out", "timeline-out"});
  if (!unknown.empty()) {
    return UsageError(kChaosUsage, "unknown flag --" + unknown);
  }

  std::vector<std::string> pool =
      Split(args.Get("pool", "A40,TITAN RTX,V100,A100"), ',');
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
  for (const std::string& name :
       Split(args.Get("networks", "resnet18,resnet50"), ',')) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    networks.push_back(std::move(net).value());
  }

  StatusOr<long long> batch = ParseInt64(args.Get("batch", "16"));
  if (!batch.ok() || *batch < 1) {
    return UsageError(kChaosUsage, "--batch must be a positive integer, "
                                   "got '" + args.Get("batch", "16") + "'");
  }
  double rate = 0, duration = 0, min_avail = 0, breaker_cooldown = 0;
  int seed = 0, runs = 0, jobs = 0, retries = 0, breaker_failures = 0;
  if (int rc = ParsePositiveFlag(args, kChaosUsage, "rate", "80", &rate)) {
    return rc;
  }
  if (int rc = ParsePositiveFlag(args, kChaosUsage, "duration", "10",
                                 &duration)) {
    return rc;
  }
  if (int rc = ParseCountFlag(args, kChaosUsage, "seed", "1", 0, &seed)) {
    return rc;
  }
  if (int rc = ParseCountFlag(args, kChaosUsage, "runs", "1", 1, &runs)) {
    return rc;
  }
  if (int rc = ParseCountFlag(args, kChaosUsage, "jobs", "0", 0, &jobs)) {
    return rc;
  }
  if (int rc = ParseCountFlag(args, kChaosUsage, "retries", "3", 0,
                              &retries)) {
    return rc;
  }
  if (int rc = ParseCountFlag(args, kChaosUsage, "breaker-failures", "3", 0,
                              &breaker_failures)) {
    return rc;
  }
  if (int rc = ParseNonNegativeFlag(args, kChaosUsage,
                                    "breaker-cooldown-ms", "500",
                                    &breaker_cooldown)) {
    return rc;
  }
  if (int rc = ParseNonNegativeFlag(args, kChaosUsage, "min-avail", "0.5",
                                    &min_avail)) {
    return rc;
  }
  if (min_avail > 1) {
    return UsageError(kChaosUsage, "--min-avail must be in [0, 1], got '" +
                                       args.Get("min-avail", "0.5") + "'");
  }
  std::vector<simsys::DispatchPolicy> policies;
  if (int rc = ParsePolicyFlag(args, kChaosUsage, &policies)) return rc;
  std::vector<const ChaosScenario*> scenarios;
  for (const std::string& name :
       Split(args.Get("scenarios", "outage,gray,domain,flap"), ',')) {
    const ChaosScenario* found = nullptr;
    for (const ChaosScenario& scenario : kChaosScenarios) {
      if (name == scenario.name) found = &scenario;
    }
    if (found == nullptr) {
      return UsageError(kChaosUsage,
                        "--scenarios must be a comma-separated subset of "
                        "outage,gray,domain,flap; got '" + name + "'");
    }
    scenarios.push_back(found);
  }

  // The resilience stack under test, shared by every scenario. The
  // deep semantic checks (e.g. gray_factor > 1) live in the simulator's
  // ValidateInputs and surface as one-line errors, never aborts.
  simsys::ServingConfig resilient;
  resilient.arrival_rate_per_s = rate;
  resilient.duration_s = duration;
  resilient.retry.max_retries = retries;
  resilient.breaker.failure_threshold = breaker_failures;
  resilient.breaker.cooldown_ms = breaker_cooldown;
  const ResilienceDefaults chaos_defaults = {"1.5", "0.5", "10", "0.99"};
  if (int rc = ParseResilienceFlags(args, kChaosUsage, chaos_defaults,
                                    &resilient)) {
    return rc;
  }

  // Truth from the hardware oracle; predictions are the same matrix —
  // the oracle as its own predictor — so a hedge fires exactly when a
  // chaos slowdown pushes a job past hedge_trigger_factor x truth.
  gpuexec::HardwareOracle oracle;
  gpuexec::Profiler profiler(oracle);
  std::vector<std::vector<double>> truth;
  for (const dnn::Network& network : networks) {
    std::vector<double> t;
    for (const gpuexec::GpuSpec* gpu : gpus) {
      t.push_back(profiler.MeasureE2eUs(network, *gpu, *batch));
    }
    truth.push_back(std::move(t));
  }
  const std::vector<std::vector<double>>& predicted = truth;
  const std::vector<double> mix(networks.size(), 1.0);

  std::vector<simsys::ServingGridCell> cells;
  for (simsys::DispatchPolicy policy : policies) {
    for (int run = 0; run < runs; ++run) {
      cells.push_back(simsys::ServingGridCell{
          policy, static_cast<std::uint64_t>(seed) + run});
    }
  }

  const std::string metrics_out = args.Get("metrics-out", "");
  const std::string trace_out = args.Get("trace-out", "");
  const std::string timeline_out = args.Get("timeline-out", "");
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
            truth, predicted, mix, base_config, cells, jobs,
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

int CmdBundleCheck(const Args& args) {
  if (WantsHelp(args, kBundleCheckUsage)) return 0;
  const std::string unknown = args.UnknownFlag(
      {"candidate", "baseline", "networks", "gpus", "batch", "tolerance"});
  if (!unknown.empty()) {
    return UsageError(kBundleCheckUsage, "unknown flag --" + unknown);
  }
  const std::string candidate = args.Get("candidate", "");
  if (candidate.empty()) {
    return UsageError(kBundleCheckUsage, "--candidate DIR is required");
  }
  StatusOr<long long> batch = ParseInt64(args.Get("batch", "16"));
  if (!batch.ok() || *batch < 1) {
    return UsageError(kBundleCheckUsage,
                      "--batch must be a positive integer, got '" +
                          args.Get("batch", "16") + "'");
  }
  StatusOr<double> tolerance = ParseFiniteDouble(args.Get("tolerance", "0.5"));
  if (!tolerance.ok() || *tolerance < 0) {
    return UsageError(kBundleCheckUsage,
                      "--tolerance must be a non-negative number, got '" +
                          args.Get("tolerance", "0.5") + "'");
  }

  models::CanaryOptions canary;
  canary.batch = *batch;
  canary.tolerance = *tolerance;
  for (const std::string& name :
       Split(args.Get("networks", "resnet18,resnet50,mobilenet_v2"), ',')) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    canary.probe_networks.push_back(std::move(net).value());
  }
  const std::string gpu_list = args.Get("gpus", "");
  if (!gpu_list.empty()) canary.gpus = Split(gpu_list, ',');

  // The baseline (when given) becomes the serving generation the
  // candidate's canary drift is measured against — exactly the hot-reload
  // sequence a serving process would run.
  models::BundleRegistry registry;
  const std::string baseline = args.Get("baseline", "");
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
              canary.probe_networks.size(), (long long)*batch,
              100 * *tolerance);
  return 0;
}

int CmdDriftReport(const Args& args) {
  if (WantsHelp(args, kDriftReportUsage)) return 0;
  const std::string unknown = args.UnknownFlag(
      {"model", "work-dir", "pool", "networks", "batch", "rate",
       "epoch-seconds", "epochs", "seed", "drift-gpu", "drift-at",
       "drift-ramp", "drift-factor", "drift-scope", "drift-rate",
       "drift-sigma", "drift-seed", "metrics-out", "timeline-out"});
  if (!unknown.empty()) {
    return UsageError(kDriftReportUsage, "unknown flag --" + unknown);
  }
  const std::string model_dir = args.Get("model", "");
  if (model_dir.empty()) {
    return UsageError(kDriftReportUsage, "--model DIR is required");
  }

  std::vector<std::string> pool =
      Split(args.Get("pool", "A40,TITAN RTX,V100"), ',');
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
  for (const std::string& name :
       Split(args.Get("networks", "resnet18,resnet50,mobilenet_v2"), ',')) {
    StatusOr<dnn::Network> net = zoo::TryBuildByName(name);
    if (!net.ok()) return UserError(net.status());
    networks.push_back(std::move(net).value());
  }

  StatusOr<long long> batch = ParseInt64(args.Get("batch", "16"));
  if (!batch.ok() || *batch < 1) {
    return UsageError(kDriftReportUsage,
                      "--batch must be a positive integer, got '" +
                          args.Get("batch", "16") + "'");
  }
  StatusOr<double> rate = ParseFiniteDouble(args.Get("rate", "80"));
  if (!rate.ok() || *rate <= 0) {
    return UsageError(kDriftReportUsage,
                      "--rate must be a positive number, got '" +
                          args.Get("rate", "80") + "'");
  }
  StatusOr<double> epoch_s = ParseFiniteDouble(args.Get("epoch-seconds", "5"));
  if (!epoch_s.ok() || *epoch_s <= 0) {
    return UsageError(kDriftReportUsage,
                      "--epoch-seconds must be a positive number, got '" +
                          args.Get("epoch-seconds", "5") + "'");
  }
  StatusOr<int> epochs = ParseInt(args.Get("epochs", "10"));
  if (!epochs.ok() || *epochs < 1) {
    return UsageError(kDriftReportUsage,
                      "--epochs must be a positive integer, got '" +
                          args.Get("epochs", "10") + "'");
  }
  StatusOr<long long> seed = ParseInt64(args.Get("seed", "1"));
  if (!seed.ok() || *seed < 0) {
    return UsageError(kDriftReportUsage,
                      "--seed must be a non-negative integer, got '" +
                          args.Get("seed", "1") + "'");
  }

  gpuexec::DriftSchedule drift;
  if (int rc = ParseDriftFlags(args, kDriftReportUsage, pool,
                               *epoch_s * *epochs, &drift)) {
    return rc;
  }

  // Seed the registry with the initial bundle through the same promote
  // gate a serving process uses; a bundle that cannot serve is a user
  // error here (drift-report is about healing a live model).
  models::BundleRegistry registry;
  models::CanaryOptions canary;
  canary.probe_networks = networks;
  canary.batch = *batch;
  const Status promoted = registry.TryPromote(model_dir, canary);
  if (!promoted.ok()) return UserError(promoted);

  gpuexec::HardwareOracle oracle;
  gpuexec::Profiler profiler(oracle);
  std::vector<std::vector<double>> truth;
  for (const dnn::Network& network : networks) {
    std::vector<double> t;
    for (const gpuexec::GpuSpec* gpu : gpus) {
      t.push_back(profiler.MeasureE2eUs(network, *gpu, *batch));
    }
    truth.push_back(std::move(t));
  }
  const std::vector<double> mix(networks.size(), 1.0);

  models::LifecycleOptions lifecycle;
  lifecycle.work_dir = args.Get("work-dir", model_dir + "-heal");
  models::LifecycleController controller(&registry, model_dir, canary,
                                         lifecycle);

  simsys::SelfHealingConfig config;
  config.serving.arrival_rate_per_s = *rate;
  config.serving.duration_s = *epoch_s;
  config.serving.seed = static_cast<std::uint64_t>(*seed);
  config.serving.policy = simsys::DispatchPolicy::kPredictedLeastLoad;
  if (!drift.empty()) config.serving.drift = &drift;
  config.epochs = *epochs;
  config.batch = *batch;
  // One recorder spans every epoch: the lifecycle copies the serving
  // config per epoch advancing time_origin_us, and the recorder
  // re-anchors at each epoch's origin, so the timeline is one
  // continuous monotone document across the whole lifecycle.
  const std::string timeline_out = args.Get("timeline-out", "");
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
  const std::string metrics_out = args.Get("metrics-out", "");
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

int CmdTimeline(const Args& args) {
  if (WantsHelp(args, kTimelineUsage)) return 0;
  const std::string unknown = args.UnknownFlag(
      {"in", "metric", "source", "field", "ascii", "width"});
  if (!unknown.empty()) {
    return UsageError(kTimelineUsage, "unknown flag --" + unknown);
  }
  const std::string in = args.Get("in", "");
  if (in.empty()) return UsageError(kTimelineUsage, "--in PATH is required");
  int width = 0;
  if (int rc = ParseCountFlag(args, kTimelineUsage, "width", "72", 16,
                              &width)) {
    return rc;
  }
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
  const std::string metric = args.Get("metric", "");
  const std::string source = args.Get("source", "");

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

  if (args.Get("ascii", "0") == "1") {
    const std::string field =
        args.Get("field", DefaultTimelineField(kind));
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
    options.width = width;
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

int CmdExplain(const Args& args) {
  if (WantsHelp(args, kExplainUsage)) return 0;
  const std::string unknown = args.UnknownFlag(
      {"model", "network", "gpu", "batch", "layer", "top", "observations"});
  if (!unknown.empty()) {
    return UsageError(kExplainUsage, "unknown flag --" + unknown);
  }
  const std::string model_dir = args.Get("model", "");
  const std::string network_name = args.Get("network", "");
  const std::string gpu_name = args.Get("gpu", "");
  if (model_dir.empty() || network_name.empty() || gpu_name.empty() ||
      args.flags.count("batch") == 0) {
    return UsageError(kExplainUsage,
                      "--model, --network, --gpu, and --batch are required");
  }
  StatusOr<long long> batch = ParseInt64(args.Get("batch", ""));
  if (!batch.ok() || *batch < 1) {
    return UsageError(kExplainUsage, "--batch must be a positive integer, "
                                     "got '" + args.Get("batch", "") + "'");
  }
  int top = 0;
  if (int rc = ParseCountFlag(args, kExplainUsage, "top", "10", 1, &top)) {
    return rc;
  }
  StatusOr<models::KwModel> kw = models::ModelIo::LoadKw(model_dir);
  if (!kw.ok()) return UserError(kw.status());
  StatusOr<dnn::Network> net = zoo::TryBuildByName(network_name);
  if (!net.ok()) return UserError(net.status());
  const gpuexec::GpuSpec* gpu = gpuexec::FindGpu(gpu_name);
  if (gpu == nullptr) {
    return UserError("unknown GPU '" + gpu_name +
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
      models::ExplainPlan(*plan, *batch);
  std::printf("%s @BS%lld on %s: predicted %.3f ms "
              "(%zu layers, %zu terms, %zu clusters)\n\n",
              net->name().c_str(), (long long)*batch, gpu->name.c_str(),
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

  const std::string layer_name = args.Get("layer", "");
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

  const std::string observations = args.Get("observations", "");
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
          row[*c_batch] != Format("%lld", (long long)*batch)) {
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
                              (long long)*batch) +
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

void Usage() {
  std::fputs(
      "usage: gpuperf <command> [options]\n"
      "  gpus                                  list supported GPUs\n"
      "  zoo [--family F]                      list zoo networks\n"
      "  show <network>                        network summary\n"
      "  dataset --out DIR [--gpus A,B] [--batch N] [--stride N]\n"
      "          [--training] [--jobs N]       run a measurement campaign\n"
      "  train --dataset DIR --out DIR         train + save a KW model\n"
      "  eval --dataset DIR                    train and report errors\n"
      "  predict --model DIR <net> <gpu> <bs>  predict execution time\n"
      "  roofline <network> <gpu> [batch]      per-layer roofline analysis\n"
      "  batch <network> <gpu>                 largest batch that fits\n"
      "  serve-sim [--model DIR] [--mtbf S] [--mttr S] [--retries N]\n"
      "            [--queue-cap N] [--slo-ms MS] [--breaker-failures N]\n"
      "            [--jobs N] [...]            fault-tolerant serving sim\n"
      "  chaos [--scenarios a,b] [--policy P] [--min-avail F]\n"
      "            [...]                       chaos sweep + invariant check\n"
      "  bundle-check --candidate DIR [--baseline DIR] [--tolerance F]\n"
      "            [...]                       validate + canary a bundle\n"
      "  drift-report --model DIR [--drift-gpu NAME] [--epochs N]\n"
      "            [...]                       self-healing lifecycle report\n"
      "  timeline --in PATH [--metric M] [--ascii]\n"
      "            [...]                       render a timeline CSV\n"
      "  explain --model DIR --network N --gpu G --batch B\n"
      "            [--observations CSV] [...]  decompose a prediction\n"
      "run `gpuperf <command> --help` semantics: any usage mistake prints\n"
      "the command's full flag list\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  obs::InstallProcessMetrics();
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args = Args::Parse(argc, argv, 2);
  if (command == "gpus") return CmdGpus();
  if (command == "zoo") return CmdZoo(args);
  if (command == "show") return CmdShow(args);
  if (command == "dataset") return CmdDataset(args);
  if (command == "train") return CmdTrain(args);
  if (command == "eval") return CmdEval(args);
  if (command == "predict") return CmdPredict(args);
  if (command == "roofline") return CmdRoofline(args);
  if (command == "batch") return CmdBatch(args);
  if (command == "serve-sim") return CmdServeSim(args);
  if (command == "chaos") return CmdChaos(args);
  if (command == "bundle-check") return CmdBundleCheck(args);
  if (command == "drift-report") return CmdDriftReport(args);
  if (command == "timeline") return CmdTimeline(args);
  if (command == "explain") return CmdExplain(args);
  std::fprintf(stderr, "gpuperf: unknown command '%s'\n", command.c_str());
  Usage();
  return 1;
}
