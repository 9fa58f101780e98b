#include "cli_flags.h"

#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace gpuperf::cli {
namespace {

// --- Row builders and bounds -------------------------------------------

constexpr double kIntMax = std::numeric_limits<int>::max();
constexpr double kLongLongMax = std::numeric_limits<long long>::max();
constexpr Bound kNonNegative{0};
constexpr Bound kPositive{0, true};
constexpr Bound kUnit{0, false, 1};

/** Every batch: positive and at most kMaxBatch. */
constexpr Bound kBatch{0, true, static_cast<double>(kMaxBatch)};

/** An integer row whose value lands in an `int` field. */
constexpr Bound IntField(double min) { return {min, false, kIntMax}; }

Flag Bool(const char* name, const char* help) {
  return {name, "", FlagKind::kBool, "", {}, {}, help};
}
Flag String(const char* name, const char* metavar, const char* fallback,
            const char* help) {
  return {name, metavar, FlagKind::kString, fallback, {}, {}, help};
}
Flag List(const char* name, const char* metavar, const char* fallback,
          const char* help) {
  return {name, metavar, FlagKind::kList, fallback, {}, {}, help};
}
Flag Choice(const char* name, const char* metavar, const char* fallback,
            std::vector<std::string> choices, const char* help) {
  return {name,  metavar,           FlagKind::kChoice, fallback, {},
          std::move(choices), help};
}
Flag Int(const char* name, const char* metavar, const char* fallback,
         Bound bound, const char* help) {
  return {name, metavar, FlagKind::kInt, fallback, bound, {}, help};
}
Flag Double(const char* name, const char* metavar, const char* fallback,
            Bound bound, const char* help) {
  return {name, metavar, FlagKind::kDouble, fallback, bound, {}, help};
}
/** A row the invocation must give; it has no default. */
Flag Required(Flag flag) {
  flag.required = true;
  return flag;
}

/** Concatenates row groups, so a shared group is written once. */
std::vector<Flag> Rows(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> rows;
  for (const std::vector<Flag>& group : groups) {
    rows.insert(rows.end(), group.begin(), group.end());
  }
  return rows;
}

std::vector<Command> BuildCommands() {
  // Rows that several subcommands share, with the same default.
  const Flag jobs = Int("jobs", "N", "0", IntField(0),
                        "worker threads; 0 = all hardware threads; output "
                        "is bit-identical for every value");
  const Flag dataset = Required(String(
      "dataset", "DIR", "", "dataset directory from `gpuperf dataset`"));
  const Flag test_fraction =
      Double("test-fraction", "F", "0.15", {0, true, 1, true},
             "held-out fraction of the networks");
  const Flag split_seed =
      Int("seed", "N", "42", kNonNegative, "network-split seed");
  const Flag trained_model = Required(String(
      "model", "DIR", "", "model bundle directory from `gpuperf train`"));
  const Flag pool = List("pool", "A,B", "A40,TITAN RTX,V100",
                         "comma-separated GPU pool");
  const Flag serving_batch =
      Int("batch", "N", "16", kBatch, "per-request micro-batch size");
  const Flag rate = Double("rate", "R", "80", kPositive,
                           "Poisson arrivals per second");
  const Flag seed =
      Int("seed", "N", "1", kNonNegative, "base simulation seed");
  const Flag runs = Int("runs", "N", "1", IntField(1),
                        "simulations per policy (and chaos scenario), at "
                        "seeds seed..seed+N-1");
  const Flag policy = Choice(
      "policy", "P", "all",
      {"round-robin", "least-outstanding", "predicted-least-load", "all"},
      "dispatch policy to simulate");
  const Flag retries = Int("retries", "N", "3", IntField(0),
                           "re-dispatches before a job is dropped");
  const Flag retry_burst =
      Double("retry-burst", "N", "10", kPositive,
             "retry token-bucket cap and initial balance");
  const Flag metrics_out =
      String("metrics-out", "PATH", "",
             "write a gpuperf_* metrics snapshot when the run ends (.prom "
             "= Prometheus text, else CSV)");
  const Flag trace_out =
      String("trace-out", "PATH", "",
             "write a Chrome trace (chrome://tracing / ui.perfetto.dev) of "
             "every job's lifecycle, one process per simulation cell");
  const Flag timeline_out =
      String("timeline-out", "PATH", "",
             "write the flight-recorder timeline CSV (render it with "
             "`gpuperf timeline --in PATH`)");
  const std::vector<Flag> drift = {
      String("drift-gpu", "NAME", "",
             "inject one deterministic drift event on this pool GPU "
             "(service times drift by --drift-factor)"),
      Double("drift-at", "S", "0", kNonNegative,
             "sim-seconds when the event starts"),
      Double("drift-ramp", "S", "0", kNonNegative,
             "linear ramp-in seconds; 0 = step"),
      Double("drift-factor", "F", "1.1", kPositive,
             "full-effect service-time multiplier, e.g. 1.1 = 10% slower"),
      Choice("drift-scope", "S", "all", {"all", "memory", "compute"},
             "which side of the roofline the event perturbs"),
      Double("drift-rate", "R", "0", kNonNegative,
             "seed-driven drift events per GPU per second; mutually "
             "exclusive with --drift-gpu"),
      Double("drift-sigma", "F", "0.12", kPositive,
             "log-normal factor spread of generated events"),
      Int("drift-seed", "N", "1", kNonNegative, "drift generation seed"),
  };

  return {
      {"gpus", "list the supported GPUs (Table 1)", "", "", {}},
      {"zoo", "list zoo networks", "", "",
       {String("family", "F", "",
               "only list networks of family F (e.g. ResNet)")}},
      {"show", "layer-by-layer network summary", "<network>", "", {}},
      {"dataset", "run a measurement campaign", "", "",
       {Required(String("out", "DIR", "",
                        "output directory for the dataset CSVs")),
        List("gpus", "A,B", "",
             "comma-separated GPU names (default: all seven)"),
        Int("batch", "N", "512", kBatch, "batch size to profile at"),
        Int("stride", "N", "1", IntField(1), "profile every N-th zoo network"),
        Bool("training", "profile the training workload instead of inference"),
        jobs}},
      {"train", "train + save a KW model bundle", "", "",
       {dataset,
        Required(String("out", "DIR", "",
                        "output directory for the model bundle")),
        test_fraction, split_seed}},
      {"eval", "train E2E/LW/KW and report errors", "", "",
       {dataset, test_fraction, split_seed}},
      {"predict", "predict one execution time", "<network> <gpu> <batch>", "",
       {trained_model}},
      {"roofline", "per-layer roofline analysis", "<network> <gpu> [batch]",
       "", {}},
      {"batch", "largest batch that fits in memory", "<network> <gpu>", "",
       {}},
      {"serve-sim", "fault-tolerant serving simulation", "",
       "Simulates online serving over a GPU pool, one cell per (policy, "
       "seed), with optional faults, overload control, gray-failure "
       "resilience, chaos and drift injection. With --trace-out, the "
       "--timeline-out counter tracks also join the trace.",
       Rows({{String("model", "DIR", "",
                     "KW bundle for predicted-least-load dispatch; when "
                     "omitted (or the bundle fails to load) the policy "
                     "degrades to least-outstanding dispatch"),
              pool,
              List("networks", "a,b",
                   "resnet18,resnet50,densenet121,mobilenet_v2,vgg16_bn",
                   "job types"),
              serving_batch,
              Double("rate", "R", "60", kPositive,
                     "Poisson arrival rate per second"),
              Double("duration", "S", "30", kPositive, "simulated seconds"),
              seed, policy,
              Double("mtbf", "S", "0", kNonNegative,
                     "mean seconds between failures per GPU; 0 = no faults"),
              Double("mttr", "S", "2", kPositive,
                     "mean seconds to repair a failed GPU"),
              retries, runs, jobs,
              Int("queue-cap", "N", "0", IntField(0),
                  "max outstanding jobs per GPU; arrivals beyond it are "
                  "shed on admission; 0 = unbounded"),
              Double("slo-ms", "MS", "0", kNonNegative,
                     "per-job latency SLO; jobs whose predicted completion "
                     "already misses it are shed; 0 = no SLO"),
              Int("breaker-failures", "N", "0", IntField(0),
                  "consecutive failures that open a per-GPU circuit "
                  "breaker; 0 = breakers off"),
              Double("breaker-cooldown-ms", "MS", "1000", kNonNegative,
                     "open-state cooldown before half-open probing"),
              Int("breaker-probes", "N", "1", IntField(1),
                  "probe dispatches allowed half-open"),
              Double("hedge-factor", "F", "0", kNonNegative,
                     "issue a duplicate dispatch once a job's elapsed time "
                     "exceeds F x its predicted time; the first completion "
                     "wins; 0 = no hedging"),
              Double("retry-budget", "F", "0", kNonNegative,
                     "retry tokens refilled per completion; an empty bucket "
                     "suppresses the retry; 0 = off"),
              retry_burst,
              Double("adaptive-detect", "Q", "0", kUnit,
                     "the failure-detection timeout follows this quantile "
                     "of observed service times; 0 = fixed timeout"),
              Double("chaos-gray-mtbf", "S", "0", kNonNegative,
                     "mean seconds between gray-slowdown episodes per GPU; "
                     "0 = none"),
              Double("chaos-gray-mttr", "S", "5", kNonNegative,
                     "mean episode length in seconds"),
              Double("chaos-gray-factor", "F", "3", kPositive,
                     "service-time multiplier while gray"),
              Double("chaos-flap-mtbf", "S", "0", kNonNegative,
                     "mean seconds between flap bursts per GPU; 0 = none"),
              Int("chaos-flap-count", "N", "5", IntField(1),
                  "outage blips per burst"),
              Double("chaos-flap-period", "S", "0.2", kPositive,
                     "blip start-to-start seconds"),
              Double("chaos-flap-down", "S", "0.05", kNonNegative,
                     "seconds each blip lasts"),
              Int("chaos-host-size", "N", "0", IntField(0),
                  "GPUs per host domain; 0 = level off"),
              Double("chaos-host-mtbf", "S", "0", kNonNegative,
                     "mean seconds between host-domain events"),
              Double("chaos-host-mttr", "S", "2", kNonNegative,
                     "mean event length in seconds"),
              Double("chaos-host-factor", "F", "0", kNonNegative,
                     "0 = host outage; > 1 = host-wide slowdown"),
              Int("chaos-rack-size", "N", "0", IntField(0),
                  "hosts per rack domain; 0 = level off"),
              Double("chaos-rack-mtbf", "S", "0", kNonNegative,
                     "mean seconds between rack-domain events"),
              Double("chaos-rack-mttr", "S", "2", kNonNegative,
                     "mean event length in seconds"),
              Double("chaos-rack-factor", "F", "0", kNonNegative,
                     "0 = rack outage; > 1 = rack-wide slowdown")},
             drift,
             {metrics_out, trace_out, timeline_out,
              // The recorder counts whole microseconds in a long long.
              Double("timeline-period-ms", "MS", "100",
                     {1e-3, false, kLongLongMax / 1e3, true},
                     "flight-recorder window width in simulated "
                     "milliseconds"),
              String("observations-out", "PATH", "",
                     "write the (network, GPU) observed service times as "
                     "CSV for `gpuperf explain --observations`")}})},
      {"chaos", "chaos-scenario sweep + invariants", "",
       "Sweeps seeded chaos scenarios against the gray-failure resilience "
       "stack (hedged dispatch, retry budgets, adaptive detection, circuit "
       "breakers) and checks per-cell invariants: arrivals accounting, an "
       "availability floor, the retry-budget bound, and breaker re-close "
       "after the fault heals. Scenarios: outage (uncorrelated binary "
       "failures), gray (4x service slowdowns), domain (correlated "
       "host-domain outages), flap (bursts of short outage blips). "
       "Dispatch predictions are the oracle's true times, so hedges fire "
       "exactly when chaos slows a job past the trigger. Any violation "
       "exits 1 with a one-line located error after the table. In the "
       "--trace-out and --timeline-out exports each (scenario, cell) is its "
       "own process and source, named after its scenario; timeline rows "
       "stay in scenario order.",
       {List("pool", "A,B", "A40,TITAN RTX,V100,A100",
             "comma-separated GPU pool"),
        List("networks", "a,b", "resnet18,resnet50", "job types"),
        serving_batch, rate,
        Double("duration", "S", "10", kPositive,
               "simulated seconds per cell; the scenario MTBF/MTTR presets "
               "scale with it"),
        seed, runs, jobs,
        List("scenarios", "a,b", "outage,gray,domain,flap",
             "chaos scenarios to sweep, comma-separated"),
        policy, retries,
        Double("hedge-factor", "F", "1.5", kNonNegative,
               "hedge once elapsed > F x predicted"),
        Double("retry-budget", "F", "0.5", kNonNegative,
               "retry tokens refilled per completion"),
        retry_burst,
        Double("adaptive-detect", "Q", "0.99", kUnit,
               "detection-timeout quantile of observed service times"),
        Int("breaker-failures", "N", "3", IntField(0),
            "consecutive failures that open a breaker"),
        Double("breaker-cooldown-ms", "MS", "500", kNonNegative,
               "open-state cooldown"),
        Double("min-avail", "F", "0.5", kUnit,
               "per-cell mean-availability floor"),
        metrics_out, trace_out, timeline_out}},
      {"bundle-check", "validate + canary a bundle", "", "",
       {Required(String("candidate", "DIR", "",
                        "bundle to validate: integrity checks (manifest "
                        "version, checksums, field validation), then a "
                        "canary prediction gate")),
        String("baseline", "DIR", "",
               "currently-serving bundle; canary predictions must stay "
               "within --tolerance of it"),
        List("networks", "a,b", "resnet18,resnet50,mobilenet_v2",
             "canary probe networks"),
        List("gpus", "A,B", "",
             "canary probe GPUs (default: the candidate's trained GPUs)"),
        Int("batch", "N", "16", kBatch, "canary batch size"),
        Double("tolerance", "F", "0.5", kNonNegative,
               "max relative drift vs the baseline, e.g. 0.5 = 50%")}},
      {"drift-report", "self-healing lifecycle report", "",
       "Runs the self-healing lifecycle over a serving pool: epochs of "
       "simulated serving with drift injection, online drift detection, "
       "incremental refit, and shadow -> canary -> promote / rollback "
       "bundle promotion; prints a per-epoch report. The --timeline-out "
       "CSV is one continuous monotone timeline across epochs; each epoch "
       "re-anchors the window grid.",
       Rows({{Required(String("model", "DIR", "",
                              "initial KW bundle to serve")),
              String("work-dir", "DIR", "",
                     "where refit candidate bundles are written (default: "
                     "<model>-heal)"),
              pool,
              List("networks", "a,b", "resnet18,resnet50,mobilenet_v2",
                   "job types"),
              serving_batch, rate,
              Double("epoch-seconds", "S", "5", kPositive,
                     "epoch length in simulated seconds"),
              Int("epochs", "N", "10", IntField(1),
                  "number of serving epochs"),
              seed},
             drift,
             {metrics_out, timeline_out}})},
      {"timeline", "render a flight-recorder timeline", "",
       "Renders a flight-recorder timeline CSV (written by serve-sim, "
       "chaos, or drift-report via --timeline-out). Without --metric it "
       "prints one summary row per (source, metric); with --metric it "
       "prints the metric's full time series, one column per field.",
       {Required(String("in", "PATH", "", "timeline CSV")),
        String("metric", "M", "",
               "exact metric name (e.g. gpuperf_serving_latency_ms)"),
        String("source", "S", "",
               "only rows of this source (e.g. 'cell 0: ...')"),
        String("field", "F", "",
               "series field for --ascii (default: delta for counters, "
               "value for gauges, p99 for sketches)"),
        Bool("ascii", "plot the metric over sim time instead of a table"),
        Int("width", "N", "72", IntField(16), "plot columns for --ascii")}},
      {"explain", "decompose a prediction", "",
       "Decomposes a KW prediction into per-layer, per-cluster, and "
       "per-term contributions by walking the compiled prediction plan in "
       "the evaluator's exact accumulation order: the layer contributions "
       "sum bit-for-bit to the `gpuperf predict` value. With an "
       "observations CSV it also attributes the observed-minus-predicted "
       "residual across kernel clusters by prediction share.",
       {trained_model,
        Required(String("network", "N", "", "zoo network name")),
        Required(String("gpu", "G", "",
                        "GPU name (run `gpuperf gpus` for the list)")),
        Required(Int("batch", "B", "", kBatch, "batch size")),
        String("layer", "NAME", "",
               "also print the per-term breakdown of this layer"),
        Int("top", "K", "10", IntField(1), "rows in the per-layer table"),
        String("observations", "PATH", "",
               "CSV with network,gpu,batch,observed_us rows (serve-sim "
               "--observations-out writes one)")}},
  };
}

// --- Help text and value checks -----------------------------------------

constexpr std::size_t kWidth = 79;
constexpr std::size_t kHelpColumn = 28;

/**
 * Appends `lead` padded to `indent` columns (on a line of its own when
 * it does not fit), then `text` word-wrapped to kWidth with every line
 * indented by `indent`. `suffix` is one more word that never breaks.
 */
void AppendWrapped(std::string* out, const std::string& lead,
                   std::string_view text, std::size_t indent,
                   const std::string& suffix = "") {
  std::string line = lead;
  if (!lead.empty() && line.size() + 2 > indent) {
    *out += line + "\n";
    line.clear();
  }
  line.resize(indent, ' ');
  std::vector<std::string> words = Split(text, ' ');
  words.push_back(suffix);
  for (const std::string& word : words) {
    if (word.empty()) continue;
    if (line.size() > indent && line.size() + 1 + word.size() > kWidth) {
      *out += line + "\n";
      line.assign(indent, ' ');
    }
    if (line.size() > indent) line += ' ';
    line += word;
  }
  *out += line + "\n";
}

bool TwoSided(const Bound& bound) {
  return std::isfinite(bound.min) && std::isfinite(bound.max);
}

std::string Number(const Flag& flag, double value) {
  return flag.kind == FlagKind::kInt ? Format("%.0f", value)
                                     : Format("%g", value);
}

std::string Interval(const Flag& flag) {
  const Bound& b = flag.bound;
  return Format("%s%s, %s%s", b.min_exclusive ? "(" : "[",
                Number(flag, b.min).c_str(), Number(flag, b.max).c_str(),
                b.max_exclusive ? ")" : "]");
}

/** What a valid value of `flag` is, for "--flag must be <this>". */
std::string Describe(const Flag& flag) {
  if (flag.kind == FlagKind::kChoice) {
    return "one of " + Join(flag.choices, " | ");
  }
  const Bound& b = flag.bound;
  const bool integer = flag.kind == FlagKind::kInt;
  std::string sign;
  if (b.min == 0) {
    sign = b.min_exclusive ? "positive " : "non-negative ";
  } else if (integer && b.min == 1 && !b.min_exclusive) {
    sign = "positive ";
  }
  const std::string noun = integer ? "integer" : "number";
  if (TwoSided(b) && (sign.empty() || !integer)) {
    return (integer ? "an " : "a ") + noun + " in " + Interval(flag);
  }
  std::string text = (sign.empty() && integer ? "an " : "a ") + sign + noun;
  if (sign.empty() && std::isfinite(b.min)) {
    text += (b.min_exclusive ? " > " : " >= ") + Number(flag, b.min);
  }
  if (std::isfinite(b.max)) {
    text += (b.max_exclusive ? " < " : " <= ") + Number(flag, b.max);
  }
  return text;
}

bool InBound(const Bound& b, double value) {
  return (value > b.min || (!b.min_exclusive && value == b.min)) &&
         (value < b.max || (!b.max_exclusive && value == b.max));
}

bool IsChoice(const Flag& flag, const std::string& value) {
  for (const std::string& choice : flag.choices) {
    if (value == choice) return true;
  }
  return false;
}

const Flag* FindFlag(const Command& command, std::string_view name) {
  for (const Flag& flag : command.flags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

}  // namespace

StatusOr<long long> ParseBatch(const std::string& text) {
  const Flag row = Int("batch", "N", "", kBatch, "");
  const StatusOr<long long> parsed = ParseInt64(text);
  if (!parsed.ok() || !InBound(kBatch, static_cast<double>(*parsed))) {
    return InvalidArgumentError(Format("batch must be %s, got '%s'",
                                       Describe(row).c_str(), text.c_str()));
  }
  return *parsed;
}

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = BuildCommands();
  return commands;
}

const Command* FindCommand(std::string_view name) {
  for (const Command& command : Commands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

std::string Help(const Command& command) {
  std::string synopsis;
  bool optional = false;
  for (const Flag& flag : command.flags) {
    if (flag.required) {
      synopsis += Format(" --%s %s", flag.name, flag.metavar);
    } else {
      optional = true;
    }
  }
  if (*command.positionals != '\0') {
    synopsis += std::string(" ") + command.positionals;
  }
  if (optional) synopsis += " [options]";
  std::string out = std::string("usage: gpuperf ") + command.name +
                    synopsis + "\n";
  if (*command.prose != '\0') AppendWrapped(&out, "", command.prose, 2);
  for (const Flag& flag : command.flags) {
    std::string lead = std::string("  --") + flag.name;
    if (*flag.metavar != '\0') lead += std::string(" ") + flag.metavar;
    std::string text = flag.help;
    if (!flag.choices.empty()) text += ": " + Join(flag.choices, " | ");
    std::string suffix;
    if (flag.required) {
      suffix = "(required)";
    } else if (*flag.fallback != '\0' && flag.kind != FlagKind::kBool) {
      suffix = Format("(default %s)", flag.fallback);
    }
    AppendWrapped(&out, lead, text, kHelpColumn, suffix);
  }
  AppendWrapped(&out, "  --help", "print this flag list and exit 0",
                kHelpColumn);
  return out;
}

std::string Usage() {
  std::string out = "usage: gpuperf <command> [options]\n";
  for (const Command& command : Commands()) {
    AppendWrapped(&out, std::string("  ") + command.name, command.summary,
                  16);
  }
  out += "run `gpuperf <command> --help` for the command's flags\n";
  return out;
}

StatusOr<Flags::Value> Flags::Check(const Flag& flag,
                                    const std::string& text) {
  Value value{flag.kind, text};
  bool ok = true;
  switch (flag.kind) {
    case FlagKind::kBool:
    case FlagKind::kString:
    case FlagKind::kList:
      break;
    case FlagKind::kChoice:
      ok = IsChoice(flag, text);
      break;
    case FlagKind::kInt: {
      const StatusOr<long long> parsed = ParseInt64(text);
      ok = parsed.ok() &&
           InBound(flag.bound, static_cast<double>(*parsed));
      if (ok) value.integer = *parsed;
      break;
    }
    case FlagKind::kDouble: {
      const StatusOr<double> parsed = ParseFiniteDouble(text);
      ok = parsed.ok() && InBound(flag.bound, *parsed);
      if (ok) value.number = *parsed;
      break;
    }
  }
  if (!ok) {
    return InvalidArgumentError(Format("--%s must be %s, got '%s'",
                                       flag.name, Describe(flag).c_str(),
                                       text.c_str()));
  }
  return value;
}

StatusOr<Flags> Flags::Parse(const Command& command,
                             const std::vector<std::string>& argv) {
  Flags flags;
  flags.command_ = &command;
  for (const Flag& flag : command.flags) {
    if (flag.required) continue;
    StatusOr<Value> value = Check(flag, flag.fallback);
    GP_CHECK(value.ok()) << "gpuperf " << command.name << " default: "
                         << value.status().message();
    flags.values_[flag.name] = std::move(value).value();
  }
  for (const std::string& token : argv) {
    if (token == "--help") {
      flags.help_ = true;
      return flags;
    }
  }

  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& token = argv[i];
    if (!StartsWith(token, "--")) {
      flags.args_.push_back(token);
      continue;
    }
    const std::size_t eq = token.find('=');
    const std::string name =
        token.substr(2, eq == std::string::npos ? eq : eq - 2);
    const Flag* flag = FindFlag(command, name);
    if (flag == nullptr) return InvalidArgumentError("unknown flag --" + name);
    std::string text = "1";
    if (eq != std::string::npos) {
      text = token.substr(eq + 1);
      if (flag->kind == FlagKind::kBool) {
        return InvalidArgumentError("--" + name + " takes no value, got '" +
                                    text + "'");
      }
    } else if (flag->kind != FlagKind::kBool) {
      if (i + 1 == argv.size() || StartsWith(argv[i + 1], "--")) {
        return InvalidArgumentError(
            Format("--%s needs a value (%s)", flag->name, flag->metavar));
      }
      text = argv[++i];
    }
    GP_ASSIGN_OR_RETURN(flags.values_[name], Check(*flag, text));
  }

  for (const Flag& flag : command.flags) {
    const auto it = flags.values_.find(flag.name);
    if (flag.required &&
        (it == flags.values_.end() || it->second.text.empty())) {
      return InvalidArgumentError(
          Format("--%s %s is required", flag.name, flag.metavar));
    }
  }
  std::vector<std::string> slots;
  std::size_t needed = 0;
  for (const std::string& slot : Split(command.positionals, ' ')) {
    if (slot.empty()) continue;
    slots.push_back(slot);
    needed += slot[0] == '<';
  }
  if (flags.args_.size() < needed) {
    return InvalidArgumentError("missing " + slots[flags.args_.size()] +
                                " argument");
  }
  if (flags.args_.size() > slots.size()) {
    return InvalidArgumentError("unexpected argument '" +
                                flags.args_[slots.size()] + "'");
  }
  return flags;
}

const Flags::Value& Flags::Get(std::string_view name) const {
  const auto it = values_.find(name);
  GP_CHECK(it != values_.end())
      << "gpuperf " << command_->name << " has no flag --" << name;
  return it->second;
}

bool Flags::Bool(std::string_view name) const {
  const Value& value = Get(name);
  GP_CHECK(value.kind == FlagKind::kBool) << "--" << name;
  return !value.text.empty();
}

const std::string& Flags::String(std::string_view name) const {
  const Value& value = Get(name);
  GP_CHECK(value.kind == FlagKind::kString ||
           value.kind == FlagKind::kList || value.kind == FlagKind::kChoice)
      << "--" << name;
  return value.text;
}

std::vector<std::string> Flags::List(std::string_view name) const {
  const Value& value = Get(name);
  GP_CHECK(value.kind == FlagKind::kList) << "--" << name;
  return Split(value.text, ',');
}

long long Flags::Int(std::string_view name) const {
  const Value& value = Get(name);
  GP_CHECK(value.kind == FlagKind::kInt) << "--" << name;
  return value.integer;
}

double Flags::Double(std::string_view name) const {
  const Value& value = Get(name);
  GP_CHECK(value.kind == FlagKind::kDouble) << "--" << name;
  return value.number;
}

}  // namespace gpuperf::cli
