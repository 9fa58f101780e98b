// End-to-end regression tests for the gpuperf CLI's error-handling
// contract: every invalid flag or flag combination exits 1 with a
// one-line actionable message (never an abort/signal), --help exits 0
// and lists the flags, and the bundle-check / serve-sim happy paths
// work against a real saved bundle. Each case shells out to the actual
// binary (GPUPERF_CLI_PATH, injected by CMake), so argument parsing,
// exit codes, and stream routing are tested for real. The --help and
// malformed-value cases are generated from the command table itself.

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli_flags.h"
#include "common/string_util.h"
#include "dnn/flops.h"
#include "gpuexec/kernel.h"
#include "gpuexec/lowering.h"
#include "test_support.h"
#include "zoo/zoo.h"

namespace gpuperf {
namespace {

struct CliResult {
  int exit_code = -1;   // -1 when the process died on a signal
  std::string output;   // stdout + stderr, interleaved
};

/**
 * Runs `gpuperf <args>` and captures the exit code and the output:
 * stdout + stderr interleaved, or only stdout with `redirect` =
 * "2>/dev/null". Fails the test on any panic or sanitizer report, which
 * no command-line input may cause.
 */
CliResult RunCli(const std::string& args, const char* redirect = "2>&1") {
  const std::string command = std::string("\"") + GPUPERF_CLI_PATH + "\" " +
                              args + " " + redirect;
  CliResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  EXPECT_EQ(result.output.find("[gpuperf PANIC]"), std::string::npos)
      << "gpuperf " << args << ":\n" << result.output;
  EXPECT_EQ(result.output.find("runtime error:"), std::string::npos)
      << "gpuperf " << args << ":\n" << result.output;
  return result;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

TEST(CliTest, UnknownCommandExitsOneWithUsage) {
  const CliResult r = RunCli("frobnicate");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(cli::Usage()), std::string::npos) << r.output;
}

TEST(CliTest, ServeSimHelpListsTheOverloadFlags) {
  const CliResult r = RunCli("serve-sim --help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag :
       {"--queue-cap", "--slo-ms", "--breaker-failures",
        "--breaker-cooldown-ms", "--breaker-probes", "--model", "--rate"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "help is missing " << flag << ":\n" << r.output;
  }
}

TEST(CliTest, BundleCheckHelpListsItsFlags) {
  const CliResult r = RunCli("bundle-check --help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag : {"--candidate", "--baseline", "--networks",
                           "--gpus", "--batch", "--tolerance"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "help is missing " << flag << ":\n" << r.output;
  }
}

// Every row: an invalid invocation that must exit exactly 1 (a
// recoverable user error — never 0, never a signal/abort) and print a
// message containing the expected substring on its first line.
struct BadInvocation {
  const char* args;
  const char* expected;
};

void ExpectOneLineErrors(const std::vector<BadInvocation>& cases) {
  for (const BadInvocation& c : cases) {
    SCOPED_TRACE(c.args);
    const CliResult r = RunCli(c.args);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    ASSERT_FALSE(r.output.empty());
    const std::string first_line =
        r.output.substr(0, r.output.find('\n'));
    EXPECT_NE(first_line.find(c.expected), std::string::npos)
        << "first line: " << first_line;
  }
}

/**
 * The flag rows of one --help text, keyed by flag name: each row's
 * first line plus its continuation lines, whitespace folded to single
 * spaces.
 */
std::map<std::string, std::string> HelpRows(const std::string& help) {
  std::map<std::string, std::string> rows;
  std::string* row = nullptr;
  std::istringstream lines(help);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  --", 0) == 0) {
      row = &rows[line.substr(4, line.find(' ', 4) - 4)];
    } else if (line.rfind("    ", 0) != 0) {
      row = nullptr;  // synopsis or prose
    }
    if (row == nullptr) continue;
    std::istringstream words(line);
    std::string word;
    while (words >> word) *row += (row->empty() ? "" : " ") + word;
  }
  return rows;
}

TEST(CliTest, EveryHelpIsGeneratedFromTheTable) {
  const CliResult top = RunCli("--help", "2>/dev/null");
  EXPECT_EQ(top.exit_code, 0);
  EXPECT_EQ(top.output, cli::Usage());
  for (const cli::Command& command : cli::Commands()) {
    SCOPED_TRACE(command.name);
    EXPECT_NE(top.output.find(std::string("  ") + command.name + " "),
              std::string::npos);
    const CliResult r =
        RunCli(std::string(command.name) + " --help", "2>/dev/null");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.output, cli::Help(command));
    const std::map<std::string, std::string> rows = HelpRows(r.output);
    EXPECT_EQ(rows.size(), command.flags.size() + 1);  // + --help
    EXPECT_EQ(rows.count("help"), 1u);
    for (const cli::Flag& flag : command.flags) {
      const auto row = rows.find(flag.name);
      ASSERT_NE(row, rows.end()) << "help is missing --" << flag.name;
      // Every "(default X)" the row prints is the row's own default.
      const std::string& text = row->second;
      std::size_t shown = 0;
      for (std::size_t at = text.find("(default "); at != std::string::npos;
           at = text.find("(default ", at + 1)) {
        const std::size_t start = at + 9;
        EXPECT_EQ(text.substr(start, text.find(')', start) - start),
                  flag.fallback)
            << "--" << flag.name << ": " << text;
        ++shown;
      }
      const bool has_default =
          *flag.fallback != '\0' && flag.kind != cli::FlagKind::kBool;
      EXPECT_EQ(shown, has_default ? 1u : 0u) << "--" << flag.name;
    }
  }
}

/** A negative value and the nearest values just outside each bound. */
std::vector<std::string> OutOfBoundValues(const cli::Flag& flag) {
  const bool integer = flag.kind == cli::FlagKind::kInt;
  const auto text = [integer](double value) {
    return integer ? Format("%.0f", value) : Format("%.17g", value);
  };
  const cli::Bound& b = flag.bound;
  std::vector<std::string> values;
  if (b.min > -1) values.push_back("-1");
  if (std::isfinite(b.min)) {
    values.push_back(text(b.min_exclusive ? b.min
                          : integer       ? b.min - 1
                                          : std::nextafter(b.min, -HUGE_VAL)));
  }
  if (std::isfinite(b.max)) {
    values.push_back(text(b.max_exclusive ? b.max
                          : integer       ? b.max + 1
                                          : std::nextafter(b.max, HUGE_VAL)));
  }
  return values;
}

TEST(CliTest, MalformedNumericValuesExitOneNamingTheFlag) {
  for (const cli::Command& command : cli::Commands()) {
    for (const cli::Flag& flag : command.flags) {
      if (flag.kind != cli::FlagKind::kInt &&
          flag.kind != cli::FlagKind::kDouble) {
        continue;
      }
      const std::string base =
          std::string(command.name) + " --" + flag.name;
      // Empty, missing, not a number, then out of bounds.
      std::vector<std::string> invocations = {base + "=", base,
                                              base + " nan"};
      for (const std::string& value : OutOfBoundValues(flag)) {
        invocations.push_back(base + " " + value);
      }
      for (const std::string& args : invocations) {
        SCOPED_TRACE(args);
        const CliResult r = RunCli(args);
        EXPECT_EQ(r.exit_code, 1) << r.output;
        const std::string first_line =
            r.output.substr(0, r.output.find('\n'));
        EXPECT_EQ(first_line.rfind(
                      std::string("gpuperf: --") + flag.name + " ", 0),
                  0u)
            << first_line;
      }
    }
  }
}

TEST(CliTest, MalformedArgumentShapesExitOneWithOneLineErrors) {
  ExpectOneLineErrors({
      // A value flag without its value never defaults to "1".
      {"dataset --stride 200 --out", "--out needs a value (DIR)"},
      {"serve-sim --duration 1 --rate", "--rate needs a value (R)"},
      {"serve-sim --model --rate 5", "--model needs a value (DIR)"},
      // Commands without flag rows still reject unknown flags.
      {"gpus --bogus", "unknown flag --bogus"},
      {"show resnet18 --bogus", "unknown flag --bogus"},
      {"roofline resnet18 A100 16 --bogus", "unknown flag --bogus"},
      {"batch resnet18 A100 --bogus", "unknown flag --bogus"},
      // Positional arity.
      {"serve-sim --duration 1 --networks resnet18 extra junk",
       "unexpected argument 'extra'"},
      {"gpus extra", "unexpected argument 'extra'"},
      {"roofline resnet18 A100 16 17", "unexpected argument '17'"},
      {"show", "missing <network> argument"},
      {"batch resnet18", "missing <gpu> argument"},
      {"predict --model m resnet18 A100", "missing <batch> argument"},
      // Bool rows take no value.
      {"dataset --out x --training=1", "--training takes no value, got '1'"},
      {"timeline --in x --ascii 1", "unexpected argument '1'"},
      // Required rows.
      {"train --dataset d", "--out DIR is required"},
      {"explain --model m --network n --gpu g", "--batch B is required"},
  });
}

TEST(CliTest, InvalidServeSimFlagsExitOneWithOneLineErrors) {
  const std::vector<BadInvocation> cases = {
      {"serve-sim --bogus 1", "unknown flag --bogus"},
      {"serve-sim --rate 0", "--rate must be a positive number"},
      {"serve-sim --rate banana", "--rate must be a positive number"},
      {"serve-sim --duration -3", "--duration must be a positive number"},
      {"serve-sim --seed -1", "--seed must be a non-negative integer"},
      {"serve-sim --mtbf nan", "--mtbf must be a non-negative number"},
      {"serve-sim --mttr 0", "--mttr must be a positive number"},
      {"serve-sim --retries -1", "--retries must be a non-negative integer"},
      {"serve-sim --queue-cap -2",
       "--queue-cap must be a non-negative integer"},
      {"serve-sim --queue-cap 1.5",
       "--queue-cap must be a non-negative integer"},
      {"serve-sim --slo-ms -1", "--slo-ms must be a non-negative number"},
      {"serve-sim --slo-ms inf", "--slo-ms must be a non-negative number"},
      {"serve-sim --breaker-failures -1",
       "--breaker-failures must be a non-negative integer"},
      {"serve-sim --breaker-cooldown-ms -5",
       "--breaker-cooldown-ms must be a non-negative number"},
      {"serve-sim --breaker-probes 0",
       "--breaker-probes must be a positive integer"},
      {"serve-sim --policy vibes", "--policy must be"},
      {"serve-sim --pool NoSuchGpu", "unknown GPU 'NoSuchGpu'"},
      {"serve-sim --networks nosuchnet", "nosuchnet"},
      // The recorder counts whole microseconds in a long long.
      {"serve-sim --timeline-period-ms 0.0001 --timeline-out t.csv",
       "--timeline-period-ms must be a number in [0.001, "},
      {"serve-sim --timeline-period-ms 1e300 --timeline-out t.csv",
       "--timeline-period-ms must be a number in [0.001, "},
  };
  ExpectOneLineErrors(cases);
}

TEST(CliTest, InvalidDriftFlagsExitOneWithOneLineErrors) {
  // Drift values are validated even when no event was requested (no
  // --drift-gpu / --drift-rate): a malformed flag is a user mistake
  // whether or not it would have been used.
  const std::vector<BadInvocation> cases = {
      {"serve-sim --drift-factor abc",
       "--drift-factor must be a positive number"},
      {"serve-sim --drift-factor 0",
       "--drift-factor must be a positive number"},
      {"serve-sim --drift-at -1",
       "--drift-at must be a non-negative number"},
      {"serve-sim --drift-ramp nan",
       "--drift-ramp must be a non-negative number"},
      {"serve-sim --drift-rate -2",
       "--drift-rate must be a non-negative number"},
      {"serve-sim --drift-sigma abc",
       "--drift-sigma must be a positive number"},
      {"serve-sim --drift-seed -1",
       "--drift-seed must be a non-negative integer"},
      {"serve-sim --drift-scope bogus",
       "--drift-scope must be one of all | memory | compute"},
      {"serve-sim --drift-gpu A40 --drift-rate 2",
       "--drift-gpu and --drift-rate are mutually exclusive"},
      {"serve-sim --drift-gpu H100X --pool A40,V100",
       "--drift-gpu 'H100X' is not in the pool"},
      {"drift-report", "--model DIR is required"},
      {"drift-report --model /nonexistent --drift-factor abc",
       "--drift-factor must be a positive number"},
      {"drift-report --model /nonexistent --drift-gpu H100X",
       "--drift-gpu 'H100X' is not in the pool"},
  };
  ExpectOneLineErrors(cases);
}

TEST(CliTest, InvalidBundleCheckFlagsExitOneWithOneLineErrors) {
  const std::vector<BadInvocation> cases = {
      {"bundle-check", "--candidate DIR is required"},
      {"bundle-check --bogus 1", "unknown flag --bogus"},
      {"bundle-check --candidate /nonexistent/dir", "not a model bundle"},
      {"bundle-check --candidate x --batch 0",
       "--batch must be a positive integer"},
      {"bundle-check --candidate x --tolerance -0.5",
       "--tolerance must be a non-negative number"},
      {"bundle-check --candidate x --networks nosuchnet", "nosuchnet"},
  };
  ExpectOneLineErrors(cases);
}

TEST(CliTest, HugeBatchesExitOneWithOneLineErrors) {
  const std::string flag_error =
      Format("--batch must be a positive integer <= %lld", cli::kMaxBatch);
  const std::string positional_error = flag_error.substr(2);
  const std::string predict =
      "predict --model \"" + testing::GoldenKwBundleDir() + "\" resnet18 A100 ";
  const std::string predict_huge = predict + "1000000000000000000";
  const std::string predict_zero = predict + "0";
  const std::string roofline_over =
      Format("roofline resnet18 A100 %lld", cli::kMaxBatch + 1);
  ExpectOneLineErrors({
      // Unbounded, this batch overflows lowering's int64 block counts.
      {"serve-sim --batch 1000000000000000000 --duration 1",
       flag_error.c_str()},
      {predict_huge.c_str(), positional_error.c_str()},
      {predict_zero.c_str(), positional_error.c_str()},
      {roofline_over.c_str(), positional_error.c_str()},
      {"roofline resnet18 A100 x", positional_error.c_str()},
  });
}

// Predictors multiply a batch by per-sample driver values, and lowering
// by per-sample FLOPs, bytes and launch grids, all in int64: at the
// CLI's largest batch every such product over the zoo must still fit.
TEST(CliTest, BatchBoundKeepsZooProductsInInt64) {
  std::int64_t largest = 0;
  for (const dnn::Network& network : zoo::SmallZoo(1)) {
    largest = std::max(largest, dnn::NetworkFlops(network, 1));
    for (const dnn::Layer& layer : network.layers()) {
      for (gpuexec::CostDriver driver :
           {gpuexec::CostDriver::kInput, gpuexec::CostDriver::kOperation,
            gpuexec::CostDriver::kOutput}) {
        largest =
            std::max(largest, gpuexec::PerSampleDriverValue(layer, driver));
      }
      for (const gpuexec::KernelLaunch& launch :
           gpuexec::LowerLayer(layer, 1)) {
        largest = std::max({largest, launch.flops, launch.bytes_in,
                            launch.bytes_out, launch.blocks});
      }
    }
  }
  EXPECT_LE(largest,
            std::numeric_limits<std::int64_t>::max() / cli::kMaxBatch)
      << "largest per-sample product " << largest;
}

TEST(CliTest, BundleCheckPromotesAHealthyBundle) {
  const std::string& bundle = testing::GoldenKwBundleDir();
  const CliResult r =
      RunCli("bundle-check --candidate \"" + bundle +
             "\" --networks resnet18 --gpus A40");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("PROMOTED"), std::string::npos) << r.output;
}

TEST(CliTest, BundleCheckRejectsACorruptBundleWithLocatedError) {
  const std::string dir = testing::ScratchKwBundleDir("cli_corrupt");
  // Tamper one byte without re-manifesting: the checksum gate must
  // reject, and the one-line error must name the offending file.
  {
    const std::string path = dir + "/kernel_models.csv";
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  const CliResult r = RunCli("bundle-check --candidate \"" + dir +
                             "\" --networks resnet18 --gpus A40");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(CountLines(r.output), 1) << r.output;
  EXPECT_NE(r.output.find("kernel_models.csv"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("rejected"), std::string::npos) << r.output;
}

TEST(CliTest, ServeSimRunsWithAllOverloadFeaturesEnabled) {
  const CliResult r = RunCli(
      "serve-sim --duration 2 --rate 120 --queue-cap 4 --slo-ms 80 "
      "--mtbf 5 --breaker-failures 2 --networks resnet18 --policy "
      "least-outstanding");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* column : {"shed", "miss", "SLO", "trips"}) {
    EXPECT_NE(r.output.find(column), std::string::npos)
        << "missing column " << column << ":\n" << r.output;
  }
}

TEST(CliTest, ServeSimWritesMetricsAndTraceFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string metrics = dir + "/cli_serve_metrics.csv";
  const std::string prom = dir + "/cli_serve_metrics.prom";
  const std::string trace = dir + "/cli_serve_trace.json";
  const CliResult r = RunCli(
      "serve-sim --duration 1 --rate 80 --networks resnet18 "
      "--metrics-out \"" + metrics + "\" --trace-out \"" + trace + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;

  const std::string csv = ReadFileOrEmpty(metrics);
  EXPECT_EQ(csv.rfind("metric,type,field,value\n", 0), 0u) << csv;
  EXPECT_NE(csv.find("gpuperf_serving_jobs_arrived,"), std::string::npos);
  EXPECT_NE(csv.find("gpuperf_serving_latency_ms,histogram,"),
            std::string::npos);

  const std::string json = ReadFileOrEmpty(trace);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[\n", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // A .prom extension switches the snapshot to Prometheus text.
  const CliResult r2 = RunCli(
      "serve-sim --duration 1 --rate 80 --networks resnet18 "
      "--metrics-out \"" + prom + "\"");
  EXPECT_EQ(r2.exit_code, 0) << r2.output;
  const std::string prom_text = ReadFileOrEmpty(prom);
  EXPECT_EQ(prom_text.rfind("# HELP ", 0), 0u);
  EXPECT_NE(prom_text.find("# TYPE "), std::string::npos);

  std::remove(metrics.c_str());
  std::remove(prom.c_str());
  std::remove(trace.c_str());
}

TEST(CliTest, ServeSimRunsWithResilienceAndChaosFlagsEnabled) {
  const CliResult r = RunCli(
      "serve-sim --duration 2 --rate 60 --networks resnet18 --policy "
      "least-outstanding --mtbf 1 --mttr 0.5 --breaker-failures 2 "
      "--hedge-factor 1.5 --retry-budget 0.5 --retry-burst 5 "
      "--adaptive-detect 0.95 --chaos-gray-mtbf 1 --chaos-gray-mttr 1 "
      "--chaos-gray-factor 3 --chaos-host-size 2 --chaos-host-mtbf 2 "
      "--chaos-host-mttr 0.3 --chaos-host-factor 0 --chaos-flap-mtbf 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("least-outstanding"), std::string::npos)
      << r.output;
}
TEST(CliTest, ServeSimHelpListsTheResilienceAndChaosFlags) {
  const CliResult r = RunCli("serve-sim --help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag :
       {"--hedge-factor", "--retry-budget", "--retry-burst",
        "--adaptive-detect", "--chaos-gray-mtbf", "--chaos-flap-count",
        "--chaos-host-size", "--chaos-rack-factor"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "help is missing " << flag << ":\n" << r.output;
  }
}

TEST(CliTest, InvalidResilienceAndChaosFlagsExitOneWithOneLineErrors) {
  const std::vector<BadInvocation> cases = {
      {"serve-sim --hedge-factor -1",
       "--hedge-factor must be a non-negative number"},
      {"serve-sim --retry-budget nan",
       "--retry-budget must be a non-negative number"},
      {"serve-sim --retry-burst 0",
       "--retry-burst must be a positive number"},
      {"serve-sim --adaptive-detect 1.5",
       "--adaptive-detect must be a number in [0, 1]"},
      {"serve-sim --chaos-gray-mtbf -1",
       "--chaos-gray-mtbf must be a non-negative number"},
      {"serve-sim --chaos-flap-count 0",
       "--chaos-flap-count must be a positive integer"},
      {"serve-sim --chaos-flap-period 0",
       "--chaos-flap-period must be a positive number"},
      {"serve-sim --chaos-host-size -1",
       "--chaos-host-size must be a non-negative integer"},
      // Each domain size lands in a size_t the fault injector multiplies;
      // the int range keeps host x rack from wrapping to a zero span.
      {"serve-sim --duration 1 --chaos-host-size 4294967296 "
       "--chaos-rack-size 4294967296 --chaos-rack-mtbf 1",
       "--chaos-host-size must be a non-negative integer"},
      {"serve-sim --chaos-rack-size 2147483648",
       "--chaos-rack-size must be a non-negative integer"},
      // Deep semantic checks surface from the simulator's input
      // validation as one-line errors, never aborts.
      {"serve-sim --duration 1 --chaos-gray-mtbf 1 --chaos-gray-factor "
       "0.5", "chaos.gray_factor = 0.5 must be > 1"},
      {"chaos --bogus 1", "unknown flag --bogus"},
      {"chaos --scenarios bogus",
       "--scenarios must be a comma-separated subset"},
      {"chaos --min-avail 1.5", "--min-avail must be a number in [0, 1]"},
      {"chaos --policy vibes", "--policy must be"},
      {"chaos --pool NoSuchGpu", "unknown GPU 'NoSuchGpu'"},
      {"chaos --rate 0", "--rate must be a positive number"},
      {"chaos --runs 0", "--runs must be a positive integer"},
  };
  ExpectOneLineErrors(cases);
}

TEST(CliTest, ChaosHelpListsItsFlags) {
  const CliResult r = RunCli("chaos --help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag :
       {"--scenarios", "--policy", "--min-avail", "--hedge-factor",
        "--retry-budget", "--adaptive-detect", "--breaker-failures",
        "--metrics-out", "--trace-out"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "help is missing " << flag << ":\n" << r.output;
  }
}

TEST(CliTest, ChaosSweepHoldsItsInvariantsAndPrintsTheTable) {
  const CliResult r = RunCli(
      "chaos --duration 3 --rate 40 --networks resnet18 "
      "--policy least-outstanding");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* token : {"scenario", "outage", "gray", "domain", "flap",
                            "suppr", "hedge", "open", "check", "OK",
                            "all invariants held"}) {
    EXPECT_NE(r.output.find(token), std::string::npos)
        << "missing " << token << ":\n" << r.output;
  }
  EXPECT_EQ(r.output.find("FAIL"), std::string::npos) << r.output;
}

TEST(CliTest, ChaosInvariantViolationExitsOneWithLocatedError) {
  // An impossible availability floor forces a per-cell violation: the
  // table still prints (with FAIL in the check column) and the process
  // exits 1 with a one-line located error.
  const CliResult r = RunCli(
      "chaos --duration 2 --rate 40 --networks resnet18 "
      "--scenarios outage --policy least-outstanding --min-avail 1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("FAIL"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("chaos invariant violated: scenario=outage "
                          "policy=least-outstanding seed=1:"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("below the --min-avail floor"), std::string::npos)
      << r.output;
}

TEST(CliTest, ChaosTableIsBitIdenticalAcrossJobCounts) {
  const std::string args =
      "chaos --duration 2 --rate 40 --networks resnet18 "
      "--scenarios gray,flap --policy least-outstanding --runs 2";
  const CliResult serial = RunCli(args + " --jobs 1");
  const CliResult parallel = RunCli(args + " --jobs 5");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;
  EXPECT_EQ(serial.output, parallel.output);
}

TEST(CliTest, ChaosExportsGiveEachScenarioCellItsOwnPidAndSource) {
  // Every scenario runs its own grid into the same trace and timeline:
  // each (scenario, cell) must get a distinct trace pid and a distinct
  // timeline source naming the scenario, with sim time monotone per
  // source.
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "/cli_chaos_trace.json";
  const std::string timeline = dir + "/cli_chaos_timeline.csv";
  const CliResult r = RunCli(
      "chaos --duration 2 --rate 40 --networks resnet18 "
      "--scenarios gray,flap --policy least-outstanding --runs 2 "
      "--trace-out \"" + trace + "\" --timeline-out \"" + timeline + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string json = ReadFileOrEmpty(trace);
  const std::string marker =
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  const std::string name_key = "\"args\":{\"name\":\"";
  std::set<int> pids;
  std::set<std::string> names;
  int processes = 0;
  for (std::size_t at = json.find(marker); at != std::string::npos;
       at = json.find(marker, at + 1)) {
    ++processes;
    pids.insert(std::stoi(json.substr(at + marker.size())));
    const std::size_t name_at = json.find(name_key, at) + name_key.size();
    names.insert(json.substr(name_at, json.find('"', name_at) - name_at));
  }
  EXPECT_EQ(processes, 4);  // 2 scenarios x 2 cells
  EXPECT_EQ(pids, (std::set<int>{1, 2, 3, 4}));
  EXPECT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    EXPECT_TRUE(name.rfind("gray ", 0) == 0 || name.rfind("flap ", 0) == 0)
        << name;
  }

  std::istringstream csv(ReadFileOrEmpty(timeline));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "t_us,source,metric,kind,field,value");
  std::map<std::string, long long> last_t_us;
  while (std::getline(csv, line)) {
    const std::size_t comma = line.find(',');
    const long long t_us = std::stoll(line.substr(0, comma));
    const std::string source =
        line.substr(comma + 1, line.find(',', comma + 1) - comma - 1);
    const auto last = last_t_us.find(source);
    if (last != last_t_us.end()) {
      EXPECT_GE(t_us, last->second) << "source " << source;
    }
    last_t_us[source] = t_us;
  }
  EXPECT_EQ(last_t_us.size(), 4u);
  for (const auto& [source, t_us] : last_t_us) {
    EXPECT_TRUE(names.count(source) == 1) << source;
  }

  std::remove(trace.c_str());
  std::remove(timeline.c_str());
}

TEST(CliTest, UnwritableMetricsOrTracePathExitsOneWithOneLineError) {
  const CliResult metrics = RunCli(
      "serve-sim --duration 1 --rate 80 --networks resnet18 "
      "--metrics-out /nonexistent-gpuperf-dir/m.csv");
  EXPECT_EQ(metrics.exit_code, 1);
  EXPECT_NE(metrics.output.find("gpuperf: cannot open metrics file: "
                                "/nonexistent-gpuperf-dir/m.csv\n"),
            std::string::npos)
      << metrics.output;

  const CliResult trace = RunCli(
      "serve-sim --duration 1 --rate 80 --networks resnet18 "
      "--trace-out /nonexistent-gpuperf-dir/t.json");
  EXPECT_EQ(trace.exit_code, 1);
  EXPECT_NE(trace.output.find("cannot open trace file"), std::string::npos)
      << trace.output;
}

}  // namespace
}  // namespace gpuperf
