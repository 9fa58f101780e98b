#ifndef GPUPERF_PERFBENCH_BENCH_H_
#define GPUPERF_PERFBENCH_BENCH_H_

// Shared plumbing of the perfbench workloads: the command-line options,
// wall-clock timing, the in-memory span tracer and its self-time
// reduction, failure accounting, the default seed's reference check, and
// the round and set-up loops.

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** The seed whose deterministic results are pinned in reference.txt. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Parsed command line. */
struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string reference_path;  // required; run.py passes it
  std::string work_dir;        // required; run.py passes it
};

/** Seconds on the steady clock since static initialization. */
double NowS();

/** In-memory spans: name, start, end and parent (-1 for a root). */
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };

  int Begin(const char* name);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  /**
   * Writes one `name,start_s,end_s,parent` line per span to
   * `<work_dir>/spans-<workload>-<pid>.csv` and names the file on stderr.
   */
  void Write(const Options& options) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/** RAII span; a null tracer makes it a no-op (the untraced runs). */
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/**
 * One root span (a round or a set-up) of a traced run: its duration and
 * the self time of every span name in its subtree. A span's self time is
 * its duration minus the part its child spans cover.
 */
struct Phase {
  double duration_s = 0;
  std::map<std::string, double> self_s;
};
std::vector<Phase> PhasesOf(const Tracer& tracer, const std::string& root);

/** Median over phases of the self seconds of `name` (0 when absent). */
double MedianSelfS(const std::vector<Phase>& phases, const std::string& name);

/** Median over phases of `name`'s self time as a percent of the phase. */
double MedianSharePct(const std::vector<Phase>& phases,
                      const std::string& name);

/** Operations attempted and failed; a failure is logged to stderr. */
class Outcome {
 public:
  /** Counts one operation; returns `ok`. */
  bool Check(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/** One reported metric. */
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/** A per-layer value of the traced run; share is NaN for non-time rows. */
struct LayerValue {
  double value = 0;
  double share_pct = NAN;
};

/**
 * What a run measured: the end-to-end metrics (untraced runs) or the
 * per-layer values plus the tracing overhead (traced runs). `context`
 * holds printed-only values: the raw rates and the host slowdown.
 */
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> context;
  std::map<std::string, LayerValue> layers;
  double trace_overhead_pct = NAN;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value,
             double share_pct = NAN) {
    layers[name] = {value, share_pct};
  }
};

/** Bitwise equality of two vectors of doubles. */
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/** True when every value is finite and positive. */
bool AllFinitePositive(const std::vector<double>& values);

/** Median of a non-empty sample. */
double Median(std::vector<double> values);

/**
 * Host speed. The benchmark's vCPUs share physical cores with other
 * tenants: while a sibling hardware thread is busy, high-IPC code runs up
 * to ~1.7x slower for seconds at a time, so one run can be fast or slow
 * throughout. CalibrationS() times a fixed calibration kernel that is
 * owned by the benchmark and never calls gpuperf: integer work on six
 * independent chains, hash lookups, a branchy floating-point loop and a
 * sort, all cache-resident. A slowdown is its time over
 * kReferenceCalibrationS, about its time on an uncontended core of the
 * 4-vCPU Xeon VM the bounds were measured on; dividing a timed interval
 * by the slowdown around it gives reference-speed seconds.
 */
inline constexpr double kReferenceCalibrationS = 0.005;
double CalibrationS();

/**
 * Runs `round` until `seconds` have elapsed, and at least `min_rounds`
 * times. Calibrates before the first call and after each one, and returns
 * each call's host slowdown: the mean of the calibrations around it over
 * kReferenceCalibrationS.
 */
std::vector<double> RunRounds(double seconds, int min_rounds,
                              const std::function<void()>& round);

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 15;

/** Median set-up time, raw and at reference speed. */
struct SetupTiming {
  double raw_s = 0;
  double reference_s = 0;
};

/**
 * Runs `setup` kSetups times, each between two calibrations, and returns
 * the median durations.
 */
SetupTiming MedianSetupS(const std::function<void()>& setup);

/**
 * Resets the peak resident set to the current one (writes 5 to
 * /proc/self/clear_refs), so that PeakRssMb() covers only what follows.
 */
void ResetPeakRss();

/** Peak resident set size (VmHWM) of this process in MB. */
double PeakRssMb();

/**
 * Compares `actual` against the `key value` lines of the reference file
 * (relative tolerance 1e-9); each compared key is one operation, and a
 * key the file lacks is a failed one.
 */
void CheckReference(const std::string& path,
                    const std::map<std::string, double>& actual,
                    Outcome& outcome);

/**
 * Traced-run overhead in percent: the median traced round over the
 * median untraced round. Both exclude probe work, which untraced rounds
 * do not run.
 */
double TraceOverheadPct(const std::vector<double>& untraced_round_s,
                        const std::vector<double>& traced_round_s);

void RunCampaign(const Options& options, Report& report, Outcome& outcome);
void RunPredict(const Options& options, Report& report, Outcome& outcome);
void RunServe(const Options& options, Report& report, Outcome& outcome);

}  // namespace perfbench

#endif  // GPUPERF_PERFBENCH_BENCH_H_
