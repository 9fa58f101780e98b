#ifndef GPUPERF_SIMSYS_SERVING_H_
#define GPUPERF_SIMSYS_SERVING_H_

/**
 * @file
 * Online inference serving — case study 3 taken online. A
 * machine-learning-as-a-service pool receives a Poisson stream of
 * inference jobs of mixed network types; a dispatcher assigns each
 * arrival to a GPU. The paper's premise is that a microsecond-latency
 * performance model makes *predicted-time-aware* dispatch practical; this
 * simulator quantifies it against model-free policies.
 *
 * The pool is fault-tolerant: a deterministic seed-driven fault plan
 * (common/fault_injection.h) takes GPUs down and brings them back
 * (MTBF/MTTR); jobs in flight on a failed GPU are retried elsewhere after
 * a detection timeout plus capped exponential backoff, and dropped once
 * the retry budget is exhausted. When model predictions are unavailable
 * (bundle failed to load, or a value is non-finite), the
 * predicted-least-load dispatcher degrades to least-outstanding instead
 * of failing — mirroring the predictor stack's graceful degradation.
 *
 * The pool is also overload-resilient ("degrade, don't die"):
 *  - per-GPU bounded queues (`queue_cap`) shed arrivals on admission
 *    once every live GPU is full, instead of growing latency unboundedly;
 *  - per-job SLO deadlines (`slo_ms`): when the *predicted* completion
 *    time of the chosen GPU already exceeds the deadline, the job is
 *    shed immediately — the paper's microsecond predictor used as a
 *    load-shedder — and completions past the deadline count as misses;
 *  - per-GPU circuit breakers (common/circuit_breaker.h) stop retries
 *    from hammering a flapping GPU: after `breaker.failure_threshold`
 *    consecutive failures the GPU is excluded for a sim-time cooldown,
 *    then probed half-open before full traffic resumes.
 *
 * Gray-failure resilience (all off by default) hardens the pool against
 * the failures that are *partial* rather than binary:
 *  - a ChaosPlan (common/fault_injection.h) composes gray slowdowns,
 *    flap bursts, and correlated host/rack domain events on top of the
 *    uncorrelated fault plan; a job dispatched at time t runs at the
 *    slowdown factor sampled at t for its whole service;
 *  - hedged dispatch (`hedge_trigger_factor`): when a running job
 *    exceeds its predicted time by the factor, a duplicate is issued to
 *    a second GPU; the first completion wins and the loser is cancelled
 *    (its unspent tail refunded when nothing queued behind it);
 *  - retry budgets (`retry_budget`): a token bucket refilled by
 *    completions bounds retries to burst + budget x completions, so a
 *    mass failure cannot ignite a retry storm;
 *  - adaptive failure detection (`adaptive_detect_quantile`): the
 *    detection timeout follows a quantile of observed service times
 *    instead of a fixed guess, with `retry.detect_timeout_ms` as floor.
 * All mechanisms are deterministic (sim-time driven), so results stay
 * bit-identical across runs and `--jobs` values.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "obs/flight_recorder.h"

namespace gpuperf::gpuexec {
class DriftSchedule;
}  // namespace gpuperf::gpuexec

namespace gpuperf::obs {
class ChromeTraceWriter;
class SpanTracer;
}  // namespace gpuperf::obs

namespace gpuperf::simsys {

/** How arrivals are assigned to GPUs. */
enum class DispatchPolicy {
  kRoundRobin,          // model-free baseline
  kLeastOutstanding,    // fewest queued jobs (model-free)
  kPredictedLeastLoad,  // earliest predicted finish (needs a model)
};

/** Human-readable policy name. */
std::string DispatchPolicyName(DispatchPolicy policy);

/** Retry behavior for jobs interrupted by a GPU failure. */
struct RetryPolicy {
  int max_retries = 3;            // re-dispatches before a job is dropped
  double detect_timeout_ms = 1;   // failure-detection delay before retrying
  double backoff_base_ms = 1;     // first backoff; doubles per attempt
  double backoff_cap_ms = 100;    // exponential backoff cap
};

/** Configuration of a serving simulation. */
struct ServingConfig {
  double arrival_rate_per_s = 50;  // Poisson arrival rate
  double duration_s = 10;          // simulated horizon
  std::uint64_t seed = 1;
  DispatchPolicy policy = DispatchPolicy::kPredictedLeastLoad;
  FaultPlanConfig faults;          // mtbf_s == 0 keeps the pool fault-free
  RetryPolicy retry;
  // --- Overload resilience; defaults keep all three mechanisms off, and
  // the off state is byte-identical to the pre-overload simulator.
  int queue_cap = 0;     // max outstanding jobs per GPU (0 = unbounded)
  double slo_ms = 0;     // per-job latency deadline (0 = no SLO)
  BreakerPolicy breaker; // failure_threshold == 0 disables breakers
  // --- Drift and observation plumbing (self-healing lifecycle); the
  // defaults keep results byte-identical to the pre-drift simulator.
  // Deterministic service-time perturbation over sim time (borrowed,
  // not owned; nullptr = no drift). Must cover at least the pool size.
  const gpuexec::DriftSchedule* drift = nullptr;
  // [job_type][gpu] fraction of each cell's service time that is
  // memory-bound, used to scale scoped drift events (borrowed; nullptr
  // = 0.5 everywhere). Shape must match true_service_us when set.
  const std::vector<std::vector<double>>* drift_memory_share = nullptr;
  // Epoch offset added to sim time when evaluating the drift schedule,
  // so back-to-back epochs advance through one long drift timeline.
  double time_origin_us = 0;
  // Record one ServingObservation per completed job (the drift
  // monitor's input stream). Purely additive: never changes results.
  bool record_observations = false;
  // Explicit fault plan override (tests and replay; borrowed). When
  // set, `faults` is ignored; the plan must cover the pool.
  const FaultPlan* fault_plan = nullptr;
  // --- Gray-failure resilience; defaults keep every mechanism off and
  // the off state byte-identical to the pre-chaos simulator.
  // Issue a hedge to a second GPU when a job's elapsed time exceeds
  // hedge_trigger_factor x its predicted time (0 = no hedging; needs
  // finite predictions for the job).
  double hedge_trigger_factor = 0;
  // Retry token bucket: a retry spends one token, every completion
  // refills `retry_budget` tokens (capped at `retry_budget_burst`,
  // which is also the initial balance). An empty bucket suppresses the
  // retry — the job drops instead of joining a retry storm. 0 = off.
  double retry_budget = 0;
  double retry_budget_burst = 10;
  // Adaptive failure detection: once enough completions are observed,
  // the detection timeout becomes adaptive_detect_multiplier x this
  // quantile of observed service times, floored at
  // retry.detect_timeout_ms. 0 disables (fixed timeout).
  double adaptive_detect_quantile = 0;
  double adaptive_detect_multiplier = 3;
  // Chaos timeline composed on top of `faults` (the chaos seed follows
  // the grid cell seed, like the fault seed). All channels default off.
  ChaosPlanConfig chaos;
  // Explicit chaos plan override (tests and replay; borrowed). When
  // set, `chaos` is ignored; the plan must cover the pool.
  const ChaosPlan* chaos_plan = nullptr;
  // --- Sim-time flight recording (DESIGN.md §15); nullptr keeps the
  // hot path untouched. When set, the simulator advances the recorder
  // lazily between events (never scheduling events of its own, so
  // results are bit-identical with and without a recorder): counters
  // for completions/drops/sheds/retries/hedges/breaker opens, a queue
  // depth gauge, and windowed latency/residual sketches, all stamped
  // at `time_origin_us` + sim time so back-to-back epochs form one
  // monotone timeline. The recorder is borrowed and single-threaded —
  // one per simulation (or per grid cell).
  obs::FlightRecorder* recorder = nullptr;
  // Window cadence/capacity for the per-cell recorders
  // SimulateServingGrid creates when given a timeline sink.
  obs::FlightRecorderConfig recorder_config;
};

/** One completed job, as the drift monitor sees it. */
struct ServingObservation {
  std::size_t job = 0;       // job type (row of the service matrices)
  std::size_t gpu = 0;       // serving GPU
  double start_us = 0;       // service start in drift time (origin added)
  double observed_us = 0;    // actual (drifted) service duration
  double predicted_us = 0;   // model prediction for the cell (NaN = none)
};

/** Latency and fault statistics of one simulation. */
struct ServingResult {
  int completed = 0;
  int dropped = 0;     // jobs abandoned after exhausting the retry budget
  int retries = 0;     // re-dispatches caused by GPU failures
  int dispatches = 0;  // dispatch decisions that placed a job on a GPU
  int degraded_dispatches = 0;  // decisions degraded to least-outstanding
  double degraded_dispatch_fraction = 0;  // degraded / dispatches
  int shed_on_admission = 0;  // rejected: queues full or deadline hopeless
  int deadline_misses = 0;    // completed, but later than the SLO
  int breaker_opens = 0;      // circuit-breaker trips across the pool
  int hedges_issued = 0;      // duplicate dispatches for slow jobs
  int hedges_won = 0;         // jobs delivered by the hedge leg
  int retries_suppressed = 0;  // retries dropped by an empty token bucket
  int breakers_open_at_end = 0;  // breakers still open when the sim ends
  // Completed-within-SLO fraction of all arrivals (shed and dropped jobs
  // count as misses; 1.0 when everything completed and slo_ms == 0).
  double slo_attainment = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  std::vector<double> gpu_utilization;   // busy fraction per GPU
  std::vector<double> gpu_availability;  // up fraction per GPU (fault plan)
  // Completed jobs in completion order; filled only when
  // config.record_observations is set, so the default result is
  // byte-identical to the pre-drift simulator's.
  std::vector<ServingObservation> observations;
};

/**
 * Simulates the pool. Deterministic: a fixed config (seed included)
 * yields a bit-identical ServingResult on every run, platform, and
 * thread count — faults come from the precomputed plan, never from
 * ad-hoc randomness.
 *
 * @param true_service_us [job_type][gpu] actual execution time.
 * @param predicted_service_us [job_type][gpu] model-predicted time (used
 *        only by kPredictedLeastLoad). Pass an empty vector when no model
 *        is available: the policy then degrades to least-outstanding and
 *        the result reports the degraded fraction.
 * @param job_mix relative arrival weight per job type.
 *
 * Malformed inputs (empty pool, shape mismatch, non-positive rate,
 * non-finite service times, ...) are InvalidArgument errors, not aborts.
 *
 * When `tracer` is non-null, per-job lifecycle events are recorded in
 * sim time: queue-wait and service spans per GPU track, plus
 * shed/drop/retry/breaker-open instants on the dispatcher track. The
 * tracer is single-threaded state owned by this one simulation (one
 * per grid cell); tracing never changes the simulation result.
 */
[[nodiscard]] StatusOr<ServingResult> SimulateServing(
    const std::vector<std::vector<double>>& true_service_us,
    const std::vector<std::vector<double>>& predicted_service_us,
    const std::vector<double>& job_mix, const ServingConfig& config,
    obs::SpanTracer* tracer = nullptr);

/** One cell of a (policy, seed) simulation grid. */
struct ServingGridCell {
  DispatchPolicy policy = DispatchPolicy::kRoundRobin;
  std::uint64_t seed = 0;
};

/**
 * Runs one SimulateServing per cell — `base_config` with the cell's
 * policy and seed (the fault-plan seed follows the cell seed) — across a
 * ThreadPool of `jobs` threads (0 = all hardware threads). Results land
 * in pre-sized per-cell slots, so entry i is bit-identical for every
 * `jobs` value; a failing cell carries its own Status instead of
 * poisoning the rest of the grid.
 *
 * When `trace_out` is non-null, each cell records into its own
 * obs::SpanTracer and the tracers are appended to `trace_out` serially
 * in cell order after the parallel loop, so the exported Chrome-trace
 * JSON is bit-identical for every `jobs` value. Cell i becomes trace
 * process n + i + 1, where n is trace_out->process_count() on entry,
 * so grids appended to one writer never share a pid.
 *
 * When `timeline_out` is non-null, each cell additionally records into
 * its own obs::FlightRecorder (cadence from
 * base_config.recorder_config) and the recorders merge into
 * `timeline_out` serially in cell order — and, when `trace_out` is
 * also set, as Chrome counter events under the cell's trace process —
 * so timeline CSV and trace bytes are bit-identical for every `jobs`
 * value.
 *
 * Cell i's trace process and timeline source are both named
 * `label_prefix` + "cell i: <policy> seed <seed>"; callers appending
 * several grids to one sink give each a distinct prefix.
 */
[[nodiscard]] std::vector<StatusOr<ServingResult>> SimulateServingGrid(
    const std::vector<std::vector<double>>& true_service_us,
    const std::vector<std::vector<double>>& predicted_service_us,
    const std::vector<double>& job_mix, const ServingConfig& base_config,
    const std::vector<ServingGridCell>& cells, int jobs,
    obs::ChromeTraceWriter* trace_out = nullptr,
    obs::FlightTimeline* timeline_out = nullptr,
    const std::string& label_prefix = "");

}  // namespace gpuperf::simsys

#endif  // GPUPERF_SIMSYS_SERVING_H_
