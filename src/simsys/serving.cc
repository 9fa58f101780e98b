#include "simsys/serving.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gpuexec/oracle.h"
#include "obs/breaker_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "simsys/event_queue.h"

namespace gpuperf::simsys {

namespace {

/** What can happen to a job (or a leg of one), counted once in Sim::Emit. */
enum class Outcome {
  kCompleted,
  kDropped,
  kShed,
  kRetry,
  kRetrySuppressed,
  kBreakerOpen,
  kDeadlineMiss,
  kHedgeIssued,
  kHedgeWon,
};
constexpr std::size_t kOutcomeCount =
    static_cast<std::size_t>(Outcome::kHedgeWon) + 1;

/**
 * One row per Outcome: the registry family, which is also the flight
 * recorder channel (so summing a channel's per-window deltas across
 * every cell reproduces the registry totals — the obs smoke asserts
 * exactly this), its help text, the ServingResult field the tally
 * lands in, and the tracer instant (name, category), if any.
 */
struct OutcomeSpec {
  const char* family;
  const char* help;
  int ServingResult::*field;
  const char* instant;
  const char* category;
};
constexpr OutcomeSpec kOutcomes[] = {
    {"gpuperf_serving_jobs_completed", "Jobs served to completion",
     &ServingResult::completed, nullptr, nullptr},
    {"gpuperf_serving_jobs_dropped", "Jobs abandoned after the retry budget",
     &ServingResult::dropped, "drop", "retry"},
    {"gpuperf_serving_jobs_shed", "Admission-control rejections",
     &ServingResult::shed_on_admission, "shed", "admission"},
    {"gpuperf_serving_retries", "Re-dispatches caused by GPU failures",
     &ServingResult::retries, "retry", "retry"},
    {"gpuperf_serving_retries_suppressed",
     "Retries dropped by an empty token bucket",
     &ServingResult::retries_suppressed, nullptr, nullptr},
    {"gpuperf_serving_breaker_opens", "Circuit-breaker trips across the pool",
     &ServingResult::breaker_opens, "breaker-open", "breaker"},
    {"gpuperf_serving_deadline_misses", "Completions later than the SLO",
     &ServingResult::deadline_misses, nullptr, nullptr},
    {"gpuperf_serving_hedges_issued", "Duplicate dispatches for slow jobs",
     &ServingResult::hedges_issued, nullptr, nullptr},
    {"gpuperf_serving_hedges_won", "Jobs delivered by the hedge leg",
     &ServingResult::hedges_won, nullptr, nullptr},
};
static_assert(std::size(kOutcomes) == kOutcomeCount, "one row per Outcome");

/**
 * The serving module's registry instruments, resolved once (name
 * lookup takes the registry Mutex) and bumped lock-free afterwards —
 * possibly from many grid threads at once. Naming per DESIGN.md §10:
 * gpuperf_serving_<name>.
 */
struct ServingMetrics {
  obs::Counter& simulations;
  obs::Counter& jobs_arrived;
  obs::Histogram& latency_ms;
  std::array<obs::Counter*, kOutcomeCount> outcomes{};

  static ServingMetrics& Get() {
    static ServingMetrics* const kMetrics = [] {
      // Breakers run inside serving sims; bind their transition hook to
      // the gpuperf_breaker_* counters before the first one can trip.
      obs::InstallBreakerMetrics();
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      auto* metrics = new ServingMetrics{
          registry.counter("gpuperf_serving_simulations",
                           "Successful SimulateServing returns"),
          registry.counter("gpuperf_serving_jobs_arrived",
                           "Arrivals (completed + dropped + shed)"),
          registry.histogram("gpuperf_serving_latency_ms",
                             {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
                             "End-to-end job latency in milliseconds")};
      for (std::size_t o = 0; o < kOutcomeCount; ++o) {
        metrics->outcomes[o] =
            &registry.counter(kOutcomes[o].family, kOutcomes[o].help);
      }
      return metrics;
    }();
    return *kMetrics;
  }
};

/** Folds one finished simulation into the registry. */
void RecordSimulation(const ServingResult& result, std::size_t arrivals,
                      const std::vector<double>& latencies_ms) {
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.simulations.Increment();
  metrics.jobs_arrived.Increment(arrivals);
  for (std::size_t o = 0; o < kOutcomeCount; ++o) {
    metrics.outcomes[o]->Increment(
        static_cast<std::uint64_t>(result.*kOutcomes[o].field));
  }
  for (double latency : latencies_ms) metrics.latency_ms.Observe(latency);
}

}  // namespace

std::string DispatchPolicyName(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kLeastOutstanding: return "least-outstanding";
    case DispatchPolicy::kPredictedLeastLoad: return "predicted-least-load";
  }
  GP_CHECK(false);
  return "";
}

namespace {

/** How a dispatch attempt resolved its target search. */
enum class PickOutcome {
  kOk,         // a GPU was selected
  kPoolDown,   // nothing up (or breaker-allowed): retry later
  kQueueFull,  // live GPUs exist, but every bounded queue is full: shed
};

/** One planned arrival: when it arrives and its job type. */
struct Arrival {
  double at_us;
  std::size_t job;
};

/** Mutable simulation state shared by the event handlers. */
struct Sim {
  const std::vector<std::vector<double>>& truth;
  const std::vector<std::vector<double>>& predicted;  // empty = no model
  const ServingConfig& config;
  std::size_t gpus;
  EventQueue queue;
  FaultPlan plan;

  // Per-GPU FIFO: when the GPU frees up (true time) and its predicted
  // free-up time (what the model-driven dispatcher believes).
  std::vector<double> gpu_free;
  std::vector<double> gpu_predicted_free;
  std::vector<int> gpu_outstanding;
  std::vector<double> gpu_busy;
  std::vector<CircuitBreaker> breakers;
  std::vector<double> latencies_ms;
  std::vector<ServingObservation> observations;  // record_observations only
  int round_robin_next = 0;

  // The run's arrival plan, drawn before the first event fires; only
  // the next arrival is queued (ScheduleArrival).
  std::vector<Arrival> arrivals;
  std::int64_t first_arrival_sequence = 0;

  // Per-call scratch for PickTarget (live flags, candidates) and
  // HedgeCheck (candidates), cleared on each call so dispatch does not
  // allocate.
  std::vector<char> live_scratch;
  std::vector<std::size_t> candidate_scratch;

  // Gray-failure resilience state. `chaos` is borrowed (nullptr = no
  // chaos); `retry_tokens` is the per-simulation retry token bucket;
  // `observed_service_us` feeds the adaptive detection timeout.
  const ChaosPlan* chaos = nullptr;
  double retry_tokens = 0;
  std::vector<double> observed_service_us;

  // Optional sim-time lifecycle recording; null = tracing off. Track 0
  // is the dispatcher (shed/drop/retry instants), track g+1 is GPU g
  // (queue-wait and service spans). Purely observational: no branch in
  // the simulation ever reads tracer state.
  obs::SpanTracer* tracer = nullptr;

  // Optional sim-time flight recording; null = off. Event handlers bump
  // counters/gauges/sketches here; windows close lazily in the run
  // loop. Purely observational, like `tracer`.
  obs::FlightRecorder* recorder = nullptr;
  // Cached channel handles (valid while `recorder` is): per-event
  // updates must not pay the by-name map lookup (bench_speed_obs).
  std::array<obs::FlightRecorder::CounterHandle, kOutcomeCount> ch_outcomes;
  obs::FlightRecorder::GaugeHandle ch_queue_depth;
  obs::FlightRecorder::SketchHandle ch_latency_ms, ch_residual_pct;
  int outstanding_total = 0;  // sum of gpu_outstanding (queue-depth gauge)

  /** Publishes the pool-wide queue depth to the recorder gauge. */
  void RecordQueueDepth() {
    recorder->SetGauge(ch_queue_depth, outstanding_total);
  }

  std::array<int, kOutcomeCount> tally{};  // Emit counts, by Outcome
  int dispatches = 0;
  int degraded = 0;

  Sim(const std::vector<std::vector<double>>& truth_in,
      const std::vector<std::vector<double>>& predicted_in,
      const ServingConfig& config_in, std::size_t gpus_in, FaultPlan plan_in)
      : truth(truth_in),
        predicted(predicted_in),
        config(config_in),
        gpus(gpus_in),
        plan(std::move(plan_in)),
        gpu_free(gpus_in, 0.0),
        gpu_predicted_free(gpus_in, 0.0),
        gpu_outstanding(gpus_in, 0),
        gpu_busy(gpus_in, 0.0),
        breakers(gpus_in, CircuitBreaker(config_in.breaker)),
        live_scratch(gpus_in, 0) {
    candidate_scratch.reserve(gpus_in);
  }

  /**
   * Queues arrival `i` under reserved sequence first_arrival_sequence +
   * i, the key it would have had if every arrival were pre-scheduled.
   * When it fires it first queues arrival i + 1 — whose key is larger
   * than the one firing, so no later event can have fired yet — and
   * then dispatches. The capture fits std::function's inline buffer, so
   * an arrival costs no allocation.
   */
  void ScheduleArrival(std::size_t i) {
    const std::int64_t sequence =
        first_arrival_sequence + static_cast<std::int64_t>(i);
    queue.ScheduleReserved(arrivals[i].at_us, sequence, [this, i] {
      if (i + 1 < arrivals.size()) ScheduleArrival(i + 1);
      Dispatch(i, arrivals[i].job, arrivals[i].at_us, /*attempt=*/0);
    });
  }

  /**
   * Failure-detection delay: the fixed `retry.detect_timeout_ms`, or —
   * once adaptive detection has enough completions to trust — the
   * configured quantile of observed service times scaled by the
   * multiplier, whichever is larger. Under gray failures the observed
   * quantile tracks the real (slowed) service distribution, so healthy
   * slow jobs are not misdetected as failures.
   */
  double DetectTimeoutMs() const {
    const RetryPolicy& r = config.retry;
    if (config.adaptive_detect_quantile <= 0 ||
        observed_service_us.size() < 8) {
      return r.detect_timeout_ms;
    }
    const double quantile_us = Percentile(
        observed_service_us, config.adaptive_detect_quantile * 100);
    return std::max(r.detect_timeout_ms,
                    quantile_us * config.adaptive_detect_multiplier / 1e3);
  }

  /** Delay before re-dispatching after the `attempt`-th failure (0-based):
   *  failure-detection timeout plus capped exponential backoff. */
  double RetryDelayUs(int attempt) const {
    const RetryPolicy& r = config.retry;
    const double backoff_ms =
        std::min(r.backoff_base_ms * std::ldexp(1.0, attempt),
                 r.backoff_cap_ms);
    return (DetectTimeoutMs() + backoff_ms) * 1e3;
  }

  /** Memory-bound time share of (job, gpu) for scoped drift events. */
  double MemoryShare(std::size_t job, std::size_t gpu) const {
    if (config.drift_memory_share == nullptr) return 0.5;
    return (*config.drift_memory_share)[job][gpu];
  }

  /** `truth[job][target]` with the drift schedule applied at `start`. */
  double DriftedService(std::size_t job, std::size_t target,
                        double start) const {
    const double service = truth[job][target];
    if (config.drift == nullptr || config.drift->empty()) return service;
    return service * config.drift->FactorAt(target,
                                            config.time_origin_us + start,
                                            MemoryShare(job, target));
  }

  /** Drifted service time with the chaos slowdown sampled at `start`
   *  applied for the leg's whole duration. */
  double ServiceTime(std::size_t job, std::size_t target,
                     double start) const {
    double service = DriftedService(job, target, start);
    if (chaos != nullptr) service *= chaos->SlowdownAt(target, start);
    return service;
  }

  /** Least-outstanding among the up candidates. */
  std::size_t LeastOutstanding(const std::vector<std::size_t>& up) const {
    std::size_t target = up[0];
    for (std::size_t g : up) {
      if (gpu_outstanding[g] < gpu_outstanding[target]) target = g;
    }
    return target;
  }

  /**
   * Picks a GPU among those live right now: up per the fault plan,
   * admitted by the circuit breaker, and (with a bounded queue) below
   * queue_cap. kPoolDown means retry later (an outage or cooldown may
   * end); kQueueFull means admission control sheds the job. Sets
   * *degraded_decision when a predicted-least-load decision had to fall
   * back to least-outstanding because predictions are missing or
   * non-finite.
   */
  PickOutcome PickTarget(std::size_t job, std::size_t* target,
                         bool* degraded_decision) {
    *degraded_decision = false;
    const double now = queue.NowUs();
    std::vector<char>& live = live_scratch;
    std::vector<std::size_t>& candidates = candidate_scratch;
    std::fill(live.begin(), live.end(), 0);
    candidates.clear();
    bool any_live = false;
    for (std::size_t g = 0; g < gpus; ++g) {
      if (plan.IsDownAt(g, now) || !breakers[g].AllowsAt(now)) continue;
      any_live = true;
      if (config.queue_cap > 0 && gpu_outstanding[g] >= config.queue_cap) {
        continue;  // live but full: bounded queue rejects new work
      }
      live[g] = 1;
      candidates.push_back(g);
    }
    if (candidates.empty()) {
      return any_live ? PickOutcome::kQueueFull : PickOutcome::kPoolDown;
    }

    switch (config.policy) {
      case DispatchPolicy::kRoundRobin: {
        // Probe from the cursor for the first live GPU; fault-free this
        // is exactly `round_robin_next++ % gpus`.
        const int start = round_robin_next++;
        for (std::size_t i = 0; i < gpus; ++i) {
          const std::size_t g =
              (static_cast<std::size_t>(start) + i) % gpus;
          if (live[g]) {
            *target = g;
            return PickOutcome::kOk;
          }
        }
        *target = candidates[0];
        return PickOutcome::kOk;
      }
      case DispatchPolicy::kLeastOutstanding:
        *target = LeastOutstanding(candidates);
        return PickOutcome::kOk;
      case DispatchPolicy::kPredictedLeastLoad: {
        bool usable = !predicted.empty();
        if (usable) {
          for (std::size_t g : candidates) {
            if (!std::isfinite(predicted[job][g])) {
              usable = false;
              break;
            }
          }
        }
        if (!usable) {
          // Graceful degradation: serve with the best model-free policy
          // rather than failing the dispatch.
          *degraded_decision = true;
          *target = LeastOutstanding(candidates);
          return PickOutcome::kOk;
        }
        double best = 1e300;
        *target = candidates[0];
        for (std::size_t g : candidates) {
          const double finish = std::max(gpu_predicted_free[g], now) +
                                predicted[job][g];
          if (finish < best) {
            best = finish;
            *target = g;
          }
        }
        return PickOutcome::kOk;
      }
    }
    GP_CHECK(false);
    return PickOutcome::kPoolDown;
  }

  /** args body shared by every trace event of one job attempt. */
  std::string TraceArgs(std::size_t id, std::size_t job, int attempt) const {
    return Format("\"id\":%zu,\"job\":%zu,\"attempt\":%d", id, job, attempt);
  }

  /**
   * The one place an outcome is counted: the tally ServingResult and
   * the registry derive from, the recorder channel when a recorder is
   * attached, and — for outcomes with an instant — a tracer instant on
   * `track` at the current sim time, its args the job attempt's
   * TraceArgs plus `args_suffix`.
   */
  void Emit(Outcome outcome, int track = 0, std::size_t id = 0,
            std::size_t job = 0, int attempt = 0,
            std::string_view args_suffix = {}) {
    const auto o = static_cast<std::size_t>(outcome);
    ++tally[o];
    if (recorder != nullptr) recorder->Count(ch_outcomes[o]);
    if (tracer != nullptr && kOutcomes[o].instant != nullptr) {
      std::string args = TraceArgs(id, job, attempt);
      args += args_suffix;
      tracer->Instant(track, kOutcomes[o].instant, kOutcomes[o].category,
                      queue.NowUs(), std::move(args));
    }
  }

  /** Drops the job or schedules its next attempt after the backoff. */
  void RetryOrDrop(std::size_t id, std::size_t job, double arrival,
                   int attempt) {
    if (attempt >= config.retry.max_retries) {
      Emit(Outcome::kDropped, 0, id, job, attempt);
      return;
    }
    if (config.retry_budget > 0 && retry_tokens < 1.0) {
      // Token bucket empty: a mass failure has outrun the completions
      // that refill it. Dropping here is what breaks the retry-storm
      // metastable state — the drop is final, not deferred load.
      Emit(Outcome::kRetrySuppressed);
      Emit(Outcome::kDropped, 0, id, job, attempt,
           ",\"reason\":\"retry-budget\"");
      return;
    }
    if (config.retry_budget > 0) retry_tokens -= 1.0;
    const double at = queue.NowUs() + RetryDelayUs(attempt);
    Emit(Outcome::kRetry, 0, id, job, attempt,
         tracer != nullptr ? Format(",\"next_at_us\":%.3f", at)
                           : std::string());
    queue.Schedule(at, [this, id, job, arrival, attempt] {
      Dispatch(id, job, arrival, attempt + 1);
    });
  }

  /** One dispatch attempt of `job` (attempt 0 = first try). */
  void Dispatch(std::size_t id, std::size_t job, double arrival,
                int attempt) {
    std::size_t target = 0;
    bool degraded_decision = false;
    switch (PickTarget(job, &target, &degraded_decision)) {
      case PickOutcome::kPoolDown:
        // Whole pool down: detection timeout + backoff, like a failure.
        RetryOrDrop(id, job, arrival, attempt);
        return;
      case PickOutcome::kQueueFull:
        // Admission control: every live queue is at capacity. Shedding
        // now is cheaper than queueing into a deadline miss.
        Emit(Outcome::kShed, 0, id, job, attempt,
             ",\"reason\":\"queue-full\"");
        return;
      case PickOutcome::kOk:
        break;
    }

    const double now = queue.NowUs();
    // Prediction-driven load shedding: when the model already knows the
    // deadline is hopeless on the best available GPU, reject at
    // admission instead of wasting service time on a guaranteed miss.
    if (config.slo_ms > 0 && !predicted.empty() &&
        std::isfinite(predicted[job][target])) {
      const double predicted_latency_ms =
          (std::max(gpu_predicted_free[target], now) +
           predicted[job][target] - arrival) /
          1e3;
      if (predicted_latency_ms > config.slo_ms) {
        Emit(Outcome::kShed, 0, id, job, attempt,
             ",\"reason\":\"predicted-slo-miss\"");
        return;
      }
    }

    ++dispatches;
    if (degraded_decision) ++degraded;
    breakers[target].OnDispatch(now);

    const double start = std::max(gpu_free[target], now);
    const double service = ServiceTime(job, target, start);
    if (!predicted.empty() && std::isfinite(predicted[job][target])) {
      gpu_predicted_free[target] =
          std::max(gpu_predicted_free[target], now) + predicted[job][target];
    }
    ++gpu_outstanding[target];
    ++outstanding_total;
    if (recorder != nullptr) RecordQueueDepth();
    const int track = static_cast<int>(target) + 1;
    if (tracer != nullptr && start > now) {
      tracer->Span(track, "queued", "queue", now, start,
                   TraceArgs(id, job, attempt));
    }

    // One leg on `target`: either it completes at start + service, or
    // the GPU fails under it mid-job (or while it is queued) and the
    // partial work is wasted. Both outcomes are known now; committing
    // the GPU timeline here keeps later dispatch decisions consistent.
    const DownInterval* outage =
        plan.FirstOutageIn(target, start, start + service);
    const bool fails = outage != nullptr;
    const double leg_end =
        fails ? std::max(start, outage->down_us) : start + service;
    gpu_busy[target] += leg_end - start;
    gpu_free[target] = leg_end;
    if (tracer != nullptr) {
      tracer->Span(track, Format("job %zu", job), "service", start, leg_end,
                   TraceArgs(id, job, attempt) +
                       (fails ? std::string(",\"outcome\":\"failed\"")
                              : Format(",\"wait_us\":%.3f", start - now)));
    }

    // Hedged dispatch: if the job will still be running once it has
    // exceeded its predicted time by the trigger factor, revisit it
    // then — the dispatcher cannot tell "slow" from "dying", so it
    // duplicates the work instead of guessing.
    if (config.hedge_trigger_factor > 0 && !predicted.empty() &&
        std::isfinite(predicted[job][target])) {
      const double trigger =
          start + predicted[job][target] * config.hedge_trigger_factor;
      if (trigger < leg_end) {
        queue.Schedule(trigger, [this, id, job, arrival, attempt, target,
                                 start, service, leg_end, fails] {
          HedgeCheck(id, job, arrival, attempt, target, start, service,
                     leg_end, fails);
        });
        return;
      }
    }
    if (fails) {
      ScheduleLegFailure(id, job, arrival, attempt, target, leg_end,
                         /*retry=*/true);
    } else {
      ScheduleLegCompletion(job, target, arrival, start, service, leg_end);
    }
  }

  /**
   * The hedge trigger fired while the primary leg is still running:
   * duplicate the job onto a second GPU picked live right now (primary
   * excluded; least-outstanding — the model already voted for the
   * primary, the hedge buys diversity). First completion wins; the
   * loser is cancelled and its unspent tail refunded. A hedge landing
   * on a half-open breaker claims that breaker's probe slot exactly
   * like a normal dispatch.
   */
  void HedgeCheck(std::size_t id, std::size_t job, double arrival,
                  int attempt, std::size_t primary, double primary_start,
                  double primary_service, double primary_end,
                  bool primary_fails) {
    const double now = queue.NowUs();
    std::vector<std::size_t>& candidates = candidate_scratch;
    candidates.clear();
    for (std::size_t g = 0; g < gpus; ++g) {
      if (g == primary) continue;
      if (plan.IsDownAt(g, now) || !breakers[g].AllowsAt(now)) continue;
      if (config.queue_cap > 0 && gpu_outstanding[g] >= config.queue_cap) {
        continue;
      }
      candidates.push_back(g);
    }
    if (candidates.empty()) {
      // No second GPU to hedge onto: the job continues unhedged.
      if (primary_fails) {
        ScheduleLegFailure(id, job, arrival, attempt, primary, primary_end,
                           /*retry=*/true);
      } else {
        ScheduleLegCompletion(job, primary, arrival, primary_start,
                              primary_service, primary_end);
      }
      return;
    }

    const std::size_t hedge = LeastOutstanding(candidates);
    Emit(Outcome::kHedgeIssued);
    breakers[hedge].OnDispatch(now);
    ++gpu_outstanding[hedge];
    ++outstanding_total;
    if (recorder != nullptr) RecordQueueDepth();
    const double hedge_start = std::max(gpu_free[hedge], now);
    const double hedge_service = ServiceTime(job, hedge, hedge_start);
    const DownInterval* outage =
        plan.FirstOutageIn(hedge, hedge_start, hedge_start + hedge_service);
    const bool hedge_fails = outage != nullptr;
    const double hedge_end = hedge_fails
                                 ? std::max(hedge_start, outage->down_us)
                                 : hedge_start + hedge_service;
    gpu_busy[hedge] += hedge_end - hedge_start;
    gpu_free[hedge] = hedge_end;
    if (tracer != nullptr) {
      tracer->Span(static_cast<int>(hedge) + 1, Format("job %zu", job),
                   "hedge", hedge_start, hedge_end,
                   TraceArgs(id, job, attempt) +
                       (hedge_fails ? ",\"outcome\":\"failed\"" : ""));
    }

    if (primary_fails && hedge_fails) {
      // Both legs die; the later failure carries the retry so the job
      // is re-dispatched exactly once.
      const bool primary_last = primary_end >= hedge_end;
      ScheduleLegFailure(id, job, arrival, attempt, primary, primary_end,
                         /*retry=*/primary_last);
      ScheduleLegFailure(id, job, arrival, attempt, hedge, hedge_end,
                         /*retry=*/!primary_last);
      return;
    }
    if (primary_fails) {
      // The hedge saves the job: the primary's failure still feeds its
      // breaker, but no retry is needed.
      Emit(Outcome::kHedgeWon);
      ScheduleLegFailure(id, job, arrival, attempt, primary, primary_end,
                         /*retry=*/false);
      ScheduleLegCompletion(job, hedge, arrival, hedge_start, hedge_service,
                            hedge_end);
      return;
    }
    if (hedge_fails) {
      ScheduleLegFailure(id, job, arrival, attempt, hedge, hedge_end,
                         /*retry=*/false);
      ScheduleLegCompletion(job, primary, arrival, primary_start,
                            primary_service, primary_end);
      return;
    }
    if (hedge_end < primary_end) {
      Emit(Outcome::kHedgeWon);
      ScheduleLegCompletion(job, hedge, arrival, hedge_start, hedge_service,
                            hedge_end);
      ScheduleLegCancel(id, job, attempt, primary, primary_start,
                        primary_end, hedge_end);
    } else {
      ScheduleLegCompletion(job, primary, arrival, primary_start,
                            primary_service, primary_end);
      ScheduleLegCancel(id, job, attempt, hedge, hedge_start, hedge_end,
                        primary_end);
    }
  }

  /** Schedules one leg's failure bookkeeping at `fail_at`; when `retry`
   *  is set the job re-enters the retry path (no leg survived). */
  void ScheduleLegFailure(std::size_t id, std::size_t job, double arrival,
                          int attempt, std::size_t gpu, double fail_at,
                          bool retry) {
    queue.Schedule(fail_at, [this, id, job, arrival, attempt, gpu, retry] {
      --gpu_outstanding[gpu];
      --outstanding_total;
      if (recorder != nullptr) RecordQueueDepth();
      const std::int64_t opens_before = breakers[gpu].opens();
      breakers[gpu].OnFailure(queue.NowUs());
      if (breakers[gpu].opens() > opens_before) {
        Emit(Outcome::kBreakerOpen, static_cast<int>(gpu) + 1, id, job,
             attempt);
      }
      if (retry) RetryOrDrop(id, job, arrival, attempt);
    });
  }

  /** Schedules the winning leg's completion bookkeeping at `leg_end`. */
  void ScheduleLegCompletion(std::size_t job, std::size_t gpu,
                             double arrival, double leg_start,
                             double service, double leg_end) {
    queue.Schedule(leg_end, [this, job, gpu, arrival, leg_start, service] {
      const double latency_ms = (queue.NowUs() - arrival) / 1e3;
      latencies_ms.push_back(latency_ms);
      --gpu_outstanding[gpu];
      --outstanding_total;
      breakers[gpu].OnSuccess(queue.NowUs());
      observed_service_us.push_back(service);
      Emit(Outcome::kCompleted);
      if (recorder != nullptr) {
        RecordQueueDepth();
        recorder->Observe(ch_latency_ms, latency_ms);
        if (!predicted.empty() && std::isfinite(predicted[job][gpu]) &&
            predicted[job][gpu] > 0) {
          // Per-completion residual: the signal the drift monitor and
          // `gpuperf explain` attribution both key on.
          recorder->Observe(ch_residual_pct,
                            std::abs(service - predicted[job][gpu]) /
                                predicted[job][gpu] * 100.0);
        }
      }
      if (config.retry_budget > 0) {
        retry_tokens = std::min(config.retry_budget_burst,
                                retry_tokens + config.retry_budget);
      }
      if (config.slo_ms > 0 && latency_ms > config.slo_ms) {
        Emit(Outcome::kDeadlineMiss);
      }
      if (config.record_observations) {
        const double predicted_us =
            !predicted.empty() && std::isfinite(predicted[job][gpu])
                ? predicted[job][gpu]
                : std::numeric_limits<double>::quiet_NaN();
        observations.push_back({job, gpu, config.time_origin_us + leg_start,
                                service, predicted_us});
      }
    });
  }

  /**
   * Cancels the losing leg at `at` (the winner's completion time). The
   * unspent tail is refunded only when nothing queued behind the leg —
   * `gpu_free` still equals the leg's end — otherwise the capacity is
   * already committed and the leg just runs out. The breaker sees a
   * cancellation, not a verdict: a cancelled half-open probe releases
   * its slot instead of wedging the breaker.
   */
  void ScheduleLegCancel(std::size_t id, std::size_t job, int attempt,
                         std::size_t gpu, double leg_start, double leg_end,
                         double at) {
    queue.Schedule(at, [this, id, job, attempt, gpu, leg_start, leg_end] {
      const double now = queue.NowUs();
      if (gpu_free[gpu] == leg_end) {
        const double stop = std::clamp(now, leg_start, leg_end);
        gpu_busy[gpu] -= leg_end - stop;
        gpu_free[gpu] = stop;
      }
      --gpu_outstanding[gpu];
      --outstanding_total;
      if (recorder != nullptr) RecordQueueDepth();
      breakers[gpu].OnCancel(now);
      if (tracer != nullptr) {
        tracer->Instant(static_cast<int>(gpu) + 1, "hedge-cancel", "hedge",
                        now, TraceArgs(id, job, attempt));
      }
    });
  }
};

Status ValidateInputs(const std::vector<std::vector<double>>& true_service_us,
                      const std::vector<std::vector<double>>& predicted,
                      const std::vector<double>& job_mix,
                      const ServingConfig& config) {
  if (true_service_us.empty()) {
    return InvalidArgumentError("true_service_us is empty (no job types)");
  }
  const std::size_t gpus = true_service_us[0].size();
  if (gpus == 0) {
    return InvalidArgumentError("true_service_us has no GPUs (empty pool)");
  }
  for (std::size_t j = 0; j < true_service_us.size(); ++j) {
    if (true_service_us[j].size() != gpus) {
      return InvalidArgumentError(Format(
          "true_service_us row %zu has %zu GPUs, row 0 has %zu", j,
          true_service_us[j].size(), gpus));
    }
    for (std::size_t g = 0; g < gpus; ++g) {
      const double t = true_service_us[j][g];
      if (!std::isfinite(t) || t <= 0) {
        return InvalidArgumentError(Format(
            "true_service_us[%zu][%zu] = %g is not a positive finite time",
            j, g, t));
      }
    }
  }
  // predicted may be empty (no model: predicted-least-load degrades), but
  // when present it must match the truth's shape. Non-finite *values* are
  // allowed — they degrade the affected decisions instead.
  if (!predicted.empty()) {
    if (predicted.size() != true_service_us.size()) {
      return InvalidArgumentError(Format(
          "predicted_service_us has %zu job types, true_service_us has %zu",
          predicted.size(), true_service_us.size()));
    }
    for (std::size_t j = 0; j < predicted.size(); ++j) {
      if (predicted[j].size() != gpus) {
        return InvalidArgumentError(Format(
            "predicted_service_us row %zu has %zu GPUs, expected %zu", j,
            predicted[j].size(), gpus));
      }
    }
  }
  if (job_mix.size() != true_service_us.size()) {
    return InvalidArgumentError(
        Format("job_mix has %zu entries, true_service_us has %zu job types",
               job_mix.size(), true_service_us.size()));
  }
  double mix_total = 0;
  for (std::size_t j = 0; j < job_mix.size(); ++j) {
    if (!std::isfinite(job_mix[j]) || job_mix[j] < 0) {
      return InvalidArgumentError(Format(
          "job_mix[%zu] = %g is not a non-negative finite weight", j,
          job_mix[j]));
    }
    mix_total += job_mix[j];
  }
  if (mix_total <= 0) {
    return InvalidArgumentError("job_mix sums to zero (no job can arrive)");
  }
  if (!std::isfinite(config.arrival_rate_per_s) ||
      config.arrival_rate_per_s <= 0) {
    return InvalidArgumentError(
        Format("arrival_rate_per_s = %g must be positive and finite",
               config.arrival_rate_per_s));
  }
  if (!std::isfinite(config.duration_s) || config.duration_s <= 0) {
    return InvalidArgumentError(Format(
        "duration_s = %g must be positive and finite", config.duration_s));
  }
  if (!std::isfinite(config.faults.mtbf_s) || config.faults.mtbf_s < 0) {
    return InvalidArgumentError(Format(
        "faults.mtbf_s = %g must be non-negative and finite (0 disables "
        "fault injection)",
        config.faults.mtbf_s));
  }
  if (config.faults.mtbf_s > 0 &&
      (!std::isfinite(config.faults.mttr_s) || config.faults.mttr_s < 0)) {
    return InvalidArgumentError(Format(
        "faults.mttr_s = %g must be non-negative and finite when faults "
        "are enabled (0 = instant repair)",
        config.faults.mttr_s));
  }
  if (config.fault_plan != nullptr &&
      config.fault_plan->resources() < gpus) {
    return InvalidArgumentError(Format(
        "fault_plan covers %zu resources, pool has %zu GPUs",
        config.fault_plan->resources(), gpus));
  }
  if (config.drift != nullptr && !config.drift->empty() &&
      config.drift->resources() < gpus) {
    return InvalidArgumentError(
        Format("drift schedule covers %zu resources, pool has %zu GPUs",
               config.drift->resources(), gpus));
  }
  if (!std::isfinite(config.time_origin_us) || config.time_origin_us < 0) {
    return InvalidArgumentError(Format(
        "time_origin_us = %g must be non-negative and finite",
        config.time_origin_us));
  }
  if (config.drift_memory_share != nullptr) {
    const std::vector<std::vector<double>>& share =
        *config.drift_memory_share;
    if (share.size() != true_service_us.size()) {
      return InvalidArgumentError(Format(
          "drift_memory_share has %zu job types, true_service_us has %zu",
          share.size(), true_service_us.size()));
    }
    for (std::size_t j = 0; j < share.size(); ++j) {
      if (share[j].size() != gpus) {
        return InvalidArgumentError(Format(
            "drift_memory_share row %zu has %zu GPUs, expected %zu", j,
            share[j].size(), gpus));
      }
      for (std::size_t g = 0; g < gpus; ++g) {
        const double s = share[j][g];
        if (!std::isfinite(s) || s < 0 || s > 1) {
          return InvalidArgumentError(Format(
              "drift_memory_share[%zu][%zu] = %g is not in [0, 1]", j, g,
              s));
        }
      }
    }
  }
  if (config.retry.max_retries < 0) {
    return InvalidArgumentError(Format(
        "retry.max_retries = %d must be non-negative",
        config.retry.max_retries));
  }
  const RetryPolicy& r = config.retry;
  if (!std::isfinite(r.detect_timeout_ms) || r.detect_timeout_ms < 0 ||
      !std::isfinite(r.backoff_base_ms) || r.backoff_base_ms < 0 ||
      !std::isfinite(r.backoff_cap_ms) || r.backoff_cap_ms < 0) {
    return InvalidArgumentError(Format(
        "retry timeouts (detect %g ms, backoff base %g ms, cap %g ms) must "
        "be non-negative and finite",
        r.detect_timeout_ms, r.backoff_base_ms, r.backoff_cap_ms));
  }
  if (config.queue_cap < 0) {
    return InvalidArgumentError(
        Format("queue_cap = %d must be non-negative (0 disables the "
               "bounded queue)",
               config.queue_cap));
  }
  if (!std::isfinite(config.slo_ms) || config.slo_ms < 0) {
    return InvalidArgumentError(Format(
        "slo_ms = %g must be non-negative and finite (0 disables the SLO)",
        config.slo_ms));
  }
  if (!std::isfinite(config.hedge_trigger_factor) ||
      config.hedge_trigger_factor < 0) {
    return InvalidArgumentError(Format(
        "hedge_trigger_factor = %g must be non-negative and finite (0 "
        "disables hedging)",
        config.hedge_trigger_factor));
  }
  if (!std::isfinite(config.retry_budget) || config.retry_budget < 0) {
    return InvalidArgumentError(Format(
        "retry_budget = %g must be non-negative and finite (0 disables "
        "the retry budget)",
        config.retry_budget));
  }
  if (config.retry_budget > 0 &&
      (!std::isfinite(config.retry_budget_burst) ||
       config.retry_budget_burst < 1)) {
    return InvalidArgumentError(Format(
        "retry_budget_burst = %g must be >= 1 and finite when the retry "
        "budget is enabled",
        config.retry_budget_burst));
  }
  if (!std::isfinite(config.adaptive_detect_quantile) ||
      config.adaptive_detect_quantile < 0 ||
      config.adaptive_detect_quantile > 1) {
    return InvalidArgumentError(Format(
        "adaptive_detect_quantile = %g must be in [0, 1] (0 disables "
        "adaptive detection)",
        config.adaptive_detect_quantile));
  }
  if (config.adaptive_detect_quantile > 0 &&
      (!std::isfinite(config.adaptive_detect_multiplier) ||
       config.adaptive_detect_multiplier <= 0)) {
    return InvalidArgumentError(Format(
        "adaptive_detect_multiplier = %g must be positive and finite",
        config.adaptive_detect_multiplier));
  }
  const ChaosPlanConfig& chaos = config.chaos;
  if (!std::isfinite(chaos.gray_mtbf_s) || chaos.gray_mtbf_s < 0) {
    return InvalidArgumentError(Format(
        "chaos.gray_mtbf_s = %g must be non-negative and finite",
        chaos.gray_mtbf_s));
  }
  if (chaos.gray_mtbf_s > 0) {
    if (!std::isfinite(chaos.gray_mttr_s) || chaos.gray_mttr_s < 0) {
      return InvalidArgumentError(Format(
          "chaos.gray_mttr_s = %g must be non-negative and finite",
          chaos.gray_mttr_s));
    }
    if (!std::isfinite(chaos.gray_factor) || chaos.gray_factor <= 1) {
      return InvalidArgumentError(Format(
          "chaos.gray_factor = %g must be > 1 (a slowdown)",
          chaos.gray_factor));
    }
  }
  if (!std::isfinite(chaos.flap_mtbf_s) || chaos.flap_mtbf_s < 0) {
    return InvalidArgumentError(Format(
        "chaos.flap_mtbf_s = %g must be non-negative and finite",
        chaos.flap_mtbf_s));
  }
  if (chaos.flap_mtbf_s > 0 &&
      (chaos.flap_count < 1 || !std::isfinite(chaos.flap_period_s) ||
       chaos.flap_period_s <= 0 || !std::isfinite(chaos.flap_down_s) ||
       chaos.flap_down_s < 0)) {
    return InvalidArgumentError(Format(
        "chaos flap parameters (count %d, period %g s, down %g s) must be "
        "count >= 1, period > 0, down >= 0",
        chaos.flap_count, chaos.flap_period_s, chaos.flap_down_s));
  }
  const struct {
    const char* name;
    const ChaosDomainConfig& domain;
  } levels[] = {{"host", chaos.host}, {"rack", chaos.rack}};
  for (const auto& level : levels) {
    const ChaosDomainConfig& d = level.domain;
    if (!std::isfinite(d.mtbf_s) || d.mtbf_s < 0 ||
        !std::isfinite(d.mttr_s) || d.mttr_s < 0) {
      return InvalidArgumentError(Format(
          "chaos.%s MTBF/MTTR (%g s / %g s) must be non-negative and "
          "finite",
          level.name, d.mtbf_s, d.mttr_s));
    }
    if (!std::isfinite(d.factor) || (d.factor != 0 && d.factor <= 1)) {
      return InvalidArgumentError(Format(
          "chaos.%s factor = %g must be 0 (outage) or > 1 (slowdown)",
          level.name, d.factor));
    }
    if (d.first_event_at_s >= 0 && !std::isfinite(d.first_event_at_s)) {
      return InvalidArgumentError(Format(
          "chaos.%s first_event_at_s = %g must be finite", level.name,
          d.first_event_at_s));
    }
  }
  if (config.chaos_plan != nullptr &&
      config.chaos_plan->resources() < gpus) {
    return InvalidArgumentError(Format(
        "chaos_plan covers %zu resources, pool has %zu GPUs",
        config.chaos_plan->resources(), gpus));
  }
  const BreakerPolicy& b = config.breaker;
  if (b.failure_threshold < 0) {
    return InvalidArgumentError(
        Format("breaker.failure_threshold = %d must be non-negative (0 "
               "disables the breaker)",
               b.failure_threshold));
  }
  if (b.failure_threshold > 0) {
    if (!std::isfinite(b.cooldown_ms) || b.cooldown_ms < 0) {
      return InvalidArgumentError(Format(
          "breaker.cooldown_ms = %g must be non-negative and finite",
          b.cooldown_ms));
    }
    if (b.half_open_probes < 1) {
      return InvalidArgumentError(Format(
          "breaker.half_open_probes = %d must be at least 1",
          b.half_open_probes));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ServingResult> SimulateServing(
    const std::vector<std::vector<double>>& true_service_us,
    const std::vector<std::vector<double>>& predicted_service_us,
    const std::vector<double>& job_mix, const ServingConfig& config,
    obs::SpanTracer* tracer) {
  GP_RETURN_IF_ERROR(ValidateInputs(true_service_us, predicted_service_us,
                                    job_mix, config));
  const std::size_t gpus = true_service_us[0].size();
  const double horizon_us = config.duration_s * 1e6;
  // Resolve the module's instruments (and the breaker transition hook)
  // before any breaker can trip, not just at result-recording time.
  ServingMetrics::Get();

  FaultPlan base_plan = config.fault_plan != nullptr
                            ? *config.fault_plan
                            : FaultPlan(gpus, horizon_us, config.faults);
  // Compose the chaos timeline on top of the base outage plan; the
  // merged outages become the sim's plan and the slowdown timeline is
  // queried per dispatch.
  ChaosPlan chaos_local;
  const ChaosPlan* chaos = config.chaos_plan;
  if (chaos == nullptr && ChaosConfigEnabled(config.chaos)) {
    chaos_local = ChaosPlan(gpus, horizon_us, config.chaos, &base_plan);
    chaos = &chaos_local;
  }
  Sim sim(true_service_us, predicted_service_us, config, gpus,
          chaos != nullptr ? chaos->outage_plan() : std::move(base_plan));
  sim.chaos = chaos;
  sim.retry_tokens = config.retry_budget_burst;
  sim.tracer = tracer;
  sim.recorder = config.recorder;
  const long long origin_ll = std::llround(config.time_origin_us);
  if (sim.recorder != nullptr) {
    obs::FlightRecorder& rec = *sim.recorder;
    rec.Start(origin_ll);
    // Registering every channel up front serves double duty: each frame
    // carries the full, stable channel set from the first window on (a
    // no-op on later epochs), and the cached handles keep the by-name
    // map lookup off the per-event hot path.
    for (std::size_t o = 0; o < kOutcomeCount; ++o) {
      sim.ch_outcomes[o] = rec.CounterChannel(kOutcomes[o].family);
    }
    sim.ch_queue_depth = rec.GaugeChannel("gpuperf_serving_queue_depth");
    rec.SetGauge(sim.ch_queue_depth, 0);
    sim.ch_latency_ms =
        rec.SketchChannel("gpuperf_serving_latency_ms",
                          {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
    sim.ch_residual_pct = rec.SketchChannel("gpuperf_serving_residual_pct",
                                            {1, 2, 5, 10, 20, 50, 100});
  }
  if (tracer != nullptr) {
    tracer->SetTrackName(0, "dispatcher");
    for (std::size_t g = 0; g < gpus; ++g) {
      tracer->SetTrackName(static_cast<int>(g) + 1, Format("gpu %zu", g));
    }
  }

  double mix_total = 0;
  for (double w : job_mix) mix_total += w;

  // Draw the whole arrival plan first (the rng stream is the
  // simulation's input), then let the queue hold one arrival at a time.
  Rng rng(config.seed);
  double next_arrival = 0;
  while (true) {
    // Exponential inter-arrival times.
    next_arrival +=
        -std::log(1.0 - rng.NextDouble()) / config.arrival_rate_per_s * 1e6;
    if (next_arrival > horizon_us) break;

    // Sample the job type from the mix.
    double pick = rng.NextDouble() * mix_total;
    std::size_t job = 0;
    for (; job + 1 < job_mix.size(); ++job) {
      if (pick < job_mix[job]) break;
      pick -= job_mix[job];
    }

    sim.arrivals.push_back({next_arrival, job});
  }
  // Reserved before anything else is scheduled: arrival i takes
  // sequence i, and every other event a larger one.
  sim.first_arrival_sequence = sim.queue.ReserveSequences(
      static_cast<std::int64_t>(sim.arrivals.size()));
  if (!sim.arrivals.empty()) sim.ScheduleArrival(0);
  if (sim.recorder == nullptr) {
    sim.queue.Run();
  } else {
    // Lazy window advancement: run every event with a (floored)
    // timestamp inside the open window in one tight chunk, close the
    // due windows at the boundary, repeat. An event at queue time t
    // ticks the recorder iff origin + floor(t) >= next close, i.e.
    // t >= next_close - origin, so RunUntil's strict `<` fires exactly
    // the events that must precede the close. The recorder never
    // schedules events of its own, so EventQueue sequence numbers —
    // and therefore same-timestamp ordering and the simulation
    // result — are untouched. The next arrival is always queued, so
    // NextTimeUs() is the true next event even with arrivals inserted
    // lazily.
    while (!sim.queue.empty()) {
      sim.queue.RunUntil(
          static_cast<double>(sim.recorder->next_close_us() - origin_ll));
      if (sim.queue.empty()) break;
      sim.recorder->AdvanceTo(
          origin_ll +
          static_cast<long long>(std::floor(sim.queue.NextTimeUs())));
    }
    sim.recorder->FinishAt(
        origin_ll +
        std::max(std::llround(horizon_us),
                 static_cast<long long>(std::ceil(sim.queue.NowUs()))));
  }

  ServingResult result;
  for (std::size_t o = 0; o < kOutcomeCount; ++o) {
    result.*kOutcomes[o].field = sim.tally[o];
  }
  result.dispatches = sim.dispatches;
  result.degraded_dispatches = sim.degraded;
  result.degraded_dispatch_fraction =
      sim.dispatches > 0
          ? static_cast<double>(sim.degraded) / sim.dispatches
          : 0.0;
  const std::size_t arrivals = sim.arrivals.size();
  result.slo_attainment =
      arrivals > 0 ? static_cast<double>(result.completed -
                                         result.deadline_misses) /
                         static_cast<double>(arrivals)
                   : 1.0;
  if (!sim.latencies_ms.empty()) {
    result.p50_ms = Percentile(sim.latencies_ms, 50);
    result.p95_ms = Percentile(sim.latencies_ms, 95);
    result.p99_ms = Percentile(sim.latencies_ms, 99);
    result.mean_ms = Mean(sim.latencies_ms);
  }
  const double end = std::max(sim.queue.NowUs(), 1.0);
  for (std::size_t g = 0; g < gpus; ++g) {
    result.gpu_utilization.push_back(sim.gpu_busy[g] / end);
    result.gpu_availability.push_back(sim.plan.Availability(g));
    if (sim.breakers[g].StateAt(end) == BreakerState::kOpen) {
      ++result.breakers_open_at_end;
    }
  }
  result.observations = std::move(sim.observations);
  RecordSimulation(result, arrivals, sim.latencies_ms);
  return result;
}

std::vector<StatusOr<ServingResult>> SimulateServingGrid(
    const std::vector<std::vector<double>>& true_service_us,
    const std::vector<std::vector<double>>& predicted_service_us,
    const std::vector<double>& job_mix, const ServingConfig& base_config,
    const std::vector<ServingGridCell>& cells, int jobs,
    obs::ChromeTraceWriter* trace_out, obs::FlightTimeline* timeline_out,
    const std::string& label_prefix) {
  std::vector<StatusOr<ServingResult>> results(
      cells.size(), InternalError("simulation did not run"));
  // Per-cell tracers and flight recorders, recorded in parallel and
  // merged serially below — the same pre-sized-slot pattern as
  // `results`, so trace and timeline bytes never depend on `jobs`.
  std::vector<obs::SpanTracer> tracers(
      trace_out != nullptr ? cells.size() : 0);
  std::vector<obs::FlightRecorder> recorders;
  if (timeline_out != nullptr) {
    recorders.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      recorders.emplace_back(base_config.recorder_config);
    }
  }
  ThreadPool pool(jobs);
  pool.ParallelFor(cells.size(), [&](std::size_t i) {
    ServingConfig config = base_config;
    config.policy = cells[i].policy;
    config.seed = cells[i].seed;
    config.faults.seed = cells[i].seed;
    config.chaos.seed = cells[i].seed;
    config.recorder = timeline_out != nullptr ? &recorders[i] : nullptr;
    results[i] =
        SimulateServing(true_service_us, predicted_service_us, job_mix,
                        config, trace_out != nullptr ? &tracers[i] : nullptr);
  });
  const int first_pid =
      trace_out != nullptr ? trace_out->process_count() + 1 : 1;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string label =
        label_prefix + Format("cell %zu: %s seed %llu", i,
                              DispatchPolicyName(cells[i].policy).c_str(),
                              (unsigned long long)cells[i].seed);
    const int pid = first_pid + static_cast<int>(i);
    if (trace_out != nullptr) tracers[i].AppendTo(trace_out, pid, label);
    if (timeline_out != nullptr) {
      timeline_out->Append(recorders[i], label);
      if (trace_out != nullptr) {
        recorders[i].AppendCounterEvents(trace_out, pid);
      }
    }
  }
  return results;
}

}  // namespace gpuperf::simsys
