#ifndef GPUPERF_COMMON_FAULT_INJECTION_H_
#define GPUPERF_COMMON_FAULT_INJECTION_H_

/**
 * @file
 * Deterministic seed-driven fault plans for fault-tolerance simulations.
 *
 * A fault plan is the complete failure/recovery timeline of a resource
 * pool, generated up front from (seed, MTBF, MTTR) so that a simulation's
 * faults are bit-identical across runs, platforms, and thread counts —
 * the same property the measurement campaign guarantees for profiling.
 * Consumers (simsys/serving) only query the precomputed intervals; they
 * never draw randomness of their own for faults.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpuperf {

/** Knobs of a fault plan; mtbf_s == 0 disables fault injection. */
struct FaultPlanConfig {
  double mtbf_s = 0;   // mean time between failures per resource (0 = none)
  double mttr_s = 2;   // mean time to repair (0 = instant repair)
  std::uint64_t seed = 1;
};

/** One outage: the resource is down in [down_us, up_us). */
struct DownInterval {
  double down_us = 0;
  double up_us = 0;
};

/** One gray-failure episode: service on the resource runs `factor`
 *  times slower in [start_us, end_us). Factors from overlapping
 *  episodes (e.g. a slow GPU inside a slow rack) multiply. */
struct SlowInterval {
  double start_us = 0;
  double end_us = 0;
  double factor = 1;  // > 1
};

/**
 * A position in one resource's outage list (sorted, disjoint), for
 * callers whose clock never goes back: a simulation moves it forward
 * with AdvanceTo(now), past the outages that ended by `now`, and then
 * asks about `now` or any later time without a binary search.
 * FaultPlan's random-access queries position a cursor with SeekTo and
 * run the same query code, so the two entry points agree bit for bit.
 */
class OutageCursor {
 public:
  /** A cursor before every outage of `outages`, which must outlive it. */
  explicit OutageCursor(const std::vector<DownInterval>& outages)
      : outages_(&outages) {}

  /** Skips the outages that ended by `now_us`; `now_us` must never
   *  decrease from one call (or SeekTo) to the next. */
  void AdvanceTo(double now_us) {
    while (next_ < outages_->size() && (*outages_)[next_].up_us <= now_us) {
      ++next_;
    }
  }

  /** Moves to where AdvanceTo(`now_us`) would from the start, by binary
   *  search — for callers whose query times may go back. */
  void SeekTo(double now_us);

  /** True if the resource is down at `time_us` (>= the position). */
  bool IsDownAt(double time_us) const {
    // The window end rounds to `time_us` itself once time_us > ~1.7e7,
    // so from there an outage that begins exactly at `time_us` reads as
    // up; the serving results are pinned to this exact test.
    const DownInterval* outage = FirstOutageIn(time_us, time_us + 1e-9);
    return outage != nullptr && outage->down_us <= time_us;
  }

  /** The first outage overlapping [start_us, end_us) (start_us >= the
   *  position), or nullptr if the resource stays up for the window. */
  const DownInterval* FirstOutageIn(double start_us, double end_us) const {
    // First outage ending after start; it overlaps iff it begins before
    // end. Outage ends are ascending, so the scan never passes it.
    std::size_t i = next_;
    while (i < outages_->size() && (*outages_)[i].up_us <= start_us) ++i;
    if (i == outages_->size() || (*outages_)[i].down_us >= end_us) {
      return nullptr;
    }
    return &(*outages_)[i];
  }

 private:
  const std::vector<DownInterval>* outages_;
  std::size_t next_ = 0;  // first outage not known to have ended
};

/**
 * A position in one GPU's slowdown list (sorted by start_us, possibly
 * overlapping), moved forward like OutageCursor: AdvanceTo(now) skips
 * the leading episodes that all ended by `now`. ChaosPlan::SlowdownAt
 * runs the same product from the list's start.
 */
class SlowdownCursor {
 public:
  /** A cursor before every episode of `slowdowns`, which must outlive
   *  it. */
  explicit SlowdownCursor(const std::vector<SlowInterval>& slowdowns)
      : slowdowns_(&slowdowns) {}

  /** Skips the leading episodes that ended by `now_us`; `now_us` must
   *  never decrease from one call to the next. */
  void AdvanceTo(double now_us) {
    while (next_ < slowdowns_->size() &&
           (*slowdowns_)[next_].end_us <= now_us) {
      ++next_;
    }
  }

  /**
   * Product of the factors of every episode containing `time_us`
   * (>= the position), multiplied in list order. A skipped episode
   * ended by the position, so it could not contain `time_us`.
   */
  double SlowdownAt(double time_us) const {
    double factor = 1;
    for (std::size_t i = next_; i < slowdowns_->size(); ++i) {
      const SlowInterval& s = (*slowdowns_)[i];
      if (s.start_us > time_us) break;
      if (time_us < s.end_us) factor *= s.factor;
    }
    return factor;
  }

 private:
  const std::vector<SlowInterval>* slowdowns_;
  std::size_t next_ = 0;  // every episode before it ended by the position
};

/** The precomputed failure/recovery timeline of a resource pool. */
class FaultPlan {
 public:
  /**
   * Builds the plan for `resources` resources over [0, horizon_us).
   * Failure inter-arrival and repair times are exponential with means
   * MTBF/MTTR, drawn from a per-resource stream keyed on
   * (config.seed, resource index); intervals are disjoint and sorted.
   */
  FaultPlan(std::size_t resources, double horizon_us,
            const FaultPlanConfig& config);

  /** Fault-free plan (no outages, everything available). */
  FaultPlan() = default;

  /**
   * Explicit plan from per-resource outage lists (tests and replay).
   * Each resource's intervals must be non-negative, non-overlapping,
   * and sorted by down_us; zero-length intervals (down_us == up_us,
   * instant repair) are allowed. The first outage may start at t=0.
   */
  FaultPlan(std::vector<std::vector<DownInterval>> outages,
            double horizon_us);

  std::size_t resources() const { return down_.size(); }
  double horizon_us() const { return horizon_us_; }

  /** Outages of `resource`, sorted by down_us. */
  const std::vector<DownInterval>& Outages(std::size_t resource) const;

  /** True if `resource` is down at `time_us`. Random access; a caller
   *  whose clock only moves forward can use an OutageCursor instead. */
  bool IsDownAt(std::size_t resource, double time_us) const;

  /**
   * The first outage of `resource` overlapping [start_us, end_us), or
   * nullptr if the resource stays up for the whole window. Random
   * access, like IsDownAt.
   */
  const DownInterval* FirstOutageIn(std::size_t resource, double start_us,
                                    double end_us) const;

  /** Fraction of [0, horizon) the resource is up (1.0 when fault-free). */
  double Availability(std::size_t resource) const;

 private:
  std::vector<std::vector<DownInterval>> down_;
  double horizon_us_ = 0;
};

/**
 * One level of the failure hierarchy (host or rack). A domain event
 * hits every member GPU at once: with factor == 0 it fells them (a
 * correlated outage), with factor > 1 it slows them (a correlated gray
 * failure). `size` members per domain; 0 disables the level.
 */
struct ChaosDomainConfig {
  std::size_t size = 0;        // members per domain (0 = level disabled)
  double mtbf_s = 0;           // mean time between domain events (0 = none)
  double mttr_s = 2;           // mean event duration (0 = zero-length blip)
  double factor = 0;           // 0 = outage; > 1 = slowdown multiplier
  double first_event_at_s = -1;  // >= 0 pins the first event (tests, replay)
};

/** Knobs of a chaos plan; every channel defaults to off. */
struct ChaosPlanConfig {
  std::uint64_t seed = 1;
  // Gray failures: per-GPU multiplicative slowdown episodes.
  double gray_mtbf_s = 0;    // mean time between episodes per GPU (0 = none)
  double gray_mttr_s = 5;    // mean episode duration
  double gray_factor = 3;    // service-time multiplier while gray (> 1)
  // Flapping: bursts of short outage blips on a single GPU.
  double flap_mtbf_s = 0;    // mean time between bursts per GPU (0 = none)
  int flap_count = 5;        // blips per burst
  double flap_period_s = 0.2;  // start-to-start spacing inside a burst
  double flap_down_s = 0.05;   // length of each blip
  // Hierarchical fault domains: `host.size` GPUs per host,
  // `rack.size` hosts per rack.
  ChaosDomainConfig host;
  ChaosDomainConfig rack;
};

/** True when any chaos channel (gray, flap, host, rack) is active. */
bool ChaosConfigEnabled(const ChaosPlanConfig& config);

/**
 * A composed, fully precomputed chaos timeline for a GPU pool: binary
 * outages (base FaultPlan + flap blips + outage-domain events, merged
 * per GPU) plus multiplicative gray slowdowns (per-GPU episodes and
 * slowdown-domain events, overlaps multiply). Like FaultPlan, every
 * draw comes from a per-channel stream keyed on (seed, channel, index),
 * so the timeline is bit-identical across runs, platforms, and thread
 * counts, and adding a channel never perturbs the others. Consumers
 * query `outage_plan()` wherever they used a FaultPlan and scale
 * service times by `SlowdownAt(gpu, dispatch_time)`.
 */
class ChaosPlan {
 public:
  /** Empty plan: no outages, SlowdownAt() == 1 everywhere. */
  ChaosPlan() = default;

  /**
   * Builds the composed timeline for `gpus` GPUs over [0, horizon_us).
   * `base` contributes pre-existing outages (e.g. the serving layer's
   * uncorrelated MTBF/MTTR plan); pass nullptr for none.
   */
  ChaosPlan(std::size_t gpus, double horizon_us,
            const ChaosPlanConfig& config, const FaultPlan* base);

  std::size_t resources() const { return outage_plan_.resources(); }
  double horizon_us() const { return outage_plan_.horizon_us(); }

  /** The merged binary-outage timeline (always `gpus` resources). */
  const FaultPlan& outage_plan() const { return outage_plan_; }

  /** Gray episodes of `gpu`, sorted by start_us (may overlap). */
  const std::vector<SlowInterval>& Slowdowns(std::size_t gpu) const;

  /**
   * Product of the factors of every episode containing `time_us`: a
   * SlowdownCursor's product from the first episode. Episodes may
   * overlap, so their ends are not sorted and there is no binary search
   * for a later start; a caller whose clock only moves forward keeps a
   * SlowdownCursor instead.
   */
  double SlowdownAt(std::size_t gpu, double time_us) const;

  /** True if no channel produced any outage or slowdown. */
  bool empty() const;

 private:
  FaultPlan outage_plan_;
  std::vector<std::vector<SlowInterval>> slow_;
};

}  // namespace gpuperf

#endif  // GPUPERF_COMMON_FAULT_INJECTION_H_
