#include "common/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace gpuperf {

FaultPlan::FaultPlan(std::size_t resources, double horizon_us,
                     const FaultPlanConfig& config)
    : horizon_us_(horizon_us) {
  GP_CHECK_GE(config.mtbf_s, 0.0);
  GP_CHECK_GE(horizon_us, 0.0);
  down_.resize(resources);
  if (config.mtbf_s <= 0) return;
  // MTTR 0 is instant repair: every outage is a zero-length blip that
  // still fails jobs in flight across it.
  GP_CHECK_GE(config.mttr_s, 0.0);
  const double mtbf_us = config.mtbf_s * 1e6;
  const double mttr_us = config.mttr_s * 1e6;
  for (std::size_t r = 0; r < resources; ++r) {
    // Per-resource stream keyed on (seed, index) so adding a resource
    // never perturbs the outages of the existing ones.
    Rng rng(HashCombine(config.seed,
                        StableHash(Format("fault-resource-%zu", r))));
    double t = 0;
    while (true) {
      const double ttf = -std::log(1.0 - rng.NextDouble()) * mtbf_us;
      const double ttr = -std::log(1.0 - rng.NextDouble()) * mttr_us;
      const double down = t + ttf;
      if (down >= horizon_us) break;
      down_[r].push_back({down, down + ttr});
      t = down + ttr;
    }
  }
}

FaultPlan::FaultPlan(std::vector<std::vector<DownInterval>> outages,
                     double horizon_us)
    : down_(std::move(outages)), horizon_us_(horizon_us) {
  GP_CHECK_GE(horizon_us, 0.0);
  for (const std::vector<DownInterval>& intervals : down_) {
    double previous_up = 0;
    for (const DownInterval& o : intervals) {
      GP_CHECK_GE(o.down_us, 0.0);
      GP_CHECK_GE(o.up_us, o.down_us);
      GP_CHECK_GE(o.down_us, previous_up)
          << "outage intervals must be sorted and disjoint";
      previous_up = o.up_us;
    }
  }
}

const std::vector<DownInterval>& FaultPlan::Outages(
    std::size_t resource) const {
  GP_CHECK_LT(resource, down_.size());
  return down_[resource];
}

void OutageCursor::SeekTo(double now_us) {
  // First outage ending after now_us: where AdvanceTo stops.
  next_ = static_cast<std::size_t>(
      std::upper_bound(
          outages_->begin(), outages_->end(), now_us,
          [](double t, const DownInterval& o) { return t < o.up_us; }) -
      outages_->begin());
}

bool FaultPlan::IsDownAt(std::size_t resource, double time_us) const {
  OutageCursor cursor(Outages(resource));
  cursor.SeekTo(time_us);
  return cursor.IsDownAt(time_us);
}

const DownInterval* FaultPlan::FirstOutageIn(std::size_t resource,
                                             double start_us,
                                             double end_us) const {
  OutageCursor cursor(Outages(resource));
  cursor.SeekTo(start_us);
  return cursor.FirstOutageIn(start_us, end_us);
}

double FaultPlan::Availability(std::size_t resource) const {
  GP_CHECK_LT(resource, down_.size());
  if (horizon_us_ <= 0) return 1.0;
  double down_total = 0;
  for (const DownInterval& o : down_[resource]) {
    down_total += std::min(o.up_us, horizon_us_) - o.down_us;
  }
  return std::max(0.0, 1.0 - down_total / horizon_us_);
}

namespace {

/**
 * Event starts/durations for one chaos channel, exponential with means
 * MTBF/MTTR from the channel's own stream. A pinned first event
 * (first_at_s >= 0) replaces the first inter-arrival draw — including
 * t=0 — and with MTTR 0 yields a zero-length blip, never an event that
 * outlives the horizon.
 */
std::vector<DownInterval> DrawEvents(Rng& rng, double horizon_us,
                                     double mtbf_s, double mttr_s,
                                     double first_at_s) {
  std::vector<DownInterval> events;
  const double mtbf_us = mtbf_s * 1e6;
  const double mttr_us = mttr_s * 1e6;
  double t = 0;
  bool first = true;
  while (true) {
    double down;
    if (first && first_at_s >= 0) {
      down = first_at_s * 1e6;
    } else {
      if (mtbf_us <= 0) break;
      down = t - std::log(1.0 - rng.NextDouble()) * mtbf_us;
    }
    first = false;
    const double ttr = -std::log(1.0 - rng.NextDouble()) * mttr_us;
    if (down >= horizon_us) break;
    events.push_back({down, down + ttr});
    t = down + ttr;
  }
  return events;
}

/** Coalesces possibly-overlapping intervals into sorted disjoint ones. */
std::vector<DownInterval> MergeOutages(std::vector<DownInterval> raw) {
  std::sort(raw.begin(), raw.end(),
            [](const DownInterval& a, const DownInterval& b) {
              if (a.down_us != b.down_us) return a.down_us < b.down_us;
              return a.up_us < b.up_us;
            });
  std::vector<DownInterval> merged;
  for (const DownInterval& o : raw) {
    // Touching intervals coalesce too; an isolated zero-length blip
    // (down == up, the MTTR=0 case) survives as its own entry.
    if (!merged.empty() && o.down_us <= merged.back().up_us) {
      merged.back().up_us = std::max(merged.back().up_us, o.up_us);
    } else {
      merged.push_back(o);
    }
  }
  return merged;
}

bool DomainEnabled(const ChaosDomainConfig& domain) {
  return domain.size > 0 &&
         (domain.mtbf_s > 0 || domain.first_event_at_s >= 0);
}

}  // namespace

bool ChaosConfigEnabled(const ChaosPlanConfig& config) {
  return config.gray_mtbf_s > 0 || config.flap_mtbf_s > 0 ||
         DomainEnabled(config.host) || DomainEnabled(config.rack);
}

ChaosPlan::ChaosPlan(std::size_t gpus, double horizon_us,
                     const ChaosPlanConfig& config, const FaultPlan* base) {
  GP_CHECK_GE(horizon_us, 0.0);
  std::vector<std::vector<DownInterval>> outages(gpus);
  slow_.resize(gpus);
  if (base != nullptr && base->resources() > 0) {
    GP_CHECK_EQ(base->resources(), gpus);
    for (std::size_t g = 0; g < gpus; ++g) {
      outages[g] = base->Outages(g);
    }
  }

  // Gray episodes: per-GPU multiplicative slowdowns.
  if (config.gray_mtbf_s > 0) {
    GP_CHECK_GT(config.gray_factor, 1.0);
    GP_CHECK_GE(config.gray_mttr_s, 0.0);
    for (std::size_t g = 0; g < gpus; ++g) {
      Rng rng(HashCombine(config.seed,
                          StableHash(Format("chaos-gray-%zu", g))));
      for (const DownInterval& e :
           DrawEvents(rng, horizon_us, config.gray_mtbf_s,
                      config.gray_mttr_s, /*first_at_s=*/-1)) {
        slow_[g].push_back({e.down_us, e.up_us, config.gray_factor});
      }
    }
  }

  // Flap bursts: trains of short blips on a single GPU.
  if (config.flap_mtbf_s > 0) {
    GP_CHECK_GE(config.flap_count, 1);
    GP_CHECK_GT(config.flap_period_s, 0.0);
    GP_CHECK_GE(config.flap_down_s, 0.0);
    const double period_us = config.flap_period_s * 1e6;
    const double down_us = config.flap_down_s * 1e6;
    for (std::size_t g = 0; g < gpus; ++g) {
      Rng rng(HashCombine(config.seed,
                          StableHash(Format("chaos-flap-%zu", g))));
      double t = 0;
      while (true) {
        const double start =
            t - std::log(1.0 - rng.NextDouble()) * config.flap_mtbf_s * 1e6;
        if (start >= horizon_us) break;
        for (int i = 0; i < config.flap_count; ++i) {
          const double blip = start + i * period_us;
          if (blip >= horizon_us) break;
          outages[g].push_back({blip, blip + down_us});
        }
        t = start + config.flap_count * period_us + down_us;
      }
    }
  }

  // Correlated domain events: host level, then rack level. One drawn
  // event fells (factor 0) or slows (factor > 1) every member GPU.
  struct Level {
    const char* channel;
    const ChaosDomainConfig* domain;
    std::size_t span;  // GPUs per domain
  };
  const std::size_t host_span = std::max<std::size_t>(config.host.size, 1);
  const Level levels[] = {
      {"chaos-host", &config.host, config.host.size},
      // Rack size counts hosts; with hosts disabled it counts GPUs.
      {"chaos-rack", &config.rack, config.rack.size * host_span},
  };
  for (const Level& level : levels) {
    if (!DomainEnabled(*level.domain)) continue;
    GP_CHECK(level.domain->factor == 0 || level.domain->factor > 1)
        << "domain factor must be 0 (outage) or > 1 (slowdown)";
    GP_CHECK_GE(level.domain->mttr_s, 0.0);
    const std::size_t domains = (gpus + level.span - 1) / level.span;
    for (std::size_t d = 0; d < domains; ++d) {
      Rng rng(HashCombine(config.seed, StableHash(Format(
                                           "%s-%zu", level.channel, d))));
      const std::vector<DownInterval> events =
          DrawEvents(rng, horizon_us, level.domain->mtbf_s,
                     level.domain->mttr_s, level.domain->first_event_at_s);
      const std::size_t begin = d * level.span;
      const std::size_t end = std::min(gpus, begin + level.span);
      for (std::size_t g = begin; g < end; ++g) {
        for (const DownInterval& e : events) {
          if (level.domain->factor == 0) {
            outages[g].push_back(e);
          } else {
            slow_[g].push_back({e.down_us, e.up_us, level.domain->factor});
          }
        }
      }
    }
  }

  for (std::size_t g = 0; g < gpus; ++g) {
    outages[g] = MergeOutages(std::move(outages[g]));
    std::sort(slow_[g].begin(), slow_[g].end(),
              [](const SlowInterval& a, const SlowInterval& b) {
                if (a.start_us != b.start_us) return a.start_us < b.start_us;
                if (a.end_us != b.end_us) return a.end_us < b.end_us;
                return a.factor < b.factor;
              });
  }
  outage_plan_ = FaultPlan(std::move(outages), horizon_us);
}

const std::vector<SlowInterval>& ChaosPlan::Slowdowns(std::size_t gpu) const {
  GP_CHECK_LT(gpu, slow_.size());
  return slow_[gpu];
}

double ChaosPlan::SlowdownAt(std::size_t gpu, double time_us) const {
  return SlowdownCursor(Slowdowns(gpu)).SlowdownAt(time_us);
}

bool ChaosPlan::empty() const {
  for (std::size_t g = 0; g < resources(); ++g) {
    if (!outage_plan_.Outages(g).empty()) return false;
  }
  for (const std::vector<SlowInterval>& s : slow_) {
    if (!s.empty()) return false;
  }
  return true;
}

}  // namespace gpuperf
