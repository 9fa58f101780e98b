#include "models/prediction_plan.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics_registry.h"

namespace gpuperf::models {
namespace {

/** Process-wide plan-cache counters, aggregated across every model. */
struct PlanMetrics {
  obs::Counter& compiles;
  obs::Counter& queries;
  obs::Counter& invalidations;

  static PlanMetrics& Get() {
    static PlanMetrics* const kMetrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new PlanMetrics{
          registry.counter("gpuperf_predictor_plan_compiles",
                           "Prediction plans compiled"),
          registry.counter("gpuperf_predictor_plan_queries",
                           "Batched plan evaluations"),
          registry.counter("gpuperf_predictor_plan_invalidations",
                           "Plans retired by refit or name reuse")};
    }();
    return *kMetrics;
  }
};

std::string SlotKeyString(const PlanCache::SlotKey& slot) {
  std::ostringstream out;
  if (slot.gpu_index >= 0) {
    out << "gpu#" << slot.gpu_index;
  } else {
    out << "spec(" << slot.feature_a << "," << slot.feature_b << ")";
  }
  return out.str();
}

}  // namespace

PredictionPlan& PredictionPlan::ClearedScratch() {
  thread_local PredictionPlan scratch;
  scratch.value_.clear();
  scratch.slope_.clear();
  scratch.intercept_.clear();
  scratch.cluster_.clear();
  scratch.layer_end_.clear();
  scratch.scale_a_.clear();
  scratch.scale_b_.clear();
  return scratch;
}

void PredictionPlan::BeginLayer(double scale_a, double scale_b) {
  layer_end_.push_back(static_cast<std::uint32_t>(value_.size()));
  scale_a_.push_back(scale_a);
  scale_b_.push_back(scale_b);
}

void PredictionPlan::AddTerm(std::int64_t per_sample_value, double slope,
                             double intercept, int cluster_id) {
  GP_CHECK(!layer_end_.empty()) << "AddTerm before BeginLayer";
  value_.push_back(per_sample_value);
  slope_.push_back(slope);
  intercept_.push_back(intercept);
  cluster_.push_back(cluster_id);
  layer_end_.back() = static_cast<std::uint32_t>(value_.size());
}

void PredictionPlan::EvalMaxLanesUs(
    std::span<const std::int64_t, kMaxLanes> batches,
    std::span<double, kMaxLanes> out) const {
  BatchFold<kMaxLanes> fold(batches);
  Replay(fold);
  std::copy_n(fold.TotalsUs().begin(), kMaxLanes, out.begin());
}

double PredictionPlan::EvalUs(std::int64_t batch) const {
  BatchSum sum(batch);
  Replay(sum);
  return sum.TotalUs();
}

PlanCache::PlanCache(const PlanCache& other) {
  SharedReaderLock lock(other.mu_);
  entries_ = other.entries_;
}

PlanCache& PlanCache::operator=(const PlanCache& other) {
  if (this == &other) return *this;
  std::unordered_map<std::string, Entry> copy;
  {
    SharedReaderLock lock(other.mu_);
    copy = other.entries_;
  }
  SharedMutexLock lock(mu_);
  entries_ = std::move(copy);
  retired_.clear();
  return *this;
}

const PredictionPlan* PlanCache::FindLocked(const std::string& name,
                                            std::uint64_t fingerprint,
                                            const SlotKey& slot) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    return nullptr;
  }
  for (const auto& [key, plan] : it->second.slots) {
    if (key == slot) return plan.get();
  }
  return nullptr;
}

const PredictionPlan* PlanCache::InsertLocked(
    const std::string& name, std::uint64_t fingerprint, const SlotKey& slot,
    std::shared_ptr<const PredictionPlan> plan) const {
  Entry& entry = entries_[name];
  if (!entry.slots.empty() && entry.fingerprint != fingerprint) {
    // The name now denotes a different architecture: retire the stale
    // plans (raw pointers handed out earlier must stay valid) and start
    // a fresh slot list.
    PlanMetrics::Get().invalidations.Increment(entry.slots.size());
    for (auto& [key, old] : entry.slots) {
      (void)key;
      retired_.push_back(std::move(old));
    }
    entry.slots.clear();
  }
  entry.fingerprint = fingerprint;
  // A concurrent compile may have installed this slot while we were
  // compiling outside the lock; keep the incumbent so earlier raw
  // pointers remain canonical, and drop our duplicate.
  for (const auto& [key, incumbent] : entry.slots) {
    if (key == slot) return incumbent.get();
  }
  entry.slots.emplace_back(slot, std::move(plan));
  const PredictionPlan* installed = entry.slots.back().second.get();
  PlanMetrics::Get().compiles.Increment();
  // The fields are formatted only when the line will be emitted: a cold
  // sweep compiles thousands of plans with debug logging off.
  if (MinLogLevel() <= LogLevel::kDebug) {
    LogDebug("prediction plan compiled",
             {{"network", name},
              {"slot", SlotKeyString(slot)},
              {"layers", std::to_string(installed->layer_count())},
              {"terms", std::to_string(installed->term_count())}});
  }
  return installed;
}

void PlanCache::Clear() {
  SharedMutexLock lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    dropped += entry.slots.size();
  }
  if (dropped > 0) PlanMetrics::Get().invalidations.Increment(dropped);
  entries_.clear();
  retired_.clear();
}

namespace internal {

void CountPlanQueries(std::uint64_t n) {
  PlanMetrics::Get().queries.Increment(n);
}

}  // namespace internal

}  // namespace gpuperf::models
