#ifndef GPUPERF_MODELS_PREDICTION_PLAN_H_
#define GPUPERF_MODELS_PREDICTION_PLAN_H_

/**
 * @file
 * The term walk of KW and IGKW, and compiled prediction plans — the
 * sub-microsecond batched predict path.
 *
 * Both models predict a network as a sum of per-kernel linear terms
 * (paper Sections 5.4-5.5), written down once per model: a private
 * per-layer emitter (`KwModel::EmitLayer`, `IgkwModel::EmitLayer`)
 * calls `sink.BeginLayer(scale_a, scale_b, label)` and then
 * `sink.AddTerm(per_sample_value, slope, intercept, cluster_id)` per
 * kernel. BatchSum, the one fold, turns the calls into a prediction for
 * one batch (PredictUs); a PredictionPlan records them for one
 * (network, GPU) pair, and EvalUs and models/explain.h replay a plan
 * into a BatchSum. Every path thus runs the same floating-point
 * operations in the same order by construction.
 *
 * Batch size is a *query* axis, not a plan axis: every cost driver
 * (input NCHW, layer FLOPs, output NCHW) is linear in batch
 * (`bench_fig05_batch_linear`), so a term stores the per-sample value
 * and TermUs multiplies it by the query's batch. One plan serves all
 * batch sizes with no hashing, refcounting, dispatch or allocation.
 *
 * Plans live in a per-model PlanCache keyed by network name (validated
 * against the structural fingerprint, an O(1) read of the hash
 * dnn::Network::AppendLayer maintains) and a per-GPU slot. Compiling a
 * plan resolves layers through the model's per-network sid memo (the
 * one PredictUs reads; IGKW shares its inner KW model's), so a network
 * compiled for every GPU builds its layer signatures once. A model
 * generation owns its cache, so bundle promotion/rollback through
 * models::BundleRegistry invalidates plans for free: a new generation
 * is a new KwModel with an empty cache, while snapshots of the old
 * generation keep their compiled plans alive and correct.
 *
 * Observability: `gpuperf_predictor_plan_{compiles,queries,
 * invalidations}` in obs::MetricsRegistry::Global(), plus a structured
 * debug log line per compilation (formatted only when debug logging is
 * on).
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/synchronization.h"
#include "dnn/network.h"
#include "models/network_cache.h"
#include "models/predictor.h"

namespace gpuperf::models {

/**
 * The one term evaluation: the fitted line at the batch-scaled driver
 * value, clamped at zero. Callers keep `batch * per_sample_value` within
 * int64 (the CLI bounds every batch).
 */
inline double TermUs(std::int64_t batch, std::int64_t per_sample_value,
                     double slope, double intercept) {
  const double x = static_cast<double>(batch * per_sample_value);
  return std::max(0.0, intercept + slope * x);
}

/**
 * The one layer fold, a sink for one batch size: a layer's TermUs values
 * add into a subtotal, and closing the layer adds
 * `subtotal * scale_a * scale_b` to the total. `scale_a` is the KW
 * per-GPU or IGKW mean calibration (1.0 on layer-wise fallback layers),
 * `scale_b` the IGKW nearest-GPU bandwidth ratio (1.0 otherwise); a 1.0
 * never perturbs a result. Labels and cluster ids are explain-only.
 * BeginLayer closes the open layer; closing a closed one adds +0.
 */
class BatchSum {
 public:
  explicit BatchSum(std::int64_t batch) : batch_(batch) {}

  void BeginLayer(double scale_a, double scale_b, const std::string&) {
    CloseLayer();
    scale_a_ = scale_a;
    scale_b_ = scale_b;
  }

  /** Adds one term to the open layer; returns its TermUs value. */
  double AddTerm(std::int64_t per_sample_value, double slope,
                 double intercept, int) {
    const double us = TermUs(batch_, per_sample_value, slope, intercept);
    subtotal_ += us;
    return us;
  }

  /** Folds the open layer into the total; returns that exact addend. */
  double CloseLayer() {
    const double addend = subtotal_ * scale_a_ * scale_b_;
    total_ += addend;
    subtotal_ = 0.0;
    return addend;
  }

  /** Closes the open layer; the predicted microseconds. */
  double TotalUs() {
    CloseLayer();
    return total_;
  }

 private:
  std::int64_t batch_;
  double scale_a_ = 1.0;
  double scale_b_ = 1.0;
  double subtotal_ = 0.0;
  double total_ = 0.0;
};

/**
 * A compiled (network, GPU) prediction program: the emitter's calls,
 * recorded into contiguous per-term arrays in layer order. Immutable
 * after compilation; safe to evaluate from concurrent threads.
 */
class PredictionPlan {
 public:
  // The sink calls an emitter makes (see BatchSum).
  void BeginLayer(double scale_a, double scale_b, const std::string& label);
  void AddTerm(std::int64_t per_sample_value, double slope, double intercept,
               int cluster_id);

  /** Predicted end-to-end microseconds for one batch size. */
  double EvalUs(std::int64_t batch) const;

  /** Replays the recorded sink calls, in order, into `sink`. */
  template <typename Sink>
  void Replay(Sink& sink) const {
    const std::int64_t* value = value_.data();
    const double* slope = slope_.data();
    const double* intercept = intercept_.data();
    const int* cluster = cluster_.data();
    std::uint32_t term = 0;
    const std::size_t layers = layer_end_.size();
    for (std::size_t i = 0; i < layers; ++i) {
      sink.BeginLayer(scale_a_[i], scale_b_[i], label_[i]);
      for (const std::uint32_t end = layer_end_[i]; term < end; ++term) {
        sink.AddTerm(value[term], slope[term], intercept[term], cluster[term]);
      }
    }
  }

  std::size_t layer_count() const { return layer_end_.size(); }
  std::size_t term_count() const { return value_.size(); }
  double layer_scale_b(std::size_t layer) const { return scale_b_[layer]; }

 private:
  // Terms (SoA): per-sample cost-driver value and fitted line.
  std::vector<std::int64_t> value_;
  std::vector<double> slope_;
  std::vector<double> intercept_;
  std::vector<int> cluster_;  // explain metadata; the fold ignores it
  // Layers: exclusive end index into the term arrays plus both scales.
  std::vector<std::uint32_t> layer_end_;
  std::vector<double> scale_a_;
  std::vector<double> scale_b_;
  std::vector<std::string> label_;  // explain metadata; the fold ignores it
};

/**
 * Thread-safe per-model cache of compiled plans.
 *
 * Keyed by network name + structural fingerprint (reusing a name for a
 * different architecture retires the stale plans and recompiles), with
 * one slot per GPU identity. Lookups take a shared lock and return a
 * stable raw pointer — valid until Clear() — so the steady-state hot
 * path does no refcounting and no allocation. Copying a model copies
 * the cache (plans are immutable and shared); the copy gets its own
 * lock.
 */
class PlanCache {
 public:
  /**
   * The GPU identity of a slot. KW plans use the dense trained-GPU
   * index; IGKW plans are spec-driven (hypothetical GPUs have no stable
   * name), so they key on the scaling features instead.
   */
  struct SlotKey {
    int gpu_index = -1;
    double feature_a = 0;
    double feature_b = 0;
    bool operator==(const SlotKey&) const = default;
  };

  PlanCache() = default;
  PlanCache(const PlanCache& other);
  PlanCache& operator=(const PlanCache& other);

  /**
   * The plan for (`network`, `slot`), compiling it with `compile()` (a
   * callable returning a PredictionPlan) on first sight or after a
   * fingerprint mismatch. The returned pointer stays valid until
   * Clear() — models only Clear() when retrained or reloaded.
   */
  template <typename CompileFn>
  const PredictionPlan* Get(const dnn::Network& network, const SlotKey& slot,
                            const CompileFn& compile) const {
    const std::uint64_t fingerprint = NetworkFingerprint(network);
    {
      SharedReaderLock lock(mu_);
      const PredictionPlan* hit =
          FindLocked(network.name(), fingerprint, slot);
      if (hit != nullptr) return hit;
    }
    // Compile outside the lock so a slow compilation never blocks
    // readers hitting other plans; a concurrent identical compile keeps
    // the incumbent (first writer wins, the loser's plan is dropped).
    auto plan = std::make_shared<const PredictionPlan>(compile());
    SharedMutexLock lock(mu_);
    return InsertLocked(network.name(), fingerprint, slot, std::move(plan));
  }

  /** Drops every plan (models call this when retrained or reloaded). */
  void Clear();

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    // Slot count is the number of distinct GPUs queried for this
    // network — single digits in practice, so a linear scan beats a
    // second hash map and stays allocation-free on the hit path.
    std::vector<std::pair<SlotKey, std::shared_ptr<const PredictionPlan>>>
        slots;
  };

  const PredictionPlan* FindLocked(const std::string& name,
                                   std::uint64_t fingerprint,
                                   const SlotKey& slot) const
      GP_REQUIRES_SHARED(mu_);
  const PredictionPlan* InsertLocked(
      const std::string& name, std::uint64_t fingerprint, const SlotKey& slot,
      std::shared_ptr<const PredictionPlan> plan) const GP_REQUIRES(mu_);

  mutable SharedMutex mu_;
  mutable std::unordered_map<std::string, Entry> entries_ GP_GUARDED_BY(mu_);
  // Plans retired by a fingerprint mismatch are parked here (not freed)
  // until Clear(), so raw plan pointers held by in-flight sweeps stay
  // valid even across a concurrent name reuse.
  mutable std::vector<std::shared_ptr<const PredictionPlan>> retired_
      GP_GUARDED_BY(mu_);
};

namespace internal {

/** Bumps `gpuperf_predictor_plan_queries` (PredictMany implementations). */
void CountPlanQueries(std::uint64_t n);

/**
 * The PredictMany sweep of the plan-compiling models. Queries for the
 * same (network, GPU) pair tend to arrive in runs — a serving matrix
 * fill is one row per network — so the plan is looked up once per run
 * with `plan_for(network, gpu)` and steady state is pure EvalUs: no
 * hashing, no locks, no allocation.
 */
template <typename PlanForFn>
void SweepPlans(std::span<const PredictQuery> queries,
                std::span<double> out_us, const PlanForFn& plan_for) {
  GP_CHECK_EQ(queries.size(), out_us.size());
  const PredictQuery* run = nullptr;
  const PredictionPlan* plan = nullptr;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const PredictQuery& query = queries[i];
    if (run == nullptr || query.network != run->network ||
        query.gpu != run->gpu) {
      plan = plan_for(*query.network, *query.gpu);
      run = &query;
    }
    out_us[i] = plan->EvalUs(query.batch);
  }
  CountPlanQueries(queries.size());
}

}  // namespace internal

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_PREDICTION_PLAN_H_
