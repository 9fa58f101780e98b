#ifndef GPUPERF_MODELS_PREDICTION_PLAN_H_
#define GPUPERF_MODELS_PREDICTION_PLAN_H_

/**
 * @file
 * Compiled prediction plans — the sub-microsecond batched predict path.
 *
 * A trained KW/IGKW model answers `PredictUs` by walking string-keyed
 * and dense-ID tables per layer, recomputing the layer's cost-driver
 * feature values, and touching a shared_ptr-guarded memo per call. That
 * costs single-digit microseconds per network — fine for offline
 * studies, a bottleneck once the predictor sits inside every
 * admission/batching/dispatch decision of a serving loop.
 *
 * A PredictionPlan freezes one (network, GPU) pair into a flat
 * structure-of-arrays program: one term per kernel (or per layer-wise
 * fallback fit) holding the per-sample cost-driver value and the fitted
 * slope/intercept, grouped into layers that carry the calibration
 * scales. Evaluating a query is then a single linear sweep over plain
 * arrays — no hash lookups, no shared_ptr refcount churn, no virtual
 * dispatch, no allocation — and is bit-identical to `PredictUs` by
 * construction (the sweep performs the exact same floating-point
 * operations in the exact same order).
 *
 * Batch size is a *query* axis, not a plan axis: every cost driver the
 * models use (input NCHW, layer FLOPs, output NCHW) is linear in batch
 * (`bench_fig05_batch_linear`), so a term stores the per-sample value
 * and the sweep multiplies by the query's batch. One plan serves all
 * batch sizes.
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
 * A compiled (network, GPU) prediction program: contiguous per-term
 * arrays swept in layer order. Immutable after compilation; safe to
 * evaluate from concurrent threads.
 */
class PredictionPlan {
 public:
  /**
   * Opens the next layer group. `scale_a` multiplies the layer's term
   * sum first (the KW per-GPU or IGKW mean calibration factor; 1.0 for
   * layer-wise fallback terms), `scale_b` second (the IGKW
   * nearest-GPU bandwidth ratio; 1.0 otherwise). Multiplying by 1.0 is
   * an IEEE identity, so unused scales never perturb bit-equality.
   * `label` is explain-only metadata (the layer's name; never read by
   * the evaluation sweep).
   */
  void BeginLayer(double scale_a, double scale_b, std::string label = "");

  /**
   * Appends one `max(0, intercept + slope * (batch * per_sample_value))`
   * term to the currently open layer. `cluster_id` is explain-only
   * metadata (the kernel cluster the fit came from; -1 for layer-wise
   * fallback terms).
   */
  void AddTerm(std::int64_t per_sample_value, double slope, double intercept,
               int cluster_id = -1);

  /** Predicted end-to-end microseconds for one batch size. */
  double EvalUs(std::int64_t batch) const;

  /** One EvalUs per entry; `out_us.size()` must equal `batches.size()`. */
  void EvalMany(std::span<const std::int64_t> batches,
                std::span<double> out_us) const;

  std::size_t layer_count() const { return layer_end_.size(); }
  std::size_t term_count() const { return value_.size(); }

  // --- Plan-walking accessors (models/explain.h decomposes a
  // prediction by replaying EvalUs's exact op order through these).
  std::uint32_t layer_end(std::size_t layer) const {
    return layer_end_[layer];
  }
  double layer_scale_a(std::size_t layer) const { return scale_a_[layer]; }
  double layer_scale_b(std::size_t layer) const { return scale_b_[layer]; }
  const std::string& layer_label(std::size_t layer) const {
    return label_[layer];
  }
  std::int64_t term_value(std::size_t term) const { return value_[term]; }
  double term_slope(std::size_t term) const { return slope_[term]; }
  double term_intercept(std::size_t term) const { return intercept_[term]; }
  int term_cluster(std::size_t term) const { return cluster_[term]; }

 private:
  // Terms (SoA): per-sample cost-driver value and fitted line.
  std::vector<std::int64_t> value_;
  std::vector<double> slope_;
  std::vector<double> intercept_;
  std::vector<int> cluster_;  // explain metadata; not read by EvalUs
  // Layers: exclusive end index into the term arrays plus both scales.
  std::vector<std::uint32_t> layer_end_;
  std::vector<double> scale_a_;
  std::vector<double> scale_b_;
  std::vector<std::string> label_;  // explain metadata; not read by EvalUs
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
