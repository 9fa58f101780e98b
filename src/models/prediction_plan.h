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
 * calls `sink.BeginLayer(scale_a, scale_b)` exactly once per network
 * layer, in layer order, and then
 * `sink.AddTerm(per_sample_value, slope, intercept, cluster_id)` per
 * kernel. So a plan's layer i is the network's layer i, and a plan
 * holds numbers only: explain (models/explain.h) reads layer names
 * from the network. BatchFold, the one fold, turns the calls into
 * predictions for a fixed number of batch lanes: one lane (BatchSum)
 * for PredictUs, PredictLayerUs, EvalUs and models/explain.h, eight for
 * each whole chunk of EvalManyUs. A PredictionPlan records the calls
 * for one (network, GPU) pair — seven flat numeric arrays, each
 * allocated once at its exact size (see Compile) — and replays them
 * into a fold. Each lane runs the same floating-point operations in
 * the same order as a one-lane fold of its batch, so every path agrees
 * bit for bit by construction.
 *
 * Batch size is a *query* axis, not a plan axis: every cost driver
 * (input NCHW, layer FLOPs, output NCHW) is linear in batch
 * (`bench_fig05_batch_linear`), so a term stores the per-sample value
 * and TermUs multiplies it by the query's batch. One plan serves all
 * batch sizes with no hashing, refcounting, dispatch or allocation, and
 * one replay serves kMaxLanes of them: the lanes are independent
 * add chains, so a wide fold is not bound by the latency of one chain.
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
#include <array>
#include <cstddef>
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
 * value, clamped at zero.
 *
 * Precondition: `batch * per_sample_value` fits in int64. It is not
 * checked here, on the hot path; the CLI's batch bound `cli::kMaxBatch`
 * (2^20) leaves ~91x headroom over the largest zoo driver value
 * (`CliTest.BatchBoundKeepsZooProductsInInt64`), and a library caller
 * with unbounded batches must bound them itself.
 */
inline double TermUs(std::int64_t batch, std::int64_t per_sample_value,
                     double slope, double intercept) {
  const double x = static_cast<double>(batch * per_sample_value);
  return std::max(0.0, intercept + slope * x);
}

/**
 * The one layer fold, a sink for `kLanes` batch sizes at once: per lane,
 * a layer's TermUs values add into a subtotal, and closing the layer
 * adds `subtotal * scale_a * scale_b` to the lane's total. `scale_a` is
 * the KW per-GPU or IGKW mean calibration (1.0 on layer-wise fallback
 * layers), `scale_b` the IGKW nearest-GPU bandwidth ratio (1.0
 * otherwise); a 1.0 never perturbs a result. Cluster ids are
 * explain-only. BeginLayer closes the open layer; closing a closed one
 * adds +0. Every lane runs the operations of a one-lane fold of its
 * batch in the same order, so its total is bit-identical to BatchSum's.
 */
template <std::size_t kLanes>
class BatchFold {
 public:
  explicit BatchFold(std::span<const std::int64_t, kLanes> batches) {
    std::copy(batches.begin(), batches.end(), batch_.begin());
  }
  explicit BatchFold(std::int64_t batch)
    requires(kLanes == 1)
      : batch_{batch} {}

  void BeginLayer(double scale_a, double scale_b) {
    CloseLayer();
    scale_a_ = scale_a;
    scale_b_ = scale_b;
  }

  /** Adds one term to every lane's open layer; returns lane 0's TermUs. */
  double AddTerm(std::int64_t per_sample_value, double slope,
                 double intercept, int) {
    std::array<double, kLanes> us;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      us[lane] = TermUs(batch_[lane], per_sample_value, slope, intercept);
      subtotal_[lane] += us[lane];
    }
    return us[0];
  }

  /** Folds the open layer into every lane's total; returns lane 0's addend. */
  double CloseLayer() {
    std::array<double, kLanes> addend;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      addend[lane] = subtotal_[lane] * scale_a_ * scale_b_;
      total_[lane] += addend[lane];
      subtotal_[lane] = 0.0;
    }
    return addend[0];
  }

  /** Closes the open layer; each lane's predicted microseconds. */
  const std::array<double, kLanes>& TotalsUs() {
    CloseLayer();
    return total_;
  }

  /** Closes the open layer; the one lane's predicted microseconds. */
  double TotalUs()
    requires(kLanes == 1)
  {
    return TotalsUs()[0];
  }

 private:
  std::array<std::int64_t, kLanes> batch_;
  double scale_a_ = 1.0;
  double scale_b_ = 1.0;
  std::array<double, kLanes> subtotal_{};
  std::array<double, kLanes> total_{};
};

/** The one-lane fold: PredictUs, PredictLayerUs, EvalUs, ExplainPlan. */
using BatchSum = BatchFold<1>;

/**
 * A compiled (network, GPU) prediction program: the emitter's calls,
 * recorded into contiguous per-term arrays in layer order, one layer
 * per network layer. Immutable after compilation; safe to evaluate
 * from concurrent threads.
 */
class PredictionPlan {
 public:
  /**
   * The plan `emit(sink)` records, each array allocated once at its
   * exact size. The emitter records into a reused per-thread scratch
   * plan, whose arrays keep their capacity from one compile to the
   * next, and the result is a copy of it (a vector copy allocates
   * exactly size()). So the emitter stays the only code that decides
   * how many terms a layer has. `emit` must not compile another plan.
   */
  template <typename EmitFn>
  static PredictionPlan Compile(const EmitFn& emit) {
    PredictionPlan& scratch = ClearedScratch();
    emit(scratch);
    return scratch;
  }

  // The sink calls an emitter makes (see BatchSum).
  void BeginLayer(double scale_a, double scale_b);
  void AddTerm(std::int64_t per_sample_value, double slope, double intercept,
               int cluster_id);

  /** The batches one wide replay folds (EvalManyUs). */
  static constexpr std::size_t kMaxLanes = 8;

  /** Predicted end-to-end microseconds for one batch size. */
  double EvalUs(std::int64_t batch) const;

  /**
   * `out[i]` = EvalUs(batches[i]), bit for bit, for equal-length spans.
   * Each whole chunk of kMaxLanes batches takes one replay of the plan
   * into a kMaxLanes-lane fold; the batches left take one EvalUs each.
   * Same precondition as TermUs: each `batch * per_sample_value` fits
   * in int64.
   */
  void EvalManyUs(std::span<const std::int64_t> batches,
                  std::span<double> out) const {
    GP_CHECK_EQ(batches.size(), out.size());
    std::size_t i = 0;
    for (; batches.size() - i >= kMaxLanes; i += kMaxLanes) {
      EvalMaxLanesUs(batches.subspan(i).first<kMaxLanes>(),
                     out.subspan(i).first<kMaxLanes>());
    }
    for (; i < batches.size(); ++i) out[i] = EvalUs(batches[i]);
  }

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
      sink.BeginLayer(scale_a_[i], scale_b_[i]);
      for (const std::uint32_t end = layer_end_[i]; term < end; ++term) {
        sink.AddTerm(value[term], slope[term], intercept[term], cluster[term]);
      }
    }
  }

  std::size_t layer_count() const { return layer_end_.size(); }
  std::size_t term_count() const { return value_.size(); }
  double layer_scale_b(std::size_t layer) const { return scale_b_[layer]; }

 private:
  /** This thread's scratch plan, emptied with its capacity kept. */
  static PredictionPlan& ClearedScratch();

  /** One replay of the plan into a kMaxLanes-lane fold. */
  void EvalMaxLanesUs(std::span<const std::int64_t, kMaxLanes> batches,
                      std::span<double, kMaxLanes> out) const;

  // Terms (SoA): per-sample cost-driver value and fitted line.
  std::vector<std::int64_t> value_;
  std::vector<double> slope_;
  std::vector<double> intercept_;
  std::vector<int> cluster_;  // explain metadata; the fold ignores it
  // Layers: exclusive end index into the term arrays plus both scales.
  std::vector<std::uint32_t> layer_end_;
  std::vector<double> scale_a_;
  std::vector<double> scale_b_;
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
 * The run splitter of every PredictMany sweep: calls `fn(run, first)`
 * for each maximal run of consecutive queries for one (network, GPU)
 * pair, in order, where `first` is the run's offset in `queries`.
 * Queries tend to arrive in such runs (a batch-size scan is one run per
 * pair), so per-pair work — a plan lookup, a tier decision — is done
 * once per run.
 */
template <typename RunFn>
void ForEachRun(std::span<const PredictQuery> queries, const RunFn& fn) {
  std::size_t first = 0;
  while (first < queries.size()) {
    const PredictQuery& head = queries[first];
    std::size_t end = first + 1;
    while (end < queries.size() && queries[end].network == head.network &&
           queries[end].gpu == head.gpu) {
      ++end;
    }
    fn(queries.subspan(first, end - first), first);
    first = end;
  }
}

/**
 * Answers one run's queries from its pair's plan, `out_us[i]` for
 * `run[i]`, through EvalManyUs up to kMaxLanes batches at a time: a run
 * of eight takes one wide replay, a run of one one EvalUs.
 */
inline void EvalRun(const PredictionPlan& plan,
                    std::span<const PredictQuery> run,
                    std::span<double> out_us) {
  std::array<std::int64_t, PredictionPlan::kMaxLanes> batches;
  for (std::size_t first = 0; first < run.size();
       first += PredictionPlan::kMaxLanes) {
    const std::size_t n =
        std::min(PredictionPlan::kMaxLanes, run.size() - first);
    for (std::size_t i = 0; i < n; ++i) batches[i] = run[first + i].batch;
    plan.EvalManyUs(std::span(batches.data(), n), out_us.subspan(first, n));
  }
}

/**
 * The PredictMany sweep of the plan-compiling models: the plan is
 * looked up once per run with `plan_for(network, gpu)`, and each run is
 * one EvalRun — no hashing, no locks, no allocation.
 */
template <typename PlanForFn>
void SweepPlans(std::span<const PredictQuery> queries,
                std::span<double> out_us, const PlanForFn& plan_for) {
  GP_CHECK_EQ(queries.size(), out_us.size());
  ForEachRun(queries, [&](std::span<const PredictQuery> run,
                          std::size_t first) {
    EvalRun(*plan_for(*run.front().network, *run.front().gpu), run,
            out_us.subspan(first, run.size()));
  });
  CountPlanQueries(queries.size());
}

}  // namespace internal

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_PREDICTION_PLAN_H_
