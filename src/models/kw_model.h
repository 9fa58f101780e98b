#ifndef GPUPERF_MODELS_KW_MODEL_H_
#define GPUPERF_MODELS_KW_MODEL_H_

/**
 * @file
 * The Kernel-Wise model (Section 5.4) — the paper's flagship (7% error on
 * A100, 6-9.4% across GPUs, 4.76% on transformers).
 *
 * Training:
 *  1. Build the layer-to-kernel mapping table from the profiled traces
 *     (keyed by layer signature, batch-agnostic).
 *  2. For every (GPU, kernel name), fit three candidate regressions —
 *     time vs input NCHW, vs layer FLOPs, vs output NCHW — and classify
 *     the kernel by the driver with the highest R² (O5, Figure 8).
 *  3. Merge kernels with similar (driver, slope, intercept) into shared
 *     cluster regressions (paper: 182 kernels -> 83 models on A100).
 *
 * Prediction sums per-kernel regression outputs over the kernel lists of
 * all layers; unseen layer signatures fall back to a reduced
 * (type + filter parameters) key, and unseen kernels to a layer-wise fit.
 * One private emitter, EmitLayer, turns a layer into those terms. Every
 * prediction path — PredictUs, PredictLayerUs, plan compiles (and so
 * PredictMany and explain) and AppendKernelTerms — is that emitter
 * feeding a sink from models/prediction_plan.h, so the paths agree bit
 * for bit by construction. A compiled plan holds numbers only; explain
 * reads layer names from the network.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/dataset.h"
#include "dnn/layer.h"
#include "gpuexec/kernel.h"
#include "models/lw_model.h"
#include "models/network_cache.h"
#include "models/prediction_plan.h"
#include "models/predictor.h"
#include "regression/linreg.h"

namespace gpuperf::models {

/** Training knobs; defaults reproduce the paper's configuration. */
struct KwOptions {
  bool classify_drivers = true;   // ablation: false forces FLOPs everywhere
  bool cluster = true;            // ablation: false keeps per-kernel fits
  double cluster_slope_tol = 0.05;        // relative slope match
  double cluster_intercept_tol_us = 3.0;  // absolute intercept match
  // Upper bound on a kernel's fitted fixed cost. GPU kernel launch /
  // ramp-up overheads are single-digit microseconds; without this cap,
  // kernels observed only at large sizes can absorb hundreds of
  // microseconds of heteroscedastic scatter into the intercept, which
  // wrecks extrapolation to small batch sizes.
  double max_intercept_us = 20.0;
  // Apply a per-GPU end-to-end calibration factor (the ratio of measured
  // wall time to summed kernel predictions over the training networks).
  // Kernel sums systematically miss launch gaps and framework wall
  // overheads; one fitted constant per GPU absorbs the mean of that bias.
  bool calibrate_e2e = true;
};

/** The trained regression of one kernel on one GPU. */
struct KernelModel {
  gpuexec::CostDriver driver = gpuexec::CostDriver::kOperation;
  regression::LinearFit fit;  // the (possibly cluster-shared) line
  int cluster_id = -1;
  double solo_r2 = 0;         // per-kernel fit quality before clustering
};

/** The Kernel-Wise predictor. */
class KwModel : public Predictor {
 public:
  explicit KwModel(const KwOptions& options = KwOptions());

  /**
   * Trains for every GPU in `data`. The mapping table uses all traces
   * (it encodes library behaviour, not timings); regressions use only
   * training-network rows.
   */
  void Train(const dataset::Dataset& data,
             const dataset::NetworkSplit& split);

  std::string Name() const override { return "KW"; }

  double PredictUs(const dnn::Network& network, const gpuexec::GpuSpec& gpu,
                   std::int64_t batch) const override;

  /**
   * Batched prediction through compiled plans: one plan lookup per
   * same-(network, GPU) run, and one flat-array sweep per whole 8 of the
   * run's batches and per batch left. Bit-identical to per-query PredictUs; Fatal (like
   * PredictUs) on an untrained GPU.
   */
  void PredictMany(std::span<const PredictQuery> queries,
                   std::span<double> out_us) const override;

  /**
   * The compiled plan for (`network`, `gpu`), compiling and caching it
   * on first use. The pointer stays valid for the model's lifetime (or
   * until retrain/reload). Fatal on an untrained GPU.
   */
  const PredictionPlan* PlanFor(const dnn::Network& network,
                                const gpuexec::GpuSpec& gpu) const;

  /** Predicted time of one layer (case studies 2 and 3 schedule layers). */
  double PredictLayerUs(const dnn::Layer& layer, const std::string& gpu_name,
                        std::int64_t batch) const;

  /** Kernel names the mapping table yields for `layer` (may be empty). */
  std::vector<std::string> KernelsForLayer(const dnn::Layer& layer) const;

  /** KernelsForLayer sizes summed over `network`, through the sid memo. */
  std::int64_t MappedKernelCount(const dnn::Network& network) const;

  /**
   * One kernel's contribution to a resolved layer prediction — the unit
   * the drift monitor attributes observed e2e residuals to.
   */
  struct KernelTerm {
    int cluster_id = -1;  // shared-regression id on this GPU
    double x = 0;         // batch-scaled driver value fed into the fit
    double us = 0;        // the term's TermUs value, pre-calibration
  };

  /**
   * Appends the per-kernel terms of `layer` on `gpu_name` at `batch` to
   * `out`. Returns false — appending nothing — when the layer resolves
   * through the LW fallback or misses the mapping table entirely (no
   * cluster to attribute to). For resolved layers the terms sum, times
   * CalibrationFor(gpu_name), to PredictLayerUs. Fatal on an untrained
   * GPU, like the predict path.
   */
  bool AppendKernelTerms(const dnn::Layer& layer, const std::string& gpu_name,
                         std::int64_t batch,
                         std::vector<KernelTerm>* out) const;

  /**
   * Replaces the shared fit of cluster `cluster_id` on `gpu_name` with
   * `fit` — every kernel in the cluster — and rebuilds the dense
   * prediction tables (which also discards this generation's compiled
   * plans and sid memos). Returns the number of kernel models updated;
   * 0 means unknown GPU or cluster and leaves the model untouched.
   * The online-refit path (models/refit) is the intended caller.
   */
  int UpdateClusterFit(const std::string& gpu_name, int cluster_id,
                       const regression::LinearFit& fit);

  /** How much of a network the trained scope covers (PredictorStack). */
  struct Coverage {
    bool gpu_trained = false;  // model has kernels for this GPU
    int layers = 0;            // layers in the network
    int mapped = 0;            // layers resolved (no-kernel layers count)
    bool Full() const { return gpu_trained && mapped == layers; }
  };

  /**
   * Reports whether `gpu_name` is trained and how many of `network`'s
   * layers resolve through the mapping table (full or reduced signature).
   * Layers that miss entirely would silently use the last-resort LW
   * fallback inside PredictUs; callers wanting observable degradation
   * (the predictor stack) check this first.
   */
  Coverage CoverageFor(const dnn::Network& network,
                       const std::string& gpu_name) const;

  /** Trained per-kernel models of one GPU (IGKW consumes these). */
  const std::map<std::string, KernelModel>& KernelModels(
      const std::string& gpu_name) const;

  /** GPUs the model was trained for. */
  std::vector<std::string> TrainedGpus() const;

  /** Distinct kernels recorded for `gpu_name`. */
  int KernelCount(const std::string& gpu_name) const;

  /** Regression models after clustering for `gpu_name`. */
  int ClusterCount(const std::string& gpu_name) const;

  /** The fitted e2e calibration factor for `gpu_name` (1.0 if disabled). */
  double CalibrationFor(const std::string& gpu_name) const;

  /** The signature -> kernel-list mapping table. */
  const std::map<std::string, std::vector<std::string>>& MappingTable()
      const {
    return mapping_;
  }

  const KwOptions& options() const { return options_; }

 private:
  friend class ModelIo;
  // IGKW resolves layers through this model's signature ids and
  // per-network memo, and emits its fallback layers through it.
  friend class IgkwModel;

  /** One mapping-table kernel resolved to its fitted line. */
  struct ResolvedKernel {
    gpuexec::CostDriver driver = gpuexec::CostDriver::kOperation;
    double slope = 0;
    double intercept = 0;
    int cluster_id = -1;  // explain/drift metadata; the fold ignores it
  };

  /** A layer signature fully resolved for one GPU. */
  struct ResolvedLayer {
    bool use_lw = false;  // a kernel had no usable model: LW fallback
    std::vector<ResolvedKernel> kernels;
  };

  /**
   * Builds the dense prediction tables from the string-keyed training
   * state. Called at the end of Train() and after ModelIo::LoadKw();
   * every string lookup, prefix-match fallback, and cluster count the
   * old predict path performed per call is resolved here once.
   */
  void FinalizeTables();

  /** Dense signature id of `layer` (full, then reduced), or -1. */
  int ResolveSid(const dnn::Layer& layer) const;

  /**
   * The per-layer signature ids of `network`, resolved on first sight
   * and memoized — the one resolution path of PredictUs, plan compiles
   * and coverage checks (and of IGKW, which shares these ids).
   */
  const std::vector<int>& SidsFor(const dnn::Network& network) const;

  /** Dense index of a trained GPU; Fatal on an untrained one. */
  int GpuIndex(const std::string& gpu_name) const;

  /**
   * The one per-layer term emitter (see models/prediction_plan.h): emits
   * `layer` into `sink` as one BeginLayer(calibration, `extra_scale`)
   * plus one AddTerm per kernel. A layer-wise fallback layer (unmapped
   * signature or an unusable kernel) is one FLOPs term with scale 1.0,
   * its fit read from the dense lw_fits_ table.
   * The three per-sample driver values are computed once per layer.
   * `extra_scale` is 1.0 unless IGKW rescales a fallback layer.
   */
  template <typename Sink>
  void EmitLayer(int gpu_idx, int sid, const dnn::Layer& layer,
                 double extra_scale, Sink& sink) const;

  /** EmitLayer over every layer of `network`, through the sid memo. */
  template <typename Sink>
  void EmitNetwork(int gpu_idx, const dnn::Network& network,
                   Sink& sink) const;

  /**
   * Compiles the whole network for one GPU (PlanFor cache misses)
   * through PredictionPlan::Compile: one plan layer per network layer,
   * each array allocated once at its exact size.
   */
  PredictionPlan CompilePlan(const dnn::Network& network, int gpu_idx) const;

  KwOptions options_;
  // gpu name -> kernel name -> trained model.
  std::map<std::string, std::map<std::string, KernelModel>> per_gpu_;
  // layer signature -> ordered kernel names.
  std::map<std::string, std::vector<std::string>> mapping_;
  // Per-GPU end-to-end calibration factors.
  std::map<std::string, double> calibration_;
  // Last-resort per-layer-kind fallback.
  LwModel lw_fallback_;

  // --- Dense tables built by FinalizeTables(); indexed by gpu idx / sid.
  std::unordered_map<std::string, int> gpu_index_;
  std::vector<double> calibration_by_gpu_;
  std::vector<int> cluster_counts_;
  std::unordered_map<std::string, int> sig_index_;
  // reduced signature (kind + filter params) -> its first full sid.
  std::unordered_map<std::string, int> reduced_index_;
  std::vector<int> sid_kernel_counts_;  // mapping-table list length
  std::vector<std::vector<ResolvedLayer>> resolved_;  // [gpu][sid]
  // The layer-wise fallback fits, [gpu * dnn::kLayerKindCount + kind];
  // empty where lw_fallback_ has no fit. Held by value, so a model copy
  // needs no pointer fix-up.
  std::vector<std::optional<regression::LinearFit>> lw_fits_;
  // network name -> per-layer sids, filled lazily on prediction.
  NetworkSidCache predict_cache_;
  // (network, gpu) -> compiled plan, filled lazily by PlanFor.
  PlanCache plan_cache_;
};

/** Drops the shape components of a layer signature (fallback table key). */
std::string ReducedSignature(const std::string& signature);

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_KW_MODEL_H_
