#ifndef GPUPERF_MODELS_IGKW_MODEL_H_
#define GPUPERF_MODELS_IGKW_MODEL_H_

/**
 * @file
 * The Inter-GPU Kernel-Wise model (Section 5.5): predicts a GPU that is
 * not in the training set by regressing each kernel's KW parameters
 * against GPU theoretical specifications (O6).
 *
 * The paper selects memory bandwidth as the scaling feature; for every
 * kernel the KW slope on the training GPUs is fit as
 * slope = a + b / bandwidth (memory-bound kernels are pure b/bandwidth,
 * compute-bound kernels pure a), and likewise for the intercept.
 * Prediction needs only the target GPU's Table 1 numbers — hypothetical
 * GPUs (case study 1) are supported by construction. The feature choice
 * is parameterized to support the paper's discussion-section ablation
 * (bandwidth vs TFLOPS vs both).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "dnn/layer.h"
#include "gpuexec/kernel.h"
#include "models/kw_model.h"
#include "models/predictor.h"

namespace gpuperf::models {

/** Which Table 1 column(s) drive the inter-GPU parameter scaling. */
enum class ScalingFeature {
  kBandwidth,  // the paper's choice (O6)
  kTflops,     // ablation: theoretical FP32 throughput
  kBoth,       // ablation: both reciprocals
};

/** Spec-parameterized regression of one kernel. */
struct InterGpuKernelModel {
  gpuexec::CostDriver driver = gpuexec::CostDriver::kOperation;
  // slope(gpu) = slope_beta[0] + sum_i slope_beta[i+1] * feature_i(gpu)
  std::vector<double> slope_beta;
  std::vector<double> intercept_beta;
};

/** The Inter-GPU Kernel-Wise predictor. */
class IgkwModel : public Predictor {
 public:
  /**
   * Trains per-kernel KW models on `training_gpus` (which must all be in
   * `data`), then fits the spec scaling laws. The driver of a kernel is
   * the majority vote across training GPUs.
   */
  void Train(const dataset::Dataset& data, const dataset::NetworkSplit& split,
             const std::vector<std::string>& training_gpus,
             ScalingFeature feature = ScalingFeature::kBandwidth,
             const KwOptions& options = KwOptions());

  std::string Name() const override { return "IGKW"; }

  /** Predicts from `gpu`'s Table 1 numbers only; `gpu.name` is ignored. */
  double PredictUs(const dnn::Network& network, const gpuexec::GpuSpec& gpu,
                   std::int64_t batch) const override;

  /**
   * Batched prediction through compiled plans (scaling laws evaluated
   * once at compile time per (network, GPU-spec) pair, not per query).
   * Bit-identical to per-query PredictUs. Hypothetical GPUs are keyed
   * by their scaling-feature values, so two specs with equal features
   * share a plan — by construction they predict identically.
   */
  void PredictMany(std::span<const PredictQuery> queries,
                   std::span<double> out_us) const override;

  /**
   * The compiled plan for (`network`, `gpu`), compiling and caching it
   * on first use. Valid for the model's lifetime (or until retrain).
   */
  const PredictionPlan* PlanFor(const dnn::Network& network,
                                const gpuexec::GpuSpec& gpu) const;

  /** Per-layer prediction for a (possibly hypothetical) GPU spec. */
  double PredictLayerUs(const dnn::Layer& layer, const gpuexec::GpuSpec& gpu,
                        std::int64_t batch) const;

  /** The kernel's fitted line on a (possibly hypothetical) GPU spec. */
  regression::LinearFit KernelFitAt(const InterGpuKernelModel& law,
                                    const gpuexec::GpuSpec& gpu) const;

  /** The underlying per-GPU KW model (for inspection). */
  const KwModel& kw_model() const { return kw_; }

  /** Scaling law for `kernel_name`, or nullptr if unknown. */
  const InterGpuKernelModel* KernelLaw(const std::string& kernel_name) const;

 private:
  /** A layer signature resolved to its kernels' scaling laws. */
  struct ResolvedSig {
    bool fallback = false;  // a kernel has no law: nearest-GPU estimate
    std::vector<InterGpuKernelModel> laws;
  };

  /** Feature vector of a GPU spec under the configured ScalingFeature. */
  std::vector<double> Features(const gpuexec::GpuSpec& gpu) const;

  /**
   * Resolves the mapping table into per-signature law lists, indexed by
   * the inner KW model's signature ids.
   */
  void FinalizeTables();

  /** What a target spec fixes for one predict or compile call. */
  struct Target {
    std::vector<double> features;  // Features(spec)
    int nearest_idx = -1;  // kw_ index of the nearest-bandwidth training GPU
    double ratio = 1.0;    // its bandwidth / the spec's: fallback scale
  };
  Target TargetFor(const gpuexec::GpuSpec& gpu) const;

  /**
   * The one per-layer term emitter (see models/prediction_plan.h):
   * BeginLayer(mean calibration, 1.0, name) plus one AddTerm per kernel
   * law evaluated at the target's features. Fallback layers go to
   * kw_.EmitLayer on the nearest training GPU with the bandwidth ratio
   * as its extra scale.
   */
  template <typename Sink>
  void EmitLayer(const Target& target, int sid, const dnn::Layer& layer,
                 Sink& sink) const;

  /** EmitLayer over every layer of `network`, through kw_'s sid memo. */
  template <typename Sink>
  void EmitNetwork(const Target& target, const dnn::Network& network,
                   Sink& sink) const;

  /** The fitted line evaluated from precomputed features. */
  regression::LinearFit FitFromFeatures(
      const InterGpuKernelModel& law,
      const std::vector<double>& features) const;

  /** Compiles the whole network for one GPU spec (PlanFor misses). */
  PredictionPlan CompilePlan(const dnn::Network& network,
                             const gpuexec::GpuSpec& gpu) const;

  KwModel kw_;
  double mean_calibration_ = 1.0;  // mean of the training GPUs' factors
  ScalingFeature feature_ = ScalingFeature::kBandwidth;
  std::map<std::string, InterGpuKernelModel> laws_;
  std::vector<std::string> training_gpus_;

  // Built by FinalizeTables(); indexed by kw_'s signature ids. Layers
  // resolve through kw_ (and its per-network sid memo), so IGKW keeps
  // no signature index of its own.
  std::vector<ResolvedSig> resolved_;
  // (network, gpu features) -> compiled plan, filled lazily by PlanFor.
  PlanCache plan_cache_;
};

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_IGKW_MODEL_H_
