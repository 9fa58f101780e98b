#include "models/igkw_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "dnn/flops.h"
#include "gpuexec/gpu_spec.h"
#include "regression/linreg.h"

namespace gpuperf::models {

using gpuexec::CostDriver;

std::vector<double> IgkwModel::Features(const gpuexec::GpuSpec& gpu) const {
  GP_CHECK_GT(gpu.bandwidth_gbps, 0.0);
  GP_CHECK_GT(gpu.fp32_tflops, 0.0);
  switch (feature_) {
    case ScalingFeature::kBandwidth:
      return {1.0 / gpu.bandwidth_gbps};
    case ScalingFeature::kTflops:
      return {1.0 / gpu.fp32_tflops};
    case ScalingFeature::kBoth:
      return {1.0 / gpu.bandwidth_gbps, 1.0 / gpu.fp32_tflops};
  }
  GP_CHECK(false);
  return {};
}

regression::LinearFit IgkwModel::FitFromFeatures(
    const InterGpuKernelModel& law,
    const std::vector<double>& features) const {
  auto evaluate = [&](const std::vector<double>& beta) {
    GP_CHECK_EQ(beta.size(), features.size() + 1);
    double value = beta[0];
    for (std::size_t i = 0; i < features.size(); ++i) {
      value += beta[i + 1] * features[i];
    }
    return value;
  };
  regression::LinearFit fit;
  fit.slope = std::max(0.0, evaluate(law.slope_beta));
  fit.intercept = std::max(0.0, evaluate(law.intercept_beta));
  return fit;
}

regression::LinearFit IgkwModel::KernelFitAt(
    const InterGpuKernelModel& law, const gpuexec::GpuSpec& gpu) const {
  return FitFromFeatures(law, Features(gpu));
}

void IgkwModel::Train(const dataset::Dataset& data,
                      const dataset::NetworkSplit& split,
                      const std::vector<std::string>& training_gpus,
                      ScalingFeature feature, const KwOptions& options) {
  GP_CHECK_GE(training_gpus.size(), 2u)
      << "spec scaling needs at least two training GPUs";
  kw_ = KwModel(options);
  kw_.Train(data, split);
  training_gpus_ = training_gpus;
  feature_ = feature;
  laws_.clear();
  mean_calibration_ = 0;
  for (const std::string& gpu : training_gpus) {
    mean_calibration_ += kw_.CalibrationFor(gpu);
  }
  mean_calibration_ /= static_cast<double>(training_gpus.size());

  const std::size_t feature_count = Features(
      gpuexec::GpuByName(training_gpus.front())).size();

  // Kernel universe: names seen on the first training GPU.
  for (const auto& [name, first_model] :
       kw_.KernelModels(training_gpus.front())) {
    (void)first_model;
    // Majority driver across training GPUs.
    int votes[3] = {0, 0, 0};
    for (const std::string& gpu : training_gpus) {
      const auto& kernels = kw_.KernelModels(gpu);
      auto it = kernels.find(name);
      if (it != kernels.end()) ++votes[static_cast<int>(it->second.driver)];
    }
    int majority = 0;
    for (int d = 1; d < 3; ++d) {
      if (votes[d] > votes[majority]) majority = d;
    }
    InterGpuKernelModel law;
    law.driver = static_cast<CostDriver>(majority);

    // Gather (features, slope/intercept) over driver-consistent training
    // GPUs; inconsistent drivers would mix incomparable x units.
    std::vector<std::vector<double>> rows;
    std::vector<double> slopes, intercepts;
    for (const std::string& gpu : training_gpus) {
      const auto& kernels = kw_.KernelModels(gpu);
      auto it = kernels.find(name);
      if (it == kernels.end() || it->second.driver != law.driver) continue;
      rows.push_back(Features(gpuexec::GpuByName(gpu)));
      slopes.push_back(it->second.fit.slope);
      intercepts.push_back(it->second.fit.intercept);
    }
    if (rows.empty()) continue;
    if (rows.size() <= feature_count) {
      // Too few GPUs for a full fit: constant law from the mean.
      law.slope_beta.assign(feature_count + 1, 0.0);
      law.intercept_beta.assign(feature_count + 1, 0.0);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        law.slope_beta[0] += slopes[i] / static_cast<double>(rows.size());
        law.intercept_beta[0] +=
            intercepts[i] / static_cast<double>(rows.size());
      }
    } else {
      law.slope_beta = regression::FitMulti(rows, slopes).beta;
      law.intercept_beta = regression::FitMulti(rows, intercepts).beta;
    }
    laws_[name] = law;
  }

  FinalizeTables();
}

void IgkwModel::FinalizeTables() {
  plan_cache_.Clear();
  // kw_ numbers signatures in mapping-table order, so walking the same
  // table in the same order gives resolved_ exactly kw_'s ids.
  const std::map<std::string, std::vector<std::string>>& mapping =
      kw_.MappingTable();
  resolved_.clear();
  resolved_.reserve(mapping.size());
  for (const auto& [signature, names] : mapping) {
    (void)signature;
    ResolvedSig& sig = resolved_.emplace_back();
    for (const std::string& name : names) {
      auto it = laws_.find(name);
      if (it == laws_.end()) {
        sig.fallback = true;
        sig.laws.clear();
        break;
      }
      sig.laws.push_back(it->second);
    }
  }
  GP_CHECK_EQ(resolved_.size(), kw_.sig_index_.size());
}

IgkwModel::Target IgkwModel::TargetFor(const gpuexec::GpuSpec& gpu) const {
  Target target;
  target.features = Features(gpu);
  // Fallback layers use the nearest-bandwidth training GPU's KW
  // estimate, scaled by the bandwidth ratio (memory-bound default).
  const std::string* nearest = &training_gpus_.front();
  double best = 1e300;
  for (const std::string& name : training_gpus_) {
    const double gap = std::fabs(
        gpuexec::GpuByName(name).bandwidth_gbps - gpu.bandwidth_gbps);
    if (gap < best) {
      best = gap;
      nearest = &name;
    }
  }
  target.nearest_idx = kw_.GpuIndex(*nearest);
  target.ratio =
      gpuexec::GpuByName(*nearest).bandwidth_gbps / gpu.bandwidth_gbps;
  return target;
}

template <typename Sink>
void IgkwModel::EmitLayer(const Target& target, int sid,
                          const dnn::Layer& layer, Sink& sink) const {
  if (sid < 0 || resolved_[sid].fallback) {
    // The sid is kw_'s, so the KW model needs no second resolution.
    kw_.EmitLayer(target.nearest_idx, sid, layer, target.ratio, sink);
    return;
  }
  // Per-sample driver values, indexed by CostDriver.
  const std::int64_t per_sample[] = {layer.InputElements(),
                                     dnn::LayerFlops(layer, 1),
                                     layer.output.Elements()};
  sink.BeginLayer(mean_calibration_, 1.0);
  for (const InterGpuKernelModel& law : resolved_[sid].laws) {
    const regression::LinearFit fit = FitFromFeatures(law, target.features);
    sink.AddTerm(per_sample[static_cast<int>(law.driver)], fit.slope,
                 fit.intercept, -1);
  }
}

template <typename Sink>
void IgkwModel::EmitNetwork(const Target& target, const dnn::Network& network,
                            Sink& sink) const {
  // Per-layer signature resolution is memoized per network (in kw_,
  // shared with KW), so the loop does no string work.
  const std::vector<int>& sids = kw_.SidsFor(network);
  const std::vector<dnn::Layer>& layers = network.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EmitLayer(target, sids[i], layers[i], sink);
  }
}

double IgkwModel::PredictLayerUs(const dnn::Layer& layer,
                                 const gpuexec::GpuSpec& gpu,
                                 std::int64_t batch) const {
  BatchSum sum(batch);
  EmitLayer(TargetFor(gpu), kw_.ResolveSid(layer), layer, sum);
  return sum.TotalUs();
}

double IgkwModel::PredictUs(const dnn::Network& network,
                            const gpuexec::GpuSpec& gpu,
                            std::int64_t batch) const {
  BatchSum sum(batch);
  EmitNetwork(TargetFor(gpu), network, sum);
  return sum.TotalUs();
}

PredictionPlan IgkwModel::CompilePlan(const dnn::Network& network,
                                      const gpuexec::GpuSpec& gpu) const {
  const Target target = TargetFor(gpu);
  return PredictionPlan::Compile([&](PredictionPlan& plan) {
    EmitNetwork(target, network, plan);
  });
}

const PredictionPlan* IgkwModel::PlanFor(const dnn::Network& network,
                                         const gpuexec::GpuSpec& gpu) const {
  // Spec-driven slot key: everything a plan bakes in — the scaling
  // features and the fallback bandwidth ratio — derives from these two
  // numbers, so hypothetical GPUs (no stable name) key correctly and
  // equal-spec GPUs share a plan.
  PlanCache::SlotKey slot;
  slot.feature_a = gpu.bandwidth_gbps;
  slot.feature_b = gpu.fp32_tflops;
  return plan_cache_.Get(network, slot,
                         [&] { return CompilePlan(network, gpu); });
}

void IgkwModel::PredictMany(std::span<const PredictQuery> queries,
                            std::span<double> out_us) const {
  internal::SweepPlans(
      queries, out_us,
      [this](const dnn::Network& network, const gpuexec::GpuSpec& gpu) {
        return PlanFor(network, gpu);
      });
}

const InterGpuKernelModel* IgkwModel::KernelLaw(
    const std::string& kernel_name) const {
  auto it = laws_.find(kernel_name);
  return it == laws_.end() ? nullptr : &it->second;
}

}  // namespace gpuperf::models
