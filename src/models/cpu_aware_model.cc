#include "models/cpu_aware_model.h"

#include <algorithm>

#include "common/logging.h"
#include "regression/linreg.h"

namespace gpuperf::models {

void CpuAwareModel::Train(const KwModel& kw, const dataset::Dataset& data,
                          const dataset::NetworkSplit& split,
                          double launch_bound_threshold) {
  GP_CHECK_GT(launch_bound_threshold, 1.0);
  kw_ = kw;
  fits_.clear();

  // Kernel counts per (gpu, network) from the campaign's traces.
  std::map<std::pair<int, int>, std::int64_t> kernel_counts;
  for (const dataset::KernelRow& row : data.kernel_rows()) {
    ++kernel_counts[{row.gpu_id, row.network_id}];
  }

  // Launch-bound runs: wall time well above GPU busy time.
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> samples;
  for (const dataset::NetworkRow& row : data.network_rows()) {
    if (split.IsTest(row.network_id)) continue;
    if (row.e2e_us < launch_bound_threshold * row.gpu_busy_us) continue;
    auto it = kernel_counts.find({row.gpu_id, row.network_id});
    if (it == kernel_counts.end()) continue;
    auto& [x, y] = samples[row.gpu_id];
    x.push_back(static_cast<double>(it->second));
    y.push_back(row.e2e_us);
  }
  for (const auto& [gpu_id, xy] : samples) {
    regression::LinearFit fit = regression::FitLinear(xy.first, xy.second);
    CpuPipelineFit cpu;
    cpu.overhead_us = std::max(0.0, fit.intercept);
    cpu.per_kernel_us = std::max(0.0, fit.slope);
    cpu.samples = xy.first.size();
    fits_[data.gpus().Get(gpu_id)] = cpu;
  }
}

std::int64_t CpuAwareModel::PredictKernelCount(
    const dnn::Network& network) const {
  return kw_.MappedKernelCount(network);
}

double CpuAwareModel::PredictUs(const dnn::Network& network,
                                const gpuexec::GpuSpec& gpu,
                                std::int64_t batch) const {
  const double gpu_us = kw_.PredictUs(network, gpu, batch);
  const CpuPipelineFit& cpu = FitFor(gpu.name);
  if (cpu.samples == 0) return gpu_us;
  const double cpu_us =
      cpu.overhead_us +
      cpu.per_kernel_us * static_cast<double>(PredictKernelCount(network));
  return std::max(gpu_us, cpu_us);
}

const CpuPipelineFit& CpuAwareModel::FitFor(
    const std::string& gpu_name) const {
  static const CpuPipelineFit kNone{};
  auto it = fits_.find(gpu_name);
  return it == fits_.end() ? kNone : it->second;
}

}  // namespace gpuperf::models
