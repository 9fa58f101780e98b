#include "models/lw_model.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "dnn/flops.h"
#include "models/prediction_plan.h"

namespace gpuperf::models {

void LwModel::Train(const dataset::Dataset& data,
                    const dataset::NetworkSplit& split) {
  fits_.clear();
  // Layer time = sum of its kernels' times over one layer instance, a
  // (gpu, network, layer_index) key. Campaign rows come in key order;
  // other orders are stable-sorted, so each instance sums in row order.
  const std::vector<char> is_test = split.TestMask(data.networks().size());
  std::vector<const dataset::KernelRow*> rows;
  rows.reserve(data.kernel_rows().size());
  for (const dataset::KernelRow& row : data.kernel_rows()) {
    if (!is_test[row.network_id]) rows.push_back(&row);
  }
  const auto before = [](const dataset::KernelRow* a,
                         const dataset::KernelRow* b) {
    return std::tie(a->gpu_id, a->network_id, a->layer_index) <
           std::tie(b->gpu_id, b->network_id, b->layer_index);
  };
  if (!std::is_sorted(rows.begin(), rows.end(), before)) {
    std::stable_sort(rows.begin(), rows.end(), before);
  }
  // Instances in key order, bucketed by [gpu_id][layer kind]; the
  // instance's last row supplies its FLOPs and kind.
  std::vector<std::pair<std::vector<double>, std::vector<double>>> samples(
      data.gpus().size() * dnn::kLayerKindCount);
  for (std::size_t begin = 0, end = 0; begin < rows.size(); begin = end) {
    double time_us = 0;
    for (end = begin; end < rows.size() && !before(rows[begin], rows[end]);
         ++end) {
      time_us += rows[end]->time_us;
    }
    const dataset::KernelRow& last = *rows[end - 1];
    auto& [x, y] = samples[last.gpu_id * dnn::kLayerKindCount +
                           static_cast<int>(last.layer_kind)];
    x.push_back(static_cast<double>(last.layer_flops));
    y.push_back(time_us);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].first.empty()) continue;
    fits_[{data.gpus().Get(static_cast<int>(i) / dnn::kLayerKindCount),
           static_cast<dnn::LayerKind>(i % dnn::kLayerKindCount)}] =
        regression::FitLinear(samples[i].first, samples[i].second);
  }
}

double LwModel::PredictLayerUs(const dnn::Layer& layer,
                               const std::string& gpu_name,
                               std::int64_t batch) const {
  const regression::LinearFit* fit = FitFor(gpu_name, layer.kind);
  if (fit == nullptr) return 0.0;  // unseen layer type contributes nothing
  // The KW fallback term; FLOPs are exactly batch-linear in int64.
  return TermUs(batch, dnn::LayerFlops(layer, 1), fit->slope, fit->intercept);
}

double LwModel::PredictUs(const dnn::Network& network,
                          const gpuexec::GpuSpec& gpu,
                          std::int64_t batch) const {
  double total = 0;
  for (const dnn::Layer& layer : network.layers()) {
    total += PredictLayerUs(layer, gpu.name, batch);
  }
  return total;
}

const regression::LinearFit* LwModel::FitFor(const std::string& gpu_name,
                                             dnn::LayerKind kind) const {
  auto it = fits_.find({gpu_name, kind});
  return it == fits_.end() ? nullptr : &it->second;
}

void LwModel::SetFit(const std::string& gpu_name, dnn::LayerKind kind,
                     const regression::LinearFit& fit) {
  fits_[{gpu_name, kind}] = fit;
}

}  // namespace gpuperf::models
