#include "models/lw_model.h"

#include "common/logging.h"
#include "dnn/flops.h"
#include "models/prediction_plan.h"

namespace gpuperf::models {

void LwModel::Train(const dataset::Dataset& data,
                    const dataset::NetworkSplit& split) {
  fits_.clear();
  // Layer time = sum of its kernels' times; aggregate per
  // (gpu, network, layer_index) first, then bucket by layer kind.
  struct LayerAccum {
    double time_us = 0;
    double flops = 0;
    dnn::LayerKind kind = dnn::LayerKind::kRelu;
  };
  std::map<std::tuple<int, int, int>, LayerAccum> layers;
  for (const dataset::KernelRow& row : data.kernel_rows()) {
    if (split.IsTest(row.network_id)) continue;
    LayerAccum& accum =
        layers[{row.gpu_id, row.network_id, row.layer_index}];
    accum.time_us += row.time_us;
    accum.flops = static_cast<double>(row.layer_flops);
    accum.kind = row.layer_kind;
  }
  std::map<std::pair<std::string, dnn::LayerKind>,
           std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (const auto& [key, accum] : layers) {
    auto& [x, y] =
        samples[{data.gpus().Get(std::get<0>(key)), accum.kind}];
    x.push_back(accum.flops);
    y.push_back(accum.time_us);
  }
  for (auto& [key, xy] : samples) {
    fits_[key] = regression::FitLinear(xy.first, xy.second);
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
