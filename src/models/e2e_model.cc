#include "models/e2e_model.h"

#include "common/logging.h"
#include "dnn/flops.h"
#include "models/prediction_plan.h"

namespace gpuperf::models {

void E2eModel::Train(const dataset::Dataset& data,
                     const dataset::NetworkSplit& split) {
  fits_.clear();
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (const dataset::NetworkRow& row : data.network_rows()) {
    if (split.IsTest(row.network_id)) continue;
    auto& [x, y] = samples[data.gpus().Get(row.gpu_id)];
    x.push_back(static_cast<double>(row.total_flops));
    y.push_back(row.e2e_us);
  }
  for (auto& [gpu, xy] : samples) {
    fits_[gpu] = regression::FitLinear(xy.first, xy.second);
  }
}

double E2eModel::PredictUs(const dnn::Network& network,
                           const gpuexec::GpuSpec& gpu,
                           std::int64_t batch) const {
  const regression::LinearFit& fit = FitFor(gpu.name);
  return TermUs(batch, dnn::NetworkFlops(network, 1), fit.slope,
                fit.intercept);
}

const regression::LinearFit& E2eModel::FitFor(
    const std::string& gpu_name) const {
  const regression::LinearFit* fit = TryFitFor(gpu_name);
  if (fit == nullptr) Fatal("E2E model not trained for GPU " + gpu_name);
  return *fit;
}

const regression::LinearFit* E2eModel::TryFitFor(
    const std::string& gpu_name) const {
  auto it = fits_.find(gpu_name);
  return it == fits_.end() ? nullptr : &it->second;
}

}  // namespace gpuperf::models
