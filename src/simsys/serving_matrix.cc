#include "simsys/serving_matrix.h"

#include <cmath>
#include <span>

#include "gpuexec/oracle.h"
#include "gpuexec/profiler.h"

namespace gpuperf::simsys {

std::vector<std::vector<double>> TruthMatrix(
    const std::vector<dnn::Network>& networks,
    const std::vector<const gpuexec::GpuSpec*>& gpus, std::int64_t batch) {
  const gpuexec::HardwareOracle oracle;
  const gpuexec::Profiler profiler(oracle);
  std::vector<std::vector<double>> truth;
  truth.reserve(networks.size());
  for (const dnn::Network& network : networks) {
    const gpuexec::LoweredNetwork lowered = profiler.Lower(network, batch);
    std::vector<double>& row = truth.emplace_back();
    row.reserve(gpus.size());
    for (const gpuexec::GpuSpec* gpu : gpus) {
      row.push_back(profiler.ReplayLowered(network, lowered, *gpu).e2e_time_us);
    }
  }
  return truth;
}

void FillPredictedServingMatrix(
    const models::KwModel& kw, const std::vector<dnn::Network>& networks,
    const std::vector<const gpuexec::GpuSpec*>& gpus, std::int64_t batch,
    ServingMatrixBuffer& buffer,
    std::vector<std::vector<double>>& predicted) {
  predicted.assign(networks.size(), std::vector<double>(gpus.size(), 0.0));
  buffer.queries.clear();
  buffer.cells.clear();

  // Coverage pass: uncovered cells take the NaN sentinel immediately
  // (the dispatcher degrades that decision); covered cells are packed
  // job-major, so the sweep sees same-network runs and resolves each
  // network's fingerprint and plan once.
  for (std::size_t j = 0; j < networks.size(); ++j) {
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      if (kw.CoverageFor(networks[j], gpus[g]->name).Full()) {
        buffer.queries.push_back({&networks[j], gpus[g], batch});
        buffer.cells.emplace_back(j, g);
      } else {
        predicted[j][g] = std::nan("");
      }
    }
  }

  buffer.out_us.resize(buffer.queries.size());
  kw.PredictMany(buffer.queries, buffer.out_us);
  for (std::size_t i = 0; i < buffer.cells.size(); ++i) {
    predicted[buffer.cells[i].first][buffer.cells[i].second] =
        buffer.out_us[i];
  }
}

}  // namespace gpuperf::simsys
