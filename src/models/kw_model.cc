#include "models/kw_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "dnn/flops.h"
#include "gpuexec/lowering.h"

namespace gpuperf::models {
namespace {

using gpuexec::CostDriver;

constexpr CostDriver kDrivers[] = {CostDriver::kInput, CostDriver::kOperation,
                                   CostDriver::kOutput};

/** Per-kernel training sample set (one point per execution). */
struct KernelSamples {
  std::vector<double> x_input;
  std::vector<double> x_operation;
  std::vector<double> x_output;
  std::vector<double> y;

  const std::vector<double>& XFor(CostDriver driver) const {
    switch (driver) {
      case CostDriver::kInput: return x_input;
      case CostDriver::kOperation: return x_operation;
      case CostDriver::kOutput: return x_output;
    }
    GP_CHECK(false);
    return x_input;
  }
};

/** Longest common prefix length of two strings. */
std::size_t CommonPrefix(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

/**
 * The intercept-clamped OLS fit shared with the online refit path
 * (regression::FitLinearClampedIntercept): unclamped OLS can push the
 * intercept far outside the physical launch-overhead range when the
 * sampled sizes cluster, which wrecks extrapolation to small batches.
 */
regression::LinearFit ClampedFit(const std::vector<double>& x,
                                 const std::vector<double>& y,
                                 double max_intercept_us) {
  return regression::FitLinearClampedIntercept(x, y, max_intercept_us);
}

}  // namespace

std::string ReducedSignature(const std::string& signature) {
  std::vector<std::string> parts = Split(signature, '/');
  std::vector<std::string> kept;
  for (const std::string& part : parts) {
    // Shape components are "i<CxHxW>" and "o<CxHxW>".
    if (part.size() > 1 && (part[0] == 'i' || part[0] == 'o') &&
        part.find('x') != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(part[1]))) {
      continue;
    }
    kept.push_back(part);
  }
  return Join(kept, "/");
}

KwModel::KwModel(const KwOptions& options) : options_(options) {}

void KwModel::Train(const dataset::Dataset& data,
                    const dataset::NetworkSplit& split) {
  per_gpu_.clear();
  mapping_.clear();
  reduced_mapping_.clear();

  // --- 1. Mapping table from all traces (library behaviour, not timing).
  // Rows are trace-ordered, so kernels of one layer instance are
  // consecutive; commit each instance's list on boundary change.
  {
    std::tuple<int, int, int> current{-1, -1, -1};
    int current_signature = -1;
    std::vector<std::string> names;
    auto commit = [&]() {
      if (current_signature < 0 || names.empty()) return;
      mapping_.emplace(data.signatures().Get(current_signature), names);
    };
    for (const dataset::KernelRow& row : data.kernel_rows()) {
      std::tuple<int, int, int> key{row.gpu_id, row.network_id,
                                    row.layer_index};
      if (key != current) {
        commit();
        current = key;
        current_signature = row.signature_id;
        names.clear();
      }
      names.push_back(data.kernels().Get(row.kernel_id));
    }
    commit();
    // Derive the reduced-signature fallback table from the (sorted) full
    // table, so its contents do not depend on trace order and the save/
    // load round trip reproduces it exactly.
    for (const auto& [signature, kernel_names] : mapping_) {
      reduced_mapping_.emplace(ReducedSignature(signature), kernel_names);
    }
  }

  // --- 2. Per-(GPU, kernel) samples from training networks only.
  std::map<std::pair<int, int>, KernelSamples> samples;
  for (const dataset::KernelRow& row : data.kernel_rows()) {
    if (split.IsTest(row.network_id)) continue;
    KernelSamples& s = samples[{row.gpu_id, row.kernel_id}];
    s.x_input.push_back(static_cast<double>(row.input_elems));
    s.x_operation.push_back(static_cast<double>(row.layer_flops));
    s.x_output.push_back(static_cast<double>(row.output_elems));
    s.y.push_back(row.time_us);
  }

  // Classification: the driver whose regression has the best R² (O5).
  for (auto& [key, s] : samples) {
    const std::string& gpu = data.gpus().Get(key.first);
    const std::string& kernel = data.kernels().Get(key.second);
    KernelModel model;
    if (options_.classify_drivers) {
      double best_r2 = -1e300;
      for (CostDriver driver : kDrivers) {
        regression::LinearFit fit =
            ClampedFit(s.XFor(driver), s.y, options_.max_intercept_us);
        if (fit.r2 > best_r2) {
          best_r2 = fit.r2;
          model.driver = driver;
          model.fit = fit;
        }
      }
    } else {
      model.driver = CostDriver::kOperation;
      model.fit =
          ClampedFit(s.x_operation, s.y, options_.max_intercept_us);
    }
    model.solo_r2 = model.fit.r2;
    per_gpu_[gpu][kernel] = model;
  }

  // --- 3. Clustering: merge kernels with similar lines (Section 5.4).
  if (options_.cluster) {
    for (auto& [gpu, kernels] : per_gpu_) {
      const int gpu_id = data.gpus().Find(gpu);
      for (CostDriver driver : kDrivers) {
        // Kernels of this driver sorted by slope.
        std::vector<std::string> names;
        for (const auto& [name, model] : kernels) {
          if (model.driver == driver) names.push_back(name);
        }
        std::sort(names.begin(), names.end(),
                  [&](const std::string& a, const std::string& b) {
                    return kernels.at(a).fit.slope < kernels.at(b).fit.slope;
                  });
        std::vector<std::vector<std::string>> clusters;
        for (const std::string& name : names) {
          const regression::LinearFit& fit = kernels.at(name).fit;
          bool merged = false;
          if (!clusters.empty()) {
            const regression::LinearFit& head =
                kernels.at(clusters.back().front()).fit;
            const double base = std::max(std::abs(head.slope), 1e-12);
            if (std::abs(fit.slope - head.slope) / base <=
                    options_.cluster_slope_tol &&
                std::abs(fit.intercept - head.intercept) <=
                    options_.cluster_intercept_tol_us) {
              clusters.back().push_back(name);
              merged = true;
            }
          }
          if (!merged) clusters.push_back({name});
        }
        // Refit each multi-kernel cluster on the union of its samples.
        for (std::size_t c = 0; c < clusters.size(); ++c) {
          const int cluster_id =
              static_cast<int>(driver) * 100000 + static_cast<int>(c);
          if (clusters[c].size() == 1) {
            kernels[clusters[c][0]].cluster_id = cluster_id;
            continue;
          }
          std::vector<double> x, y;
          for (const std::string& name : clusters[c]) {
            const KernelSamples& s =
                samples.at({gpu_id, data.kernels().Find(name)});
            const std::vector<double>& xs = s.XFor(driver);
            x.insert(x.end(), xs.begin(), xs.end());
            y.insert(y.end(), s.y.begin(), s.y.end());
          }
          regression::LinearFit fit =
              ClampedFit(x, y, options_.max_intercept_us);
          for (const std::string& name : clusters[c]) {
            kernels[name].fit = fit;
            kernels[name].cluster_id = cluster_id;
          }
        }
      }
    }
  } else {
    for (auto& [gpu, kernels] : per_gpu_) {
      int next = 0;
      for (auto& [name, model] : kernels) model.cluster_id = next++;
    }
  }

  // --- 4. Last-resort fallback for layers with unknown kernels.
  lw_fallback_.Train(data, split);

  // --- 5. Per-GPU end-to-end calibration: the ratio of measured wall
  // time to summed kernel predictions over the training networks.
  calibration_.clear();
  if (options_.calibrate_e2e) {
    std::map<std::pair<int, int>, double> predicted_sums;
    for (const dataset::KernelRow& row : data.kernel_rows()) {
      if (split.IsTest(row.network_id)) continue;
      const auto& kernels = per_gpu_.at(data.gpus().Get(row.gpu_id));
      auto it = kernels.find(data.kernels().Get(row.kernel_id));
      if (it == kernels.end()) continue;
      // Rows carry batch-scaled driver values, hence a batch of 1.
      predicted_sums[{row.gpu_id, row.network_id}] +=
          TermUs(1, row.DriverValue(it->second.driver), it->second.fit.slope,
                 it->second.fit.intercept);
    }
    std::map<int, std::pair<double, double>> totals;  // gpu -> (e2e, pred)
    for (const dataset::NetworkRow& row : data.network_rows()) {
      if (split.IsTest(row.network_id)) continue;
      auto it = predicted_sums.find({row.gpu_id, row.network_id});
      if (it == predicted_sums.end() || it->second <= 0) continue;
      totals[row.gpu_id].first += row.e2e_us;
      totals[row.gpu_id].second += it->second;
    }
    for (const auto& [gpu_id, sums] : totals) {
      if (sums.second > 0) {
        calibration_[data.gpus().Get(gpu_id)] = sums.first / sums.second;
      }
    }
  }

  // --- 6. Resolve the string-keyed state into dense prediction tables.
  FinalizeTables();
}

void KwModel::FinalizeTables() {
  gpu_names_.clear();
  gpu_index_.clear();
  calibration_by_gpu_.clear();
  cluster_counts_.clear();
  sig_index_.clear();
  reduced_index_.clear();
  resolved_.clear();
  predict_cache_.Clear();
  plan_cache_.Clear();

  for (const auto& [gpu, kernels] : per_gpu_) {
    gpu_index_.emplace(gpu, static_cast<int>(gpu_names_.size()));
    gpu_names_.push_back(gpu);
    calibration_by_gpu_.push_back(CalibrationFor(gpu));
    std::vector<int> ids;
    ids.reserve(kernels.size());
    for (const auto& [name, model] : kernels) ids.push_back(model.cluster_id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    cluster_counts_.push_back(static_cast<int>(ids.size()));
  }

  // Signature ids follow the sorted mapping-table order; the reduced
  // index keeps the first full signature per reduced key, matching the
  // emplace semantics used to derive reduced_mapping_.
  for (const auto& [signature, names] : mapping_) {
    (void)names;
    sig_index_.emplace(signature, static_cast<int>(sig_index_.size()));
  }
  for (const auto& [signature, names] : mapping_) {
    (void)names;
    reduced_index_.emplace(ReducedSignature(signature),
                           sig_index_.at(signature));
  }

  // Resolve every (gpu, signature) to concrete fitted lines, applying
  // the exact-name then longest-common-prefix lookup (tile-variant
  // mismatch) that the predict path previously re-ran per call.
  resolved_.assign(gpu_names_.size(), {});
  for (std::size_t g = 0; g < gpu_names_.size(); ++g) {
    const std::map<std::string, KernelModel>& kernels =
        per_gpu_.at(gpu_names_[g]);
    resolved_[g].resize(sig_index_.size());
    for (const auto& [signature, names] : mapping_) {
      ResolvedLayer& layer = resolved_[g][sig_index_.at(signature)];
      for (const std::string& name : names) {
        const KernelModel* model = nullptr;
        auto kernel_it = kernels.find(name);
        if (kernel_it != kernels.end()) {
          model = &kernel_it->second;
        } else {
          std::size_t best_prefix = 0;
          for (const auto& [candidate, candidate_model] : kernels) {
            const std::size_t prefix = CommonPrefix(candidate, name);
            if (prefix > best_prefix) {
              best_prefix = prefix;
              model = &candidate_model;
            }
          }
          if (model == nullptr || best_prefix < name.size() / 2) {
            layer.use_lw = true;
            layer.kernels.clear();
            break;
          }
        }
        layer.kernels.push_back({model->driver, model->fit.slope,
                                 model->fit.intercept, model->cluster_id});
      }
    }
  }
}

double KwModel::CalibrationFor(const std::string& gpu_name) const {
  auto it = calibration_.find(gpu_name);
  return it == calibration_.end() ? 1.0 : it->second;
}

std::vector<std::string> KwModel::KernelsForLayer(
    const dnn::Layer& layer) const {
  const std::string signature = dnn::LayerSignature(layer);
  auto it = mapping_.find(signature);
  if (it != mapping_.end()) return it->second;
  auto reduced = reduced_mapping_.find(ReducedSignature(signature));
  if (reduced != reduced_mapping_.end()) return reduced->second;
  return {};
}

KwModel::Coverage KwModel::CoverageFor(const dnn::Network& network,
                                       const std::string& gpu_name) const {
  Coverage coverage;
  coverage.gpu_trained = gpu_index_.find(gpu_name) != gpu_index_.end();
  coverage.layers = static_cast<int>(network.layers().size());
  // Reuses the per-network sid memo, so steady-state coverage checks are
  // one hash lookup, not one signature build per layer.
  const std::vector<int>& sids = SidsFor(network);
  for (std::size_t i = 0; i < sids.size(); ++i) {
    // Layers that launch no kernels (flatten, dropout) never appear in
    // profiled traces, so they have no mapping entry by construction;
    // the model still predicts them exactly (zero time).
    if (sids[i] >= 0 ||
        !gpuexec::LayerLaunchesKernels(network.layers()[i].kind)) {
      ++coverage.mapped;
    }
  }
  return coverage;
}

int KwModel::ResolveSid(const dnn::Layer& layer) const {
  const std::string signature = dnn::LayerSignature(layer);
  auto it = sig_index_.find(signature);
  if (it != sig_index_.end()) return it->second;
  auto reduced = reduced_index_.find(ReducedSignature(signature));
  if (reduced != reduced_index_.end()) return reduced->second;
  return -1;
}

const std::vector<int>& KwModel::SidsFor(const dnn::Network& network) const {
  return *predict_cache_.Get(
      network, [this](const dnn::Layer& layer) { return ResolveSid(layer); });
}

int KwModel::GpuIndex(const std::string& gpu_name) const {
  auto it = gpu_index_.find(gpu_name);
  if (it == gpu_index_.end()) {
    Fatal("KW model not trained for GPU " + gpu_name);
  }
  return it->second;
}

template <typename Sink>
void KwModel::EmitLayer(int gpu_idx, int sid, const dnn::Layer& layer,
                        double extra_scale, Sink& sink) const {
  if (sid < 0 || resolved_[gpu_idx][sid].use_lw) {
    // Unknown layer configuration or kernel: one layer-wise FLOPs term,
    // no calibration factor.
    sink.BeginLayer(1.0, extra_scale, layer.name);
    const regression::LinearFit* fit =
        lw_fallback_.FitFor(gpu_names_[gpu_idx], layer.kind);
    if (fit != nullptr) {
      sink.AddTerm(dnn::LayerFlops(layer, 1), fit->slope, fit->intercept,
                   -1);
    }
    return;
  }
  // Per-sample driver values, indexed by CostDriver.
  const std::int64_t per_sample[] = {layer.InputElements(),
                                     dnn::LayerFlops(layer, 1),
                                     layer.output.Elements()};
  sink.BeginLayer(calibration_by_gpu_[gpu_idx], extra_scale, layer.name);
  for (const ResolvedKernel& kernel : resolved_[gpu_idx][sid].kernels) {
    sink.AddTerm(per_sample[static_cast<int>(kernel.driver)], kernel.slope,
                 kernel.intercept, kernel.cluster_id);
  }
}

// IGKW emits its fallback layers through this model into both sinks.
template void KwModel::EmitLayer(int, int, const dnn::Layer&, double,
                                 BatchSum&) const;
template void KwModel::EmitLayer(int, int, const dnn::Layer&, double,
                                 PredictionPlan&) const;

bool KwModel::AppendKernelTerms(const dnn::Layer& layer,
                                const std::string& gpu_name,
                                std::int64_t batch,
                                std::vector<KernelTerm>* out) const {
  const int gpu_idx = GpuIndex(gpu_name);
  const int sid = ResolveSid(layer);
  if (sid < 0 || resolved_[gpu_idx][sid].use_lw) return false;
  // Each term as the fold sees it, before the layer's calibration.
  struct TermSink {
    std::int64_t batch;
    std::vector<KernelTerm>* out;
    void BeginLayer(double, double, const std::string&) {}
    void AddTerm(std::int64_t value, double slope, double intercept,
                 int cluster_id) {
      out->push_back({cluster_id, static_cast<double>(batch * value),
                      TermUs(batch, value, slope, intercept)});
    }
  } sink{batch, out};
  EmitLayer(gpu_idx, sid, layer, 1.0, sink);
  return true;
}

int KwModel::UpdateClusterFit(const std::string& gpu_name, int cluster_id,
                              const regression::LinearFit& fit) {
  auto it = per_gpu_.find(gpu_name);
  if (it == per_gpu_.end()) return 0;
  int updated = 0;
  for (auto& [name, model] : it->second) {
    if (model.cluster_id == cluster_id) {
      model.fit = fit;
      ++updated;
    }
  }
  if (updated > 0) FinalizeTables();
  return updated;
}

template <typename Sink>
void KwModel::EmitNetwork(int gpu_idx, const dnn::Network& network,
                          Sink& sink) const {
  // Signature ids come from the per-network memo, so the loop does no
  // string building, hashing, or map lookups, and a network compiled
  // for all seven GPUs builds its signatures once.
  const std::vector<int>& sids = SidsFor(network);
  const std::vector<dnn::Layer>& layers = network.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EmitLayer(gpu_idx, sids[i], layers[i], 1.0, sink);
  }
}

double KwModel::PredictLayerUs(const dnn::Layer& layer,
                               const std::string& gpu_name,
                               std::int64_t batch) const {
  BatchSum sum(batch);
  EmitLayer(GpuIndex(gpu_name), ResolveSid(layer), layer, 1.0, sum);
  return sum.TotalUs();
}

double KwModel::PredictUs(const dnn::Network& network,
                          const gpuexec::GpuSpec& gpu,
                          std::int64_t batch) const {
  BatchSum sum(batch);
  EmitNetwork(GpuIndex(gpu.name), network, sum);
  return sum.TotalUs();
}

PredictionPlan KwModel::CompilePlan(const dnn::Network& network,
                                    int gpu_idx) const {
  PredictionPlan plan;
  EmitNetwork(gpu_idx, network, plan);
  return plan;
}

const PredictionPlan* KwModel::PlanFor(const dnn::Network& network,
                                       const gpuexec::GpuSpec& gpu) const {
  PlanCache::SlotKey slot;
  slot.gpu_index = GpuIndex(gpu.name);
  return plan_cache_.Get(network, slot, [&] {
    return CompilePlan(network, slot.gpu_index);
  });
}

void KwModel::PredictMany(std::span<const PredictQuery> queries,
                          std::span<double> out_us) const {
  internal::SweepPlans(
      queries, out_us,
      [this](const dnn::Network& network, const gpuexec::GpuSpec& gpu) {
        return PlanFor(network, gpu);
      });
}

const std::map<std::string, KernelModel>& KwModel::KernelModels(
    const std::string& gpu_name) const {
  auto it = per_gpu_.find(gpu_name);
  if (it == per_gpu_.end()) {
    Fatal("KW model not trained for GPU " + gpu_name);
  }
  return it->second;
}

std::vector<std::string> KwModel::TrainedGpus() const {
  std::vector<std::string> gpus;
  for (const auto& [gpu, kernels] : per_gpu_) gpus.push_back(gpu);
  return gpus;
}

int KwModel::KernelCount(const std::string& gpu_name) const {
  return static_cast<int>(KernelModels(gpu_name).size());
}

int KwModel::ClusterCount(const std::string& gpu_name) const {
  // Counted once in FinalizeTables(); this used to sort + unique the
  // whole kernel set on every call.
  return cluster_counts_[GpuIndex(gpu_name)];
}

}  // namespace gpuperf::models
