#include "models/kw_model.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <optional>
#include <string_view>

#include "common/logging.h"
#include "dnn/flops.h"
#include "gpuexec/lowering.h"

namespace gpuperf::models {
namespace {

using gpuexec::CostDriver;

constexpr CostDriver kDrivers[] = {CostDriver::kInput, CostDriver::kOperation,
                                   CostDriver::kOutput};

/** Per-kernel training sample set (one point per execution). */
struct KernelSamples {
  std::vector<double> x[3];  // indexed by CostDriver
  std::vector<double> y;

  const std::vector<double>& XFor(CostDriver driver) const {
    return x[static_cast<int>(driver)];
  }
};

/** Longest common prefix length of two strings. */
std::size_t CommonPrefix(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

/**
 * Kernel `name`'s model on one GPU: the exact name, else the first with
 * the longest common prefix, if that is at least half the name (a
 * tile-variant mismatch), else nullptr (the layer falls back to LW).
 */
const KernelModel* MatchKernel(
    const std::map<std::string, KernelModel>& kernels,
    const std::string& name) {
  auto exact = kernels.find(name);
  if (exact != kernels.end()) return &exact->second;
  const KernelModel* model = nullptr;
  std::size_t best_prefix = 0;
  for (const auto& [candidate, candidate_model] : kernels) {
    const std::size_t prefix = CommonPrefix(candidate, name);
    if (prefix > best_prefix) {
      best_prefix = prefix;
      model = &candidate_model;
    }
  }
  return best_prefix < name.size() / 2 ? nullptr : model;
}

}  // namespace

std::string ReducedSignature(const std::string& signature) {
  // One pass over the '/'-separated parts, keeping the non-shape ones
  // '/'-joined in order (empty parts included).
  std::string reduced;
  reduced.reserve(signature.size());
  bool kept_any = false;
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(signature.find('/', begin),
                                     signature.size());
    const std::string_view part(signature.data() + begin, end - begin);
    // Shape components are "i<CxHxW>" and "o<CxHxW>".
    const bool shape = part.size() > 1 && (part[0] == 'i' || part[0] == 'o') &&
                       part.find('x') != std::string_view::npos &&
                       std::isdigit(static_cast<unsigned char>(part[1]));
    if (!shape) {
      if (kept_any) reduced += '/';
      reduced += part;
      kept_any = true;
    }
    if (end == signature.size()) return reduced;
    begin = end + 1;
  }
}

KwModel::KwModel(const KwOptions& options) : options_(options) {}

void KwModel::Train(const dataset::Dataset& data,
                    const dataset::NetworkSplit& split) {
  per_gpu_.clear();
  mapping_.clear();
  // Training runs on the dataset's interned ids; the string-keyed maps
  // (the bundle schema) are written once per distinct key.
  const std::vector<dataset::KernelRow>& rows = data.kernel_rows();
  const std::size_t kernel_count = data.kernels().size();
  const std::size_t network_count = data.networks().size();
  const std::vector<char> is_test = split.TestMask(data.networks().size());

  // --- 1. Mapping table from all traces (library behaviour, not timing).
  // Rows are trace-ordered, so kernels of one layer instance are
  // consecutive; each signature keeps its first instance's kernel list.
  {
    std::vector<std::vector<int>> first(data.signatures().size());
    std::vector<int>* open = nullptr;  // the instance being recorded
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const dataset::KernelRow& row = rows[i];
      if (i == 0 || row.gpu_id != rows[i - 1].gpu_id ||
          row.network_id != rows[i - 1].network_id ||
          row.layer_index != rows[i - 1].layer_index) {
        std::vector<int>& list = first[row.signature_id];
        open = list.empty() ? &list : nullptr;
      }
      if (open != nullptr) open->push_back(row.kernel_id);
    }
    for (std::size_t sid = 0; sid < first.size(); ++sid) {
      if (first[sid].empty()) continue;
      std::vector<std::string>& names =
          mapping_[data.signatures().Get(static_cast<int>(sid))];
      for (int id : first[sid]) names.push_back(data.kernels().Get(id));
    }
  }

  // --- 2. Per-(GPU, kernel) samples from training networks only, in a
  // dense [gpu_id * kernel_count + kernel_id] array.
  std::vector<KernelSamples> samples(data.gpus().size() * kernel_count);
  for (const dataset::KernelRow& row : rows) {
    if (is_test[row.network_id]) continue;
    KernelSamples& s = samples[row.gpu_id * kernel_count + row.kernel_id];
    s.x[0].push_back(static_cast<double>(row.input_elems));
    s.x[1].push_back(static_cast<double>(row.layer_flops));
    s.x[2].push_back(static_cast<double>(row.output_elems));
    s.y.push_back(row.time_us);
  }

  // Classification: the driver whose regression has the best R² (O5).
  std::vector<KernelModel*> models(samples.size(), nullptr);
  for (std::size_t slot = 0; slot < samples.size(); ++slot) {
    const KernelSamples& s = samples[slot];
    if (s.y.empty()) continue;
    KernelModel model;
    if (options_.classify_drivers) {
      double best_r2 = -1e300;
      for (CostDriver driver : kDrivers) {
        regression::LinearFit fit = regression::FitLinearClampedIntercept(
            s.XFor(driver), s.y, options_.max_intercept_us);
        if (fit.r2 > best_r2) {
          best_r2 = fit.r2;
          model.driver = driver;
          model.fit = fit;
        }
      }
    } else {
      model.driver = CostDriver::kOperation;
      model.fit = regression::FitLinearClampedIntercept(
          s.XFor(model.driver), s.y, options_.max_intercept_us);
    }
    model.solo_r2 = model.fit.r2;
    const int gpu_id = static_cast<int>(slot / kernel_count);
    const int kernel_id = static_cast<int>(slot % kernel_count);
    models[slot] = &(per_gpu_[data.gpus().Get(gpu_id)]
                             [data.kernels().Get(kernel_id)] = model);
  }

  // --- 3. Clustering: merge kernels with similar lines (Section 5.4).
  if (options_.cluster) {
    // std::sort is not stable, so each GPU's members start out in kernel
    // name order (the order of per_gpu_'s keys): ties between equal
    // slopes then resolve by name, not by interning order.
    std::vector<int> by_name(kernel_count);
    for (std::size_t id = 0; id < kernel_count; ++id) {
      by_name[id] = static_cast<int>(id);
    }
    std::sort(by_name.begin(), by_name.end(), [&](int a, int b) {
      return data.kernels().Get(a) < data.kernels().Get(b);
    });
    struct Member {
      double slope;
      KernelModel* model;
      int kernel_id;
    };
    const std::size_t gpu_count = data.gpus().size();
    for (std::size_t gpu_id = 0; gpu_id < gpu_count; ++gpu_id) {
      KernelModel* const* gpu_models = &models[gpu_id * kernel_count];
      for (CostDriver driver : kDrivers) {
        // Kernels of this driver sorted by slope.
        std::vector<Member> members;
        for (int id : by_name) {
          KernelModel* model = gpu_models[id];
          if (model != nullptr && model->driver == driver) {
            members.push_back({model->fit.slope, model, id});
          }
        }
        std::sort(members.begin(), members.end(),
                  [](const Member& a, const Member& b) {
                    return a.slope < b.slope;
                  });
        std::vector<std::vector<Member>> clusters;
        for (const Member& member : members) {
          const regression::LinearFit& fit = member.model->fit;
          bool merged = false;
          if (!clusters.empty()) {
            const regression::LinearFit& head =
                clusters.back().front().model->fit;
            const double base = std::max(std::abs(head.slope), 1e-12);
            if (std::abs(fit.slope - head.slope) / base <=
                    options_.cluster_slope_tol &&
                std::abs(fit.intercept - head.intercept) <=
                    options_.cluster_intercept_tol_us) {
              clusters.back().push_back(member);
              merged = true;
            }
          }
          if (!merged) clusters.push_back({member});
        }
        // Refit each multi-kernel cluster on the union of its samples.
        for (std::size_t c = 0; c < clusters.size(); ++c) {
          const int cluster_id =
              static_cast<int>(driver) * 100000 + static_cast<int>(c);
          if (clusters[c].size() == 1) {
            clusters[c][0].model->cluster_id = cluster_id;
            continue;
          }
          std::vector<double> x, y;
          for (const Member& member : clusters[c]) {
            const KernelSamples& s =
                samples[gpu_id * kernel_count + member.kernel_id];
            const std::vector<double>& xs = s.XFor(driver);
            x.insert(x.end(), xs.begin(), xs.end());
            y.insert(y.end(), s.y.begin(), s.y.end());
          }
          regression::LinearFit fit = regression::FitLinearClampedIntercept(
              x, y, options_.max_intercept_us);
          for (const Member& member : clusters[c]) {
            member.model->fit = fit;
            member.model->cluster_id = cluster_id;
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
  // time to summed kernel predictions over the training networks, summed
  // in row order into a dense [gpu_id * network_count + network_id] array.
  calibration_.clear();
  if (options_.calibrate_e2e) {
    std::vector<double> predicted_sums(data.gpus().size() * network_count);
    for (const dataset::KernelRow& row : rows) {
      if (is_test[row.network_id]) continue;
      // Every training row has a model: its samples created one.
      const KernelModel& model = *models[row.gpu_id * kernel_count +
                                         row.kernel_id];
      // Rows carry batch-scaled driver values, hence a batch of 1.
      predicted_sums[row.gpu_id * network_count + row.network_id] +=
          TermUs(1, row.DriverValue(model.driver), model.fit.slope,
                 model.fit.intercept);
    }
    std::map<int, std::pair<double, double>> totals;  // gpu -> (e2e, pred)
    for (const dataset::NetworkRow& row : data.network_rows()) {
      if (is_test[row.network_id]) continue;
      const double predicted =
          predicted_sums[row.gpu_id * network_count + row.network_id];
      if (predicted <= 0) continue;
      totals[row.gpu_id].first += row.e2e_us;
      totals[row.gpu_id].second += predicted;
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
  gpu_index_.clear();
  calibration_by_gpu_.clear();
  cluster_counts_.clear();
  sig_index_.clear();
  reduced_index_.clear();
  sid_kernel_counts_.clear();
  resolved_.clear();
  lw_fits_.clear();
  predict_cache_.Clear();
  plan_cache_.Clear();

  // Signature ids follow the sorted mapping-table order; the reduced
  // index keeps the first full signature per reduced key. The table's
  // kernel names are interned once, so each GPU matches each distinct
  // name once; sid_kernels holds every sid's list of name ids in turn.
  std::unordered_map<std::string_view, int> name_ids;
  std::vector<const std::string*> distinct_names;
  std::vector<int> sid_kernels;
  for (const auto& [signature, names] : mapping_) {
    const int sid = static_cast<int>(sig_index_.size());
    sig_index_.emplace(signature, sid);
    reduced_index_.emplace(ReducedSignature(signature), sid);
    sid_kernel_counts_.push_back(static_cast<int>(names.size()));
    for (const std::string& name : names) {
      auto [it, inserted] =
          name_ids.emplace(name, static_cast<int>(distinct_names.size()));
      if (inserted) distinct_names.push_back(&name);
      sid_kernels.push_back(it->second);
    }
  }

  // Per GPU, resolve every signature to concrete fitted lines.
  std::vector<const KernelModel*> by_name(distinct_names.size());
  for (const auto& [gpu, kernels] : per_gpu_) {
    gpu_index_.emplace(gpu, static_cast<int>(gpu_index_.size()));
    calibration_by_gpu_.push_back(CalibrationFor(gpu));
    for (int kind = 0; kind < dnn::kLayerKindCount; ++kind) {
      const regression::LinearFit* fit =
          lw_fallback_.FitFor(gpu, static_cast<dnn::LayerKind>(kind));
      lw_fits_.push_back(fit != nullptr
                             ? std::optional<regression::LinearFit>(*fit)
                             : std::nullopt);
    }
    std::vector<int> ids;
    ids.reserve(kernels.size());
    for (const auto& [name, model] : kernels) ids.push_back(model.cluster_id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    cluster_counts_.push_back(static_cast<int>(ids.size()));
    for (std::size_t n = 0; n < distinct_names.size(); ++n) {
      by_name[n] = MatchKernel(kernels, *distinct_names[n]);
    }
    std::vector<ResolvedLayer>& layers =
        resolved_.emplace_back(sid_kernel_counts_.size());
    const int* name_id = sid_kernels.data();
    for (std::size_t sid = 0; sid < layers.size(); ++sid) {
      const int count = sid_kernel_counts_[sid];
      for (int k = 0; k < count; ++k) {
        const KernelModel* model = by_name[name_id[k]];
        if (model == nullptr) {
          layers[sid].use_lw = true;
          layers[sid].kernels.clear();
          break;
        }
        layers[sid].kernels.push_back({model->driver, model->fit.slope,
                                       model->fit.intercept,
                                       model->cluster_id});
      }
      name_id += count;
    }
  }
}

double KwModel::CalibrationFor(const std::string& gpu_name) const {
  auto it = calibration_.find(gpu_name);
  return it == calibration_.end() ? 1.0 : it->second;
}

std::vector<std::string> KwModel::KernelsForLayer(
    const dnn::Layer& layer) const {
  // Sids number mapping_ in order. The walk is O(sids), and no
  // prediction path calls this.
  const int sid = ResolveSid(layer);
  if (sid < 0) return {};
  return std::next(mapping_.begin(), sid)->second;
}

std::int64_t KwModel::MappedKernelCount(const dnn::Network& network) const {
  std::int64_t count = 0;
  for (int sid : SidsFor(network)) {
    if (sid >= 0) count += sid_kernel_counts_[sid];
  }
  return count;
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
    sink.BeginLayer(1.0, extra_scale);
    const std::optional<regression::LinearFit>& fit =
        lw_fits_[gpu_idx * dnn::kLayerKindCount +
                 static_cast<int>(layer.kind)];
    if (fit.has_value()) {
      sink.AddTerm(dnn::LayerFlops(layer, 1), fit->slope, fit->intercept,
                   -1);
    }
    return;
  }
  // Per-sample driver values, indexed by CostDriver.
  const std::int64_t per_sample[] = {layer.InputElements(),
                                     dnn::LayerFlops(layer, 1),
                                     layer.output.Elements()};
  sink.BeginLayer(calibration_by_gpu_[gpu_idx], extra_scale);
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
    void BeginLayer(double, double) {}
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
  return PredictionPlan::Compile([&](PredictionPlan& plan) {
    EmitNetwork(gpu_idx, network, plan);
  });
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
