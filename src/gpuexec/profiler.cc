#include "gpuexec/profiler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/synchronization.h"
#include "dnn/flops.h"
#include "gpuexec/lowering.h"
#include "gpuexec/lowering_cache.h"

namespace gpuperf::gpuexec {
namespace {

/** Fixed per-batch CPU-side framework overhead (dispatcher, Python). */
constexpr double kBatchOverheadUs = 150.0;

/** Stream of per-run measurement noise for a (network, gpu, batch) tuple. */
Rng MakeRunRng(std::uint64_t seed, const std::string& network,
               const std::string& gpu, std::int64_t batch) {
  std::uint64_t key = HashCombine(seed, StableHash(network));
  key = HashCombine(key, StableHash(gpu));
  key = HashCombine(key, static_cast<std::uint64_t>(batch));
  return Rng(key);
}

/**
 * Per-(network, GPU) wall-clock factor on end-to-end time: framework
 * graph handling, allocator behaviour, and stream synchronization cost a
 * few percent that depends on the network's structure but not on the
 * batch size. Kernel durations are unaffected, so no kernel-sum model can
 * learn it — this is the systematic part of the paper's residual error.
 */
double WallFactor(const HardwareOracle& oracle, const std::string& network,
                  const std::string& gpu) {
  return KeyedLogNormal(oracle.config().seed,
                        "wall/" + network + "/" + gpu,
                        oracle.config().wall_overhead_sigma);
}

using LaunchListPtr = std::shared_ptr<const LoweringCache::LaunchList>;

/**
 * The expected kernel times of one exact GpuSpec: the oracle's per-family
 * architecture factors drawn once up front, each kernel name's quirk
 * drawn on first use, and each launch list's times evaluated on first
 * use. Entries are immutable once inserted and live as long as the memo.
 */
class GpuTimes {
 public:
  GpuTimes(const HardwareOracle& oracle, const GpuSpec& gpu) : gpu_(gpu) {
    for (int f = 0; f < kKernelFamilyCount; ++f) {
      const auto family = static_cast<KernelFamily>(f);
      compute_arch_[f] = oracle.ComputeArchFactor(gpu.name, family);
      memory_arch_[f] = oracle.MemoryArchFactor(gpu.name, family);
    }
  }

  const GpuSpec& gpu() const { return gpu_; }

  /** The expected time of every launch of `lowered`, in order. */
  std::vector<double> ExpectedTimes(const HardwareOracle& oracle,
                                    const std::vector<LaunchListPtr>& lowered) {
    std::vector<const std::vector<double>*> times(lowered.size());
    std::vector<std::size_t> missing;
    {
      SharedReaderLock lock(mu_);
      for (std::size_t i = 0; i < lowered.size(); ++i) {
        auto it = lists_.find(lowered[i].get());
        if (it == lists_.end()) {
          missing.push_back(i);
        } else {
          times[i] = &it->second.times_us;
        }
      }
    }
    if (!missing.empty()) {
      // Evaluate misses outside the lock, then insert keeping the first
      // entry, as LoweringCache::Lower does; every thread computes the
      // same values, so which one wins does not matter.
      std::vector<Entry> computed;
      computed.reserve(missing.size());
      for (std::size_t i : missing) {
        Entry entry{lowered[i], {}};
        entry.times_us.reserve(lowered[i]->size());
        for (const KernelLaunch& launch : *lowered[i]) {
          const int f = static_cast<int>(launch.family);
          entry.times_us.push_back(oracle.ExpectedKernelTimeUs(
              launch, gpu_,
              {compute_arch_[f], memory_arch_[f], Quirk(oracle, launch.name)}));
        }
        computed.push_back(std::move(entry));
      }
      SharedMutexLock lock(mu_);
      for (std::size_t k = 0; k < missing.size(); ++k) {
        const std::size_t i = missing[k];
        times[i] = &lists_.try_emplace(lowered[i].get(), std::move(computed[k]))
                        .first->second.times_us;
      }
    }
    std::vector<double> expected;
    for (const std::vector<double>* list : times) {
      expected.insert(expected.end(), list->begin(), list->end());
    }
    return expected;
  }

 private:
  /** A launch list's expected times; `launches` pins the key's address. */
  struct Entry {
    LaunchListPtr launches;
    std::vector<double> times_us;
  };

  double Quirk(const HardwareOracle& oracle, const std::string& kernel_name) {
    {
      SharedReaderLock lock(mu_);
      auto it = quirks_.find(kernel_name);
      if (it != quirks_.end()) return it->second;
    }
    const double quirk = oracle.KernelQuirkFactor(gpu_.name, kernel_name);
    SharedMutexLock lock(mu_);
    return quirks_.try_emplace(kernel_name, quirk).first->second;
  }

  const GpuSpec gpu_;
  double compute_arch_[kKernelFamilyCount] = {};
  double memory_arch_[kKernelFamilyCount] = {};
  SharedMutex mu_;
  std::unordered_map<const LoweringCache::LaunchList*, Entry> lists_
      GP_GUARDED_BY(mu_);
  std::unordered_map<std::string, double> quirks_ GP_GUARDED_BY(mu_);
};

}  // namespace

/**
 * A Profiler's expected-time memo: one GpuTimes per distinct GpuSpec.
 * The whole spec is the key, since a WithBandwidth spec keeps its name.
 * Keying lists on their address is safe because every entry holds the
 * list it was computed from, so the address cannot be reused for another
 * list — even after LoweringCache::Clear() — while the memo lives.
 */
class Profiler::ExpectedTimeMemo {
 public:
  explicit ExpectedTimeMemo(const HardwareOracle& oracle) : oracle_(oracle) {}

  /** Expected times of every launch of `lowered` on `gpu`, in order. */
  std::vector<double> ExpectedTimes(const GpuSpec& gpu,
                                    const std::vector<LaunchListPtr>& lowered) {
    return ForGpu(gpu).ExpectedTimes(oracle_, lowered);
  }

 private:
  GpuTimes& ForGpu(const GpuSpec& gpu) {
    {
      SharedReaderLock lock(mu_);
      for (const std::unique_ptr<GpuTimes>& times : gpus_) {
        if (times->gpu() == gpu) return *times;
      }
    }
    auto fresh = std::make_unique<GpuTimes>(oracle_, gpu);
    SharedMutexLock lock(mu_);
    for (const std::unique_ptr<GpuTimes>& times : gpus_) {
      if (times->gpu() == gpu) return *times;
    }
    gpus_.push_back(std::move(fresh));
    return *gpus_.back();
  }

  const HardwareOracle oracle_;
  SharedMutex mu_;
  std::vector<std::unique_ptr<GpuTimes>> gpus_ GP_GUARDED_BY(mu_);
};

std::vector<double> NetworkProfile::LayerTimesUs(
    std::size_t layer_count) const {
  std::vector<double> times(layer_count, 0.0);
  for (const KernelRecord& record : kernels) {
    GP_CHECK_LT(static_cast<std::size_t>(record.layer_index), layer_count);
    times[record.layer_index] += record.time_us;
  }
  return times;
}

Profiler::Profiler(const HardwareOracle& oracle, int measured_batches)
    : oracle_(oracle),
      measured_batches_(measured_batches),
      memo_(std::make_shared<ExpectedTimeMemo>(oracle)) {
  GP_CHECK_GT(measured_batches, 0);
}

LoweredNetwork LowerForReplay(const dnn::Network& network, std::int64_t batch,
                              Workload workload) {
  // Lowering is memoized process-wide: zoo networks repeat layer
  // configurations heavily, and a parallel campaign profiles from many
  // threads against the same shared cache.
  LoweredNetwork lowered;
  lowered.batch = batch;
  lowered.layers = CachedLowerNetworkWorkload(network, batch, workload);
  std::size_t launches = 0;
  for (const LaunchListPtr& list : lowered.layers) launches += list->size();
  lowered.timeline.reserve(launches);
  if (workload == Workload::kTraining) {
    // Forward counts come from the cached inference lowering, so the
    // order is derived without re-lowering any layer.
    std::vector<std::pair<int, int>> counts(lowered.layers.size());
    std::vector<std::size_t> flat_base(lowered.layers.size());
    std::size_t base = 0;
    for (std::size_t i = 0; i < lowered.layers.size(); ++i) {
      counts[i].first = static_cast<int>(
          LoweringCache::Global()
              .Lower(network.layers()[i], batch, Workload::kInference)
              ->size());
      counts[i].second = static_cast<int>(lowered.layers[i]->size());
      flat_base[i] = base;
      base += lowered.layers[i]->size();
    }
    for (const auto& [layer, k] : TrainingExecutionOrderFromCounts(counts)) {
      lowered.timeline.push_back(flat_base[layer] + k);
    }
  } else {
    for (std::size_t i = 0; i < launches; ++i) lowered.timeline.push_back(i);
  }
  return lowered;
}

Replay Profiler::ReplayLowered(const dnn::Network& network,
                               const LoweredNetwork& lowered,
                               const GpuSpec& gpu, bool with_timeline) const {
  // Pay the deterministic oracle cost once per distinct launch list and
  // GPU (the memo); replay with noise in true execution order, averaging
  // into per-kernel slots kept grouped per layer (the mapping table
  // relies on it).
  const std::vector<double> expected =
      memo_->ExpectedTimes(gpu, lowered.layers);
  Replay replay;
  replay.times_us.assign(expected.size(), 0.0);
  if (with_timeline) {
    replay.start_us.assign(expected.size(), 0.0);
    replay.end_us.assign(expected.size(), 0.0);
  }
  Rng rng = MakeRunRng(oracle_.config().seed, network.name(), gpu.name,
                       lowered.batch);
  double e2e_sum = 0.0;
  for (int rep = 0; rep < measured_batches_; ++rep) {
    const bool record_timeline = with_timeline && rep == 0;
    double cpu_time = kBatchOverheadUs;
    double gpu_free = 0.0;
    for (std::size_t index : lowered.timeline) {
      const double duration =
          oracle_.NoisyFromExpected(expected[index], &rng);
      cpu_time += gpu.launch_interval_us;
      const double start = std::max(cpu_time, gpu_free);
      gpu_free = start + duration;
      replay.times_us[index] += duration;
      if (record_timeline) {
        replay.start_us[index] = start;
        replay.end_us[index] = gpu_free;
      }
    }
    e2e_sum += std::max(gpu_free, cpu_time);
  }

  const double inv_reps = 1.0 / static_cast<double>(measured_batches_);
  for (double& time : replay.times_us) time *= inv_reps;
  replay.e2e_time_us = e2e_sum * inv_reps *
                       WallFactor(oracle_, network.name(), gpu.name);
  for (double time : replay.times_us) replay.gpu_busy_us += time;
  return replay;
}

NetworkProfile Profiler::Profile(const dnn::Network& network,
                                 const GpuSpec& gpu, std::int64_t batch,
                                 Workload workload) const {
  const LoweredNetwork lowered = LowerForReplay(network, batch, workload);
  const Replay replay =
      ReplayLowered(network, lowered, gpu, /*with_timeline=*/true);

  NetworkProfile profile;
  profile.network_name = network.name();
  profile.network_family = network.family();
  profile.gpu_name = gpu.name;
  profile.batch = batch;
  profile.total_flops = dnn::NetworkFlops(network, batch);
  profile.e2e_time_us = replay.e2e_time_us;
  profile.gpu_busy_us = replay.gpu_busy_us;
  profile.kernels.reserve(replay.times_us.size());
  for (std::size_t layer = 0; layer < lowered.layers.size(); ++layer) {
    for (const KernelLaunch& launch : *lowered.layers[layer]) {
      const std::size_t index = profile.kernels.size();
      KernelRecord record;
      record.kernel_name = launch.name;
      record.family = launch.family;
      record.true_driver = launch.driver;
      record.layer_index = static_cast<int>(layer);
      record.layer_kind = launch.layer_kind;
      record.time_us = replay.times_us[index];
      record.start_us = replay.start_us[index];
      record.end_us = replay.end_us[index];
      record.kernel_flops = launch.flops;
      record.kernel_bytes = launch.TotalBytes();
      record.layer_flops = launch.layer_flops;
      record.input_elems = launch.input_elems;
      record.output_elems = launch.output_elems;
      profile.kernels.push_back(std::move(record));
    }
  }
  return profile;
}

double Profiler::MeasureE2eUs(const dnn::Network& network, const GpuSpec& gpu,
                              std::int64_t batch, Workload workload) const {
  return ReplayLowered(network, LowerForReplay(network, batch, workload), gpu)
      .e2e_time_us;
}

EfficiencyReport ComputeEfficiency(const dnn::Network& network,
                                   const NetworkProfile& profile,
                                   const GpuSpec& gpu) {
  // Paper (O6): bytes and FLOPs are *estimated from layer shapes*, not
  // measured on the device, so the ratios understate true utilization but
  // are consistent across GPUs.
  std::int64_t estimated_bytes = 0;
  for (const dnn::Layer& layer : network.layers()) {
    estimated_bytes += dnn::LayerInputBytes(layer, profile.batch) +
                       dnn::LayerOutputBytes(layer, profile.batch) +
                       dnn::LayerWeightBytes(layer);
  }
  const double seconds = profile.e2e_time_us * 1e-6;
  EfficiencyReport report;
  report.bandwidth_efficiency = static_cast<double>(estimated_bytes) /
                                seconds / gpu.BandwidthBytesPerSec();
  report.compute_efficiency = static_cast<double>(profile.total_flops) /
                              seconds / gpu.PeakFlops();
  return report;
}

}  // namespace gpuperf::gpuexec
