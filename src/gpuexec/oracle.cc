#include "gpuexec/oracle.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace gpuperf::gpuexec {

const char* DriftScopeName(DriftScope scope) {
  switch (scope) {
    case DriftScope::kAll: return "all";
    case DriftScope::kMemoryBound: return "memory-bound";
    case DriftScope::kComputeBound: return "compute-bound";
  }
  GP_CHECK(false) << "unhandled DriftScope";
  return "";
}

DriftSchedule::DriftSchedule(std::size_t resources,
                             std::vector<DriftEvent> events) {
  events_.resize(resources);
  for (DriftEvent& event : events) {
    GP_CHECK_LT(event.resource, resources);
    GP_CHECK(std::isfinite(event.factor) && event.factor > 0)
        << "drift factor " << event.factor;
    GP_CHECK(std::isfinite(event.at_us) && event.at_us >= 0)
        << "drift at_us " << event.at_us;
    GP_CHECK(std::isfinite(event.ramp_us) && event.ramp_us >= 0)
        << "drift ramp_us " << event.ramp_us;
    events_[event.resource].push_back(event);
  }
  for (std::vector<DriftEvent>& per_resource : events_) {
    std::stable_sort(per_resource.begin(), per_resource.end(),
                     [](const DriftEvent& a, const DriftEvent& b) {
                       return a.at_us < b.at_us;
                     });
  }
}

DriftSchedule::DriftSchedule(std::size_t resources, double horizon_us,
                             const DriftScheduleConfig& config) {
  GP_CHECK_GE(config.rate_per_s, 0.0);
  GP_CHECK_GE(config.factor_sigma, 0.0);
  GP_CHECK_GE(config.ramp_s, 0.0);
  GP_CHECK_GE(horizon_us, 0.0);
  events_.resize(resources);
  if (config.rate_per_s <= 0) return;
  const double mean_gap_us = 1e6 / config.rate_per_s;
  for (std::size_t r = 0; r < resources; ++r) {
    // Per-resource stream keyed on (seed, index), mirroring FaultPlan.
    Rng rng(HashCombine(config.seed,
                        StableHash(Format("drift-resource-%zu", r))));
    double t = 0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) * mean_gap_us;
      if (t >= horizon_us) break;
      DriftEvent event;
      event.resource = r;
      event.at_us = t;
      event.ramp_us = config.ramp_s * 1e6;
      event.factor = rng.NextLogNormal(config.factor_sigma);
      const double pick = rng.NextDouble();
      event.scope = pick < 1.0 / 3 ? DriftScope::kAll
                    : pick < 2.0 / 3 ? DriftScope::kMemoryBound
                                     : DriftScope::kComputeBound;
      events_[r].push_back(event);
    }
  }
}

bool DriftSchedule::empty() const {
  for (const std::vector<DriftEvent>& per_resource : events_) {
    if (!per_resource.empty()) return false;
  }
  return true;
}

const std::vector<DriftEvent>& DriftSchedule::Events(
    std::size_t resource) const {
  GP_CHECK_LT(resource, events_.size());
  return events_[resource];
}

double DriftSchedule::FactorAt(std::size_t resource, double time_us,
                               double memory_share) const {
  GP_CHECK_LT(resource, events_.size());
  GP_CHECK(memory_share >= 0 && memory_share <= 1)
      << "memory_share " << memory_share;
  double factor = 1.0;
  for (const DriftEvent& event : events_[resource]) {
    if (time_us < event.at_us) break;  // sorted by at_us
    double progress = 1.0;
    if (event.ramp_us > 0 && time_us < event.at_us + event.ramp_us) {
      progress = (time_us - event.at_us) / event.ramp_us;
    }
    const double applied = 1.0 + (event.factor - 1.0) * progress;
    double share = 1.0;
    if (event.scope == DriftScope::kMemoryBound) share = memory_share;
    if (event.scope == DriftScope::kComputeBound) share = 1.0 - memory_share;
    factor *= 1.0 + (applied - 1.0) * share;
  }
  return factor;
}

const FamilyProfile& ProfileFor(KernelFamily family) {
  // compute_eff, memory_eff, blocks_per_sm
  static const FamilyProfile kProfiles[] = {
      /* kGemm */              {0.58, 0.75, 2},
      /* kImplicitGemm */      {0.52, 0.70, 2},
      /* kWinogradTransform */ {0.32, 0.68, 8},
      /* kWinogradGemm */      {0.48, 0.70, 2},
      /* kFftTransform */      {0.40, 0.62, 8},
      /* kFftGemm */           {0.45, 0.65, 2},
      /* kDirectConv */        {0.38, 0.62, 4},
      /* kDepthwiseConv */     {0.28, 0.68, 8},
      /* kIm2col */            {0.30, 0.66, 16},
      /* kElementwise */       {0.20, 0.85, 16},
      /* kBatchNorm */         {0.22, 0.78, 16},
      /* kLayerNorm */         {0.22, 0.72, 16},
      /* kPooling */           {0.25, 0.70, 16},
      /* kReduce */            {0.25, 0.66, 16},
      /* kSoftmax */           {0.22, 0.62, 16},
      /* kCopy */              {0.30, 0.80, 16},
      /* kGather */            {0.25, 0.60, 16},
  };
  static_assert(std::size(kProfiles) == kKernelFamilyCount);
  return kProfiles[static_cast<int>(family)];
}

HardwareOracle::HardwareOracle(const OracleConfig& config) : config_(config) {}

double HardwareOracle::OccupancySlowdown(std::int64_t blocks, int sm_count,
                                         int blocks_per_sm) const {
  GP_CHECK_GT(blocks, 0);
  const double capacity =
      static_cast<double>(sm_count) * static_cast<double>(blocks_per_sm);
  const double b = static_cast<double>(blocks);
  if (b >= capacity) {
    // Wave quantization: the tail wave runs at partial occupancy. The
    // excess is damped because tail waves overlap with unbalanced SM
    // finish times (and, on real drivers, with the next kernel's ramp).
    const double waves = std::ceil(b / capacity);
    return 1.0 + 0.35 * (waves * capacity / b - 1.0);
  }
  // Partial latency hiding below full occupancy. Fat blocks (few resident
  // per SM, i.e. GEMM-style) carry enough instruction-level parallelism
  // to tolerate a shallow grid; thin-block kernels degrade faster.
  const double exponent = blocks_per_sm <= 2 ? 0.18 : 0.35;
  return std::pow(capacity / b, exponent);
}

double HardwareOracle::ComputeArchFactor(const std::string& gpu_name,
                                         KernelFamily family) const {
  return KeyedLogNormal(config_.seed,
                        gpu_name + "/" + KernelFamilyName(family) + "/c",
                        config_.compute_arch_sigma);
}

double HardwareOracle::MemoryArchFactor(const std::string& gpu_name,
                                        KernelFamily family) const {
  return KeyedLogNormal(config_.seed,
                        gpu_name + "/" + KernelFamilyName(family) + "/m",
                        config_.memory_arch_sigma);
}

double HardwareOracle::KernelQuirkFactor(
    const std::string& gpu_name, const std::string& kernel_name) const {
  return KeyedLogNormal(config_.seed, gpu_name + "/" + kernel_name + "/q",
                        config_.kernel_quirk_sigma);
}

double HardwareOracle::ExpectedKernelTimeUs(const KernelLaunch& launch,
                                            const GpuSpec& gpu) const {
  return ExpectedKernelTimeUs(
      launch, gpu,
      {ComputeArchFactor(gpu.name, launch.family),
       MemoryArchFactor(gpu.name, launch.family),
       KernelQuirkFactor(gpu.name, launch.name)});
}

double HardwareOracle::ExpectedKernelTimeUs(
    const KernelLaunch& launch, const GpuSpec& gpu,
    const KernelFactors& factors) const {
  const FamilyProfile& profile = ProfileFor(launch.family);

  double compute_eff = profile.compute_eff * factors.compute_arch;
  const bool gemm_like = launch.family == KernelFamily::kGemm ||
                         launch.family == KernelFamily::kImplicitGemm ||
                         launch.family == KernelFamily::kWinogradGemm ||
                         launch.family == KernelFamily::kFftGemm;
  if (gemm_like && gpu.tensor_cores > 0) {
    compute_eff *= config_.tensor_core_boost;
  }
  if (gemm_like || launch.family == KernelFamily::kDirectConv) {
    // Compute efficiency of matrix pipelines grows with arithmetic
    // intensity: shallow reductions (small K) re-load operands and stall
    // the MACs. This is what separates wide-channel CONVs (VGG/ResNet)
    // from narrow ones (DenseNet growth layers, MobileNet pointwise).
    const double intensity =
        static_cast<double>(launch.flops) /
        static_cast<double>(std::max<std::int64_t>(1, launch.TotalBytes()));
    compute_eff *= std::clamp(0.55 + 0.22 * std::log2(intensity / 24.0),
                              0.45, 1.20);
  }
  compute_eff = std::min(compute_eff, 0.92);

  double memory_eff = profile.memory_eff * factors.memory_arch;
  memory_eff = std::min(memory_eff, 0.95);

  // Sustainable FLOPS: the lesser of the theoretical peak and the
  // memory-system-coupled ceiling (see OracleConfig).
  const double sustained_peak =
      std::min(gpu.PeakFlops(),
               (config_.compute_balance_base_tflops +
                config_.compute_balance_tflops_per_gbps *
                    gpu.bandwidth_gbps) *
                   1e12);
  const double compute_us = launch.flops == 0
                                ? 0.0
                                : static_cast<double>(launch.flops) /
                                      (sustained_peak * compute_eff) * 1e6;
  const double memory_us = static_cast<double>(launch.TotalBytes()) /
                           (gpu.BandwidthBytesPerSec() * memory_eff) * 1e6;
  double base_us = std::max(compute_us, memory_us);

  base_us *= OccupancySlowdown(launch.blocks, gpu.sm_count,
                               profile.blocks_per_sm);
  // Static implementation quirk of this kernel build on this GPU.
  base_us /= factors.quirk;
  // Per-layer-configuration quirk: cache behaviour, tile fragmentation,
  // and layout effects depend on the (per-image) problem shape in ways no
  // layer-level feature captures. Keyed on per-image quantities so the
  // same layer at different batch sizes shares the factor (O3 holds).
  const long per_image_in = static_cast<long>(launch.input_elems /
                                              std::max<std::int64_t>(
                                                  1, launch.batch));
  const long per_image_out = static_cast<long>(launch.output_elems /
                                               std::max<std::int64_t>(
                                                   1, launch.batch));
  const long per_image_flops = static_cast<long>(launch.layer_flops /
                                                 std::max<std::int64_t>(
                                                     1, launch.batch));
  // "<gpu>/<kernel>/L<in>-<out>-<flops>", formatted without a format-
  // string parse; the draws are pinned to the first 159 characters, the
  // part of the key an snprintf into 160 bytes keeps.
  std::string layer_key;
  layer_key.reserve(gpu.name.size() + launch.name.size() + 64);
  layer_key.append(gpu.name).append("/").append(launch.name).append("/L");
  AppendInt(layer_key, per_image_in);
  layer_key += '-';
  AppendInt(layer_key, per_image_out);
  layer_key += '-';
  AppendInt(layer_key, per_image_flops);
  // Shape sensitivity differs by kernel sophistication: plain dense GEMM
  // (cuBLAS-style) is the best-characterized kernel on a GPU, and simple
  // streaming kernels (activations, norms, copies) are nearly
  // shape-insensitive; the convolution algorithm zoo is the wild part.
  // This is why the paper's KW model is *more* accurate on transformers
  // (4.76%) than on CNNs (7%).
  double shape_factor = 1.0;
  if (launch.family == KernelFamily::kGemm) {
    shape_factor = 0.25;
  } else if (launch.family == KernelFamily::kElementwise ||
             launch.family == KernelFamily::kBatchNorm ||
             launch.family == KernelFamily::kLayerNorm ||
             launch.family == KernelFamily::kSoftmax ||
             launch.family == KernelFamily::kPooling ||
             launch.family == KernelFamily::kReduce ||
             launch.family == KernelFamily::kCopy ||
             launch.family == KernelFamily::kGather) {
    shape_factor = 0.45;
  }
  base_us /= KeyedLogNormal(config_.seed,
                            std::string_view(layer_key).substr(0, 159),
                            shape_factor * config_.layer_quirk_sigma);
  return config_.kernel_overhead_us + base_us;
}

double HardwareOracle::MeasureKernelTimeUs(const KernelLaunch& launch,
                                           const GpuSpec& gpu,
                                           Rng* rng) const {
  GP_CHECK(rng != nullptr);
  return NoisyFromExpected(ExpectedKernelTimeUs(launch, gpu), rng);
}

double HardwareOracle::NoisyFromExpected(double expected_us, Rng* rng) const {
  GP_CHECK(rng != nullptr);
  return expected_us * rng->NextLogNormal(config_.measurement_sigma);
}

}  // namespace gpuperf::gpuexec
