#ifndef GPUPERF_GPUEXEC_ORACLE_H_
#define GPUPERF_GPUEXEC_ORACLE_H_

/**
 * @file
 * The synthetic hardware oracle — this repository's stand-in for the real
 * GPUs the paper measures.
 *
 * For every kernel launch the oracle computes a roofline-style time:
 *
 *   t = overhead + max(flops / (peak * ce), bytes / (bw * me)) * occupancy
 *
 * where `ce`/`me` are per-family efficiencies modulated by (a) a per-GPU
 * per-family architecture factor (wide spread for compute, narrow for
 * memory — producing Observation O6: bandwidth efficiency is stable across
 * GPUs while compute efficiency is not), (b) a static per-(GPU, kernel
 * name) "implementation quirk" factor, and (c) an occupancy model with
 * wave quantization and small-grid underutilization. Measurements add
 * multiplicative log-normal noise.
 *
 * The oracle is deliberately richer than any of the paper's regression
 * models (roofline max() switching, occupancy sawtooth, quirks), so the
 * models exhibit genuine residual error, ordered E2E > LW > KW as in the
 * paper. The models never see oracle internals — only profiler output.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/kernel.h"

namespace gpuperf::gpuexec {

/** Tunable constants of the synthetic hardware. */
struct OracleConfig {
  std::uint64_t seed = 0x9f7e5eedULL;
  double measurement_sigma = 0.03;    // per-run log-normal noise
  double kernel_quirk_sigma = 0.15;   // per (GPU, kernel name) static factor
  double layer_quirk_sigma = 0.08;    // per (GPU, kernel, layer config)
  double wall_overhead_sigma = 0.02;  // per (GPU, network) e2e wall factor
  double compute_arch_sigma = 0.22;   // per (GPU, family) compute spread
  double memory_arch_sigma = 0.07;    // per (GPU, family) memory spread
  double kernel_overhead_us = 1.8;    // fixed GPU-side cost per kernel
  double tensor_core_boost = 1.10;    // GEMM-family boost on TC-bearing GPUs
  // Sustained-FLOPS ceiling partially coupled to the memory system:
  // ceiling = base + per_gbps * bandwidth, capped by the theoretical
  // peak. Marketing peaks (e.g. dual-issue FP32) are not sustainable when
  // the cache/DRAM system cannot feed them. This is the physical root of
  // O6 — achieved compute tracks bandwidth much more than the theoretical
  // TFLOPS column — while the bandwidth-independent base keeps
  // compute-bound kernels from scaling with bandwidth forever (the knee
  // in case study 1's DSE curves).
  double compute_balance_base_tflops = 8.0;
  double compute_balance_tflops_per_gbps = 0.006;
};

/** Per-family efficiency profile (fractions of theoretical peaks). */
struct FamilyProfile {
  double compute_eff;    // attainable fraction of peak FLOPS
  double memory_eff;     // attainable fraction of peak bandwidth
  int blocks_per_sm;     // max concurrently resident blocks per SM
};

/** Profile table lookup. */
const FamilyProfile& ProfileFor(KernelFamily family);

/**
 * Which part of a workload a drift event perturbs. Scoped events model
 * regressions that hit only one side of the roofline — "the driver
 * update made memory-bound kernels 12% slower" — and are diluted by the
 * workload's memory-bound time share when applied to end-to-end times.
 */
enum class DriftScope { kAll, kMemoryBound, kComputeBound };

/** Stable scope name: "all", "memory-bound", "compute-bound". */
const char* DriftScopeName(DriftScope scope);

/**
 * One scheduled perturbation of a GPU's service times: from `at_us` the
 * resource's kernels run `factor`x their nominal duration (factor > 1 is
 * a slowdown), stepping instantly when `ramp_us == 0` or ramping
 * linearly to full effect over [at_us, at_us + ramp_us).
 */
struct DriftEvent {
  std::size_t resource = 0;  // pool index, mirroring FaultPlan resources
  double at_us = 0;          // when the drift starts taking effect
  double ramp_us = 0;        // linear ramp-in duration (0 = step)
  double factor = 1.0;       // full-effect multiplier (1.12 = 12% slower)
  DriftScope scope = DriftScope::kAll;
};

/** Knobs for seed-driven generation; rate_per_s == 0 means no events. */
struct DriftScheduleConfig {
  double rate_per_s = 0;       // expected events per resource per sim-second
  double factor_sigma = 0.12;  // log-normal spread of generated factors
  double ramp_s = 0;           // ramp duration of generated events
  std::uint64_t seed = 1;
};

/**
 * The precomputed quirk-factor perturbation timeline of a resource pool —
 * the drift analogue of common/fault_injection's outage plans. Like a
 * FaultPlan, a schedule is generated up front from a seed (or given
 * explicitly), so a simulation's drift is bit-identical across runs,
 * platforms, and thread counts; consumers only evaluate FactorAt() and
 * never draw randomness of their own.
 */
class DriftSchedule {
 public:
  /** Empty schedule: FactorAt() == 1 everywhere. */
  DriftSchedule() = default;

  /**
   * Explicit schedule over `resources` resources. Events must name a
   * valid resource and carry a positive finite factor and non-negative
   * times (programmer-error CHECKs); they are sorted by start time.
   */
  DriftSchedule(std::size_t resources, std::vector<DriftEvent> events);

  /**
   * Seed-driven generation over [0, horizon_us): per-resource Poisson
   * event times at `config.rate_per_s`, log-normal factors, scopes
   * cycling deterministically. The per-resource stream is keyed on
   * (config.seed, resource index), so adding a resource never perturbs
   * the events of the existing ones.
   */
  DriftSchedule(std::size_t resources, double horizon_us,
                const DriftScheduleConfig& config);

  std::size_t resources() const { return events_.size(); }

  /** True when no resource has any event. */
  bool empty() const;

  /** Events of `resource`, sorted by at_us. */
  const std::vector<DriftEvent>& Events(std::size_t resource) const;

  /**
   * Compound service-time multiplier for `resource` at `time_us`.
   * `memory_share` is the fraction of the affected workload's time that
   * is memory-bound: a kMemoryBound event's effect is scaled by it, a
   * kComputeBound event's by (1 - memory_share), and kAll applies in
   * full. Events compose multiplicatively.
   */
  double FactorAt(std::size_t resource, double time_us,
                  double memory_share = 0.5) const;

 private:
  std::vector<std::vector<DriftEvent>> events_;  // per resource, by at_us
};

/**
 * The static keyed factors ExpectedKernelTimeUs draws for one launch.
 * They depend only on (GPU name, family) and (GPU name, kernel name), so
 * a caller that evaluates many launches on one GPU can draw each once.
 */
struct KernelFactors {
  double compute_arch = 1;  // per (GPU, family) compute-efficiency spread
  double memory_arch = 1;   // per (GPU, family) memory-efficiency spread
  double quirk = 1;         // per (GPU, kernel name) implementation quirk
};

/**
 * The synthetic GPU. Copyable; all state is configuration, and every
 * method is a pure function of its arguments and that configuration.
 */
class HardwareOracle {
 public:
  explicit HardwareOracle(const OracleConfig& config = OracleConfig());

  /** Noise-free expected duration of `launch` on `gpu`, microseconds. */
  double ExpectedKernelTimeUs(const KernelLaunch& launch,
                              const GpuSpec& gpu) const;

  /**
   * The same duration from caller-supplied keyed factors; equal bit for
   * bit to the two-argument form when `factors` holds the values of the
   * three factor functions below for this launch and GPU.
   */
  double ExpectedKernelTimeUs(const KernelLaunch& launch, const GpuSpec& gpu,
                              const KernelFactors& factors) const;

  /** Architecture factor on a family's compute efficiency on a GPU. */
  double ComputeArchFactor(const std::string& gpu_name,
                           KernelFamily family) const;

  /** Architecture factor on a family's memory efficiency on a GPU. */
  double MemoryArchFactor(const std::string& gpu_name,
                          KernelFamily family) const;

  /** Speed factor of one kernel implementation on a GPU. */
  double KernelQuirkFactor(const std::string& gpu_name,
                           const std::string& kernel_name) const;

  /** One noisy measurement; `rng` supplies the measurement noise stream. */
  double MeasureKernelTimeUs(const KernelLaunch& launch, const GpuSpec& gpu,
                             Rng* rng) const;

  /**
   * One noisy measurement from a pre-computed expected duration. Lets
   * callers that replay the same kernel many times pay the deterministic
   * model cost once.
   */
  double NoisyFromExpected(double expected_us, Rng* rng) const;

  const OracleConfig& config() const { return config_; }

 private:
  /** Grid-size slowdown: wave quantization + small-grid underutilization. */
  double OccupancySlowdown(std::int64_t blocks, int sm_count,
                           int blocks_per_sm) const;

  OracleConfig config_;
};

}  // namespace gpuperf::gpuexec

#endif  // GPUPERF_GPUEXEC_ORACLE_H_
