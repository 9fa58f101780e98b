#ifndef GPUPERF_GPUEXEC_PROFILER_H_
#define GPUPERF_GPUEXEC_PROFILER_H_

/**
 * @file
 * The profiler — this repository's stand-in for the PyTorch Profiler.
 *
 * It runs a network on the hardware oracle with the paper's measurement
 * protocol (20 warm-up batches, then average over 30 measured batches),
 * and produces a trace that links layers to their kernels with per-kernel
 * durations, exactly the information Figure 2 shows the PyTorch Profiler
 * providing. End-to-end wall time follows a two-timeline model: the CPU
 * issues kernels at a fixed per-kernel interval, the GPU executes them in
 * order; small batches are therefore launch-bound (Figures 3 and 6).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dnn/network.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/kernel.h"
#include "gpuexec/lowering_cache.h"
#include "gpuexec/oracle.h"
#include "gpuexec/training.h"

namespace gpuperf::gpuexec {

/** One averaged kernel execution within a profile. */
struct KernelRecord {
  std::string kernel_name;
  KernelFamily family = KernelFamily::kElementwise;
  CostDriver true_driver = CostDriver::kOutput;  // ground truth (validation)
  int layer_index = 0;
  dnn::LayerKind layer_kind = dnn::LayerKind::kRelu;
  double time_us = 0;            // averaged duration
  double start_us = 0;           // timeline of the first measured batch
  double end_us = 0;
  std::int64_t kernel_flops = 0;
  std::int64_t kernel_bytes = 0;
  std::int64_t layer_flops = 0;  // regression features
  std::int64_t input_elems = 0;
  std::int64_t output_elems = 0;
};

/** A profiled (network, GPU, batch) run. */
struct NetworkProfile {
  std::string network_name;
  std::string network_family;
  std::string gpu_name;
  std::int64_t batch = 0;
  double e2e_time_us = 0;       // wall time per batch, averaged
  double gpu_busy_us = 0;       // sum of kernel durations
  std::int64_t total_flops = 0; // theoretical FLOPs at this batch
  std::vector<KernelRecord> kernels;

  /** Sums kernel durations per layer index (layer-wise times, O4). */
  std::vector<double> LayerTimesUs(std::size_t layer_count) const;
};

/**
 * One network lowered for one (batch, workload), ready to replay on any
 * GPU: lowering does not depend on the GPU, so a campaign lowers each
 * network once and replays it on every device.
 */
struct LoweredNetwork {
  std::int64_t batch = 0;
  // Entry i holds layer i's launch list, aliasing LoweringCache entries.
  std::vector<std::shared_ptr<const LoweringCache::LaunchList>> layers;
  // Flat launch indices (layer-major, as in `layers`) in execution
  // order: forward, then, for training steps, backward in reverse layer
  // order.
  std::vector<std::size_t> timeline;
};

/**
 * Lowers `network` through LoweringCache::Global(); the forward counts a
 * training timeline needs come from the cached inference lowering.
 */
LoweredNetwork LowerForReplay(const dnn::Network& network, std::int64_t batch,
                              Workload workload = Workload::kInference);

/** The measured outcome of replaying a LoweredNetwork on one GPU. */
struct Replay {
  std::vector<double> times_us;  // averaged per-kernel time, flat order
  std::vector<double> start_us;  // first measured batch's timeline, only
  std::vector<double> end_us;    // when asked for; flat order
  double e2e_time_us = 0;        // wall time per batch, averaged
  double gpu_busy_us = 0;        // sum of `times_us`
};

/**
 * Profiles networks against a HardwareOracle.
 *
 * Besides its configuration, a Profiler owns a memo of the oracle's
 * noise-free expected kernel times per (cached launch list, GpuSpec), so
 * a campaign pays the oracle formula once per distinct launch rather than
 * once per occurrence. Copies share the memo, it is freed with the last
 * copy, and it is thread-safe: one Profiler may serve a whole parallel
 * campaign. Profiles are bit-identical to an unmemoized evaluation.
 */
class Profiler {
 public:
  explicit Profiler(const HardwareOracle& oracle, int measured_batches = 30);

  /** Full kernel-level profile of one (network, GPU, batch) run. */
  NetworkProfile Profile(const dnn::Network& network, const GpuSpec& gpu,
                         std::int64_t batch,
                         Workload workload = Workload::kInference) const;

  /** e2e wall time only (torch.cuda.Event equivalent), microseconds. */
  double MeasureE2eUs(const dnn::Network& network, const GpuSpec& gpu,
                      std::int64_t batch,
                      Workload workload = Workload::kInference) const;

  /**
   * Runs `lowered` (a LowerForReplay of `network`) on `gpu` with the
   * measurement protocol. Profile() and MeasureE2eUs() are this replay
   * plus lowering; the first measured batch's start/end times are
   * recorded only when `with_timeline` is set.
   */
  Replay ReplayLowered(const dnn::Network& network,
                       const LoweredNetwork& lowered, const GpuSpec& gpu,
                       bool with_timeline = false) const;

 private:
  class ExpectedTimeMemo;

  HardwareOracle oracle_;
  int measured_batches_;
  std::shared_ptr<ExpectedTimeMemo> memo_;  // shared by copies
};

/** Achieved-vs-theoretical efficiency estimated from layer shapes (Fig 9). */
struct EfficiencyReport {
  double bandwidth_efficiency = 0;  // achieved/theoretical bandwidth
  double compute_efficiency = 0;    // achieved/theoretical FLOPS
};

/** Computes Figure 9's efficiencies for one profiled run. */
EfficiencyReport ComputeEfficiency(const dnn::Network& network,
                                   const NetworkProfile& profile,
                                   const GpuSpec& gpu);

}  // namespace gpuperf::gpuexec

#endif  // GPUPERF_GPUEXEC_PROFILER_H_
