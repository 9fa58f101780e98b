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

/** One layer's kernel launches at one (batch, workload). */
using LaunchList = std::vector<KernelLaunch>;

/**
 * One network lowered by Profiler::Lower for one (batch, workload), ready
 * to replay on any GPU: lowering does not depend on the GPU, so a
 * campaign lowers each network once and replays it on every device.
 */
struct LoweredNetwork {
  std::int64_t batch = 0;
  // Entry i is layer i's launch-list id in the lowering Profiler's
  // table; repeated layer configurations share an id.
  std::vector<std::uint32_t> ids;
  // Entry i views layer i's launch list in that table, valid while the
  // Profiler or a copy of it lives.
  std::vector<const LaunchList*> layers;
  // Flat launch indices (layer-major, as in `layers`) in execution
  // order: forward, then, for training steps, backward in reverse layer
  // order.
  std::vector<std::size_t> timeline;
  // The table the ids number; ReplayLowered checks it is its own.
  const void* table = nullptr;
};

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
 * Besides its configuration, a Profiler owns a lowering table and a memo
 * of the oracle's noise-free expected kernel times. The table interns
 * each distinct launch list under a dense id, so a campaign lowers each
 * layer configuration once; the memo keeps each list's expected times per
 * GpuSpec by that id, so the oracle formula is paid once per distinct
 * launch rather than once per occurrence. Copies share both, they are
 * freed with the last copy, and they are thread-safe: one Profiler may
 * serve a whole parallel campaign. Profiles are bit-identical to an
 * unmemoized evaluation.
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
   * Lowers `network` at `batch` under `workload` through the lowering
   * table: each layer's launch list (forward kernels, plus backward and
   * optimizer kernels for kTraining) is looked up, or lowered and
   * numbered on first use, and the execution order is fixed.
   */
  LoweredNetwork Lower(const dnn::Network& network, std::int64_t batch,
                       Workload workload = Workload::kInference) const;

  /** Number of distinct launch lists in the (shared) lowering table. */
  std::size_t LoweredListCount() const;

  /**
   * Runs `lowered` (this Profiler's, or a copy's, Lower of `network`) on
   * `gpu` with the measurement protocol. Profile() and MeasureE2eUs() are
   * this replay plus lowering; the first measured batch's start/end times
   * are recorded only when `with_timeline` is set.
   */
  Replay ReplayLowered(const dnn::Network& network,
                       const LoweredNetwork& lowered, const GpuSpec& gpu,
                       bool with_timeline = false) const;

 private:
  class Memo;

  HardwareOracle oracle_;
  int measured_batches_;
  std::shared_ptr<Memo> memo_;  // lowering table + times, shared by copies
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
