#ifndef GPUPERF_GPUEXEC_GPU_SPEC_H_
#define GPUPERF_GPUEXEC_GPU_SPEC_H_

/**
 * @file
 * GPU hardware specifications — the paper's Table 1, plus the extra
 * microarchitectural fields the synthetic hardware oracle needs (SM count,
 * CPU launch interval). The paper's models only ever consume the Table 1
 * columns (theoretical bandwidth and TFLOPS); the extra fields exist to
 * make the *ground truth* richer than the models.
 */

#include <string>
#include <vector>

namespace gpuperf::gpuexec {

/** Specification of one GPU. */
struct GpuSpec {
  std::string name;
  double bandwidth_gbps = 0;   // theoretical memory bandwidth, GB/s
  double memory_gb = 0;        // device memory capacity
  double fp32_tflops = 0;      // theoretical FP32 throughput
  int tensor_cores = 0;        // tensor core count (0 = none)
  int sm_count = 0;            // streaming multiprocessors
  double launch_interval_us = 12.0;  // CPU-side per-kernel issue gap

  /**
   * Field-wise equality. Specs derived with WithBandwidth keep their
   * name, so only the whole spec identifies the hardware a time is for.
   */
  bool operator==(const GpuSpec&) const = default;

  /** Peak FP32 throughput in FLOP/s. */
  double PeakFlops() const { return fp32_tflops * 1e12; }

  /** Theoretical bandwidth in bytes/s. */
  double BandwidthBytesPerSec() const { return bandwidth_gbps * 1e9; }

  /** Returns a copy with a different theoretical bandwidth (case study 1). */
  GpuSpec WithBandwidth(double gbps) const;

  /**
   * A Multi-Instance GPU slice (the paper's future-work target):
   * `slices` of `total` compute/memory partitions, scaling SMs,
   * bandwidth, memory, TFLOPS, and tensor cores proportionally
   * (e.g. MigSlice(3, 7) on A100 models a 3g.20gb instance).
   */
  GpuSpec MigSlice(int slices, int total = 7) const;
};

/** All seven GPUs of the paper's Table 1. */
const std::vector<GpuSpec>& AllGpus();

/** Lookup by name ("A100", "TITAN RTX", ...); Fatal() if unknown. */
const GpuSpec& GpuByName(const std::string& name);

/** Lookup by name; nullptr if unknown (for user-supplied names). */
const GpuSpec* FindGpu(const std::string& name);

}  // namespace gpuperf::gpuexec

#endif  // GPUPERF_GPUEXEC_GPU_SPEC_H_
