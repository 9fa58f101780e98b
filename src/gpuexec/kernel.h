#ifndef GPUPERF_GPUEXEC_KERNEL_H_
#define GPUPERF_GPUEXEC_KERNEL_H_

/**
 * @file
 * The kernel IR that the lowering layer produces and the oracle consumes.
 *
 * A KernelLaunch is one GPU kernel invocation with its true resource
 * requirements (FLOPs, bytes, blocks) plus the *layer-level* quantities the
 * paper's models are allowed to use as regression features: input NCHW
 * product, layer theoretical FLOPs, and output NCHW product (O5).
 */

#include <cstdint>
#include <string>

#include "dnn/layer.h"

namespace gpuperf::gpuexec {

/** Broad implementation families; determine the oracle's efficiency bands. */
enum class KernelFamily {
  kGemm,              // dense matmul (FC, 1x1 conv, im2col conv, attention)
  kImplicitGemm,      // fused conv-as-gemm
  kWinogradTransform, // winograd input/output tile transforms
  kWinogradGemm,      // winograd pointwise batched gemm
  kFftTransform,      // FFT forward/inverse transforms
  kFftGemm,           // FFT pointwise complex multiply
  kDirectConv,        // direct convolution
  kDepthwiseConv,     // depthwise convolution
  kIm2col,            // explicit im2col expansion
  kElementwise,       // activations, residual adds, bias
  kBatchNorm,
  kLayerNorm,
  kPooling,
  kReduce,            // global pooling / reductions
  kSoftmax,
  kCopy,              // concat, channel shuffle, transpose
  kGather,            // embedding lookups
};

/** Number of KernelFamily values (dense tables index by family). */
inline constexpr int kKernelFamilyCount =
    static_cast<int>(KernelFamily::kGather) + 1;

/** Human-readable family name. */
std::string KernelFamilyName(KernelFamily family);

/**
 * Which layer-level quantity truly scales this kernel's cost. The lowering
 * layer records the ground truth; the KW model must *rediscover* it via R²
 * competition (O5), and a test asserts the rediscovery rate.
 */
enum class CostDriver { kInput, kOperation, kOutput };

/** Human-readable driver name ("input" / "operation" / "output"). */
std::string CostDriverName(CostDriver driver);

/**
 * The driver's feature value for a single sample (batch 1) of `layer`:
 * input NCHW, theoretical layer FLOPs, or output NCHW. Every driver is
 * linear in batch with this as the per-sample factor — `batch * value`
 * reproduces the batch-N feature exactly (in int64) — which is what
 * lets a compiled prediction plan inline the feature at compile time
 * and serve every batch size from one plan.
 */
std::int64_t PerSampleDriverValue(const dnn::Layer& layer, CostDriver driver);

/** One GPU kernel invocation. */
struct KernelLaunch {
  std::string name;        // kernel identity, e.g. "implicit_gemm_128x64"
  KernelFamily family = KernelFamily::kElementwise;
  CostDriver driver = CostDriver::kOutput;  // ground truth

  // True per-launch resource requirements (oracle inputs).
  std::int64_t flops = 0;      // executed FLOPs (FMA = 2)
  std::int64_t bytes_in = 0;   // bytes read from device memory
  std::int64_t bytes_out = 0;  // bytes written to device memory
  std::int64_t blocks = 0;     // thread blocks (occupancy)

  // Layer-level regression features (model inputs).
  dnn::LayerKind layer_kind = dnn::LayerKind::kRelu;
  std::int64_t batch = 1;          // batch size of this launch
  std::int64_t layer_flops = 0;    // theoretical layer FLOPs at this batch
  std::int64_t input_elems = 0;    // N*C*H*W of the layer input
  std::int64_t output_elems = 0;   // N*C*H*W of the layer output

  /** Total device-memory traffic. */
  std::int64_t TotalBytes() const { return bytes_in + bytes_out; }

  /** The feature value selected by `driver`. */
  std::int64_t DriverValue(CostDriver which) const;
};

}  // namespace gpuperf::gpuexec

#endif  // GPUPERF_GPUEXEC_KERNEL_H_
