#ifndef GPUPERF_GPUEXEC_TRAINING_H_
#define GPUPERF_GPUEXEC_TRAINING_H_

/**
 * @file
 * Training-step lowering — the paper's first future-work item ("our
 * future work will focus on extending our models for more diverse
 * workloads (e.g., training)").
 *
 * One SGD training step is lowered as: the forward kernels of every
 * layer (identical to inference), then, walking the layers in reverse,
 * each layer's backward kernels (data-gradient and weight-gradient), and
 * finally one optimizer-update kernel per parameterized layer. Every
 * kernel carries the same layer-level regression features as inference,
 * so the unchanged KW machinery trains and predicts on training-step
 * datasets transparently: the layer-to-kernel mapping table simply learns
 * longer kernel lists.
 */

#include <cstdint>
#include <vector>

#include "dnn/layer.h"
#include "dnn/network.h"
#include "gpuexec/kernel.h"

namespace gpuperf::gpuexec {

/** What a profiled run executes. */
enum class Workload {
  kInference,  // forward only
  kTraining,   // forward + backward + SGD update
};

/** Backward + optimizer kernels of one layer at batch size `batch`. */
std::vector<KernelLaunch> LowerLayerBackward(const dnn::Layer& layer,
                                             std::int64_t batch);

/**
 * Lowers a full workload; entry i holds layer i's kernels. For
 * kTraining, each layer's list is its forward kernels followed by its
 * backward/optimizer kernels (grouping per layer keeps the mapping table
 * layer-keyed; the profiler still executes forward and backward in the
 * correct global order).
 */
std::vector<std::vector<KernelLaunch>> LowerNetworkWorkload(
    const dnn::Network& network, std::int64_t batch, Workload workload);

/**
 * The execution order of a training step over the per-layer kernel lists
 * produced by LowerNetworkWorkload: forward kernels of layers 0..n-1,
 * then backward kernels of layers n-1..0. Returns (layer, kernel) index
 * pairs into the lowered structure.
 */
std::vector<std::pair<int, int>> TrainingExecutionOrder(
    const dnn::Network& network,
    const std::vector<std::vector<KernelLaunch>>& lowered);

/**
 * The same order computed from per-layer (forward count, total count)
 * pairs, for callers that hold interned launch lists instead of owned
 * vectors (the Profiler's lowering table stores both counts).
 */
std::vector<std::pair<int, int>> TrainingExecutionOrderFromCounts(
    const std::vector<std::pair<int, int>>& counts);

}  // namespace gpuperf::gpuexec

#endif  // GPUPERF_GPUEXEC_TRAINING_H_
