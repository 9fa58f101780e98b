#ifndef GPUPERF_DNN_NETWORK_H_
#define GPUPERF_DNN_NETWORK_H_

/**
 * @file
 * A network is the unit the predictor consumes: an ordered list of layers
 * with resolved shapes.
 *
 * Execution order is a topological serialization of the dataflow graph,
 * which matches how PyTorch launches work on a single CUDA stream; the
 * branch structure only matters for shape inference, which NetworkBuilder
 * resolves while constructing the list.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/layer.h"
#include "dnn/tensor_shape.h"

namespace gpuperf::dnn {

/** A fully shaped DNN ready for lowering, profiling, and prediction. */
class Network {
 public:
  Network(std::string name, std::string family, TensorShape input)
      : name_(std::move(name)), family_(std::move(family)), input_(input) {}

  /** Unique model name, e.g. "resnet50". */
  const std::string& name() const { return name_; }

  /** Model family, e.g. "ResNet" — used to color Figure 4's series. */
  const std::string& family() const { return family_; }

  /** Per-image input shape (e.g. 3x224x224). */
  const TensorShape& input() const { return input_; }

  /** Execution-ordered layers. */
  const std::vector<Layer>& layers() const { return layers_; }

  /**
   * Appends a layer (used by NetworkBuilder and the fusion pass). The
   * only mutator, so it also folds the layer's kind and element counts
   * into structure_hash().
   */
  void AppendLayer(Layer layer);

  /**
   * Running hash of every appended layer's kind, input elements and
   * output elements, in order. Maintained by AppendLayer, so reading it
   * is O(1); models::NetworkFingerprint builds its cache key on it.
   */
  std::uint64_t structure_hash() const { return structure_hash_; }

  /** Number of trainable parameters (weights + biases). */
  std::int64_t ParameterCount() const;

  /** Renders a layer-by-layer summary for debugging and examples. */
  std::string Summary() const;

 private:
  std::string name_;
  std::string family_;
  TensorShape input_;
  std::vector<Layer> layers_;
  std::uint64_t structure_hash_ = 0;
};

}  // namespace gpuperf::dnn

#endif  // GPUPERF_DNN_NETWORK_H_
