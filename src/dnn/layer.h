#ifndef GPUPERF_DNN_LAYER_H_
#define GPUPERF_DNN_LAYER_H_

/**
 * @file
 * The layer taxonomy.
 *
 * These are the building blocks the paper's Section 2 enumerates (CONV,
 * Pooling, activation, NORM, FC) plus the pieces needed for the model-zoo
 * families it samples (residual adds, DenseNet concats, depthwise
 * convolutions, channel shuffle) and the transformer extension of
 * Section 5.4 (embedding, layer norm, batched matmul, softmax, GELU).
 */

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dnn/tensor_shape.h"

namespace gpuperf::dnn {

/** Kinds of layers the framework can represent. */
enum class LayerKind {
  kConv2d,
  kLinear,
  kBatchNorm,
  kLayerNorm,
  kRelu,
  kRelu6,
  kGelu,
  kSigmoid,
  kAdd,
  kConcat,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kSoftmax,
  kFlatten,
  kEmbedding,
  kMatMul,
  kChannelShuffle,
  kDropout,  // keep last: kLayerKindCount counts through it
};

/** Number of LayerKind values (for dense per-kind tables). */
inline constexpr int kLayerKindCount =
    static_cast<int>(LayerKind::kDropout) + 1;

/** Human-readable layer-kind name, e.g. "CONV", "FC", "BN". */
std::string LayerKindName(LayerKind kind);

/**
 * Parses LayerKindName output back to the enum: stores the kind and
 * returns true, or returns false on unknown text. Safe for untrusted
 * files — callers own the error path.
 */
bool TryLayerKindFromName(const std::string& name, LayerKind* kind);

/** Activation fused into a convolution's epilogue (inference fusion). */
enum class ConvEpilogue { kNone, kBias, kRelu, kRelu6 };

/** Parameters of a 2-D convolution; groups==in_channels is depthwise. */
struct ConvParams {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t groups = 1;
  bool has_bias = false;
  ConvEpilogue epilogue = ConvEpilogue::kNone;  // set by the fusion pass

  bool IsDepthwise() const {
    return groups == in_channels && groups == out_channels;
  }
};

/** Parameters of a fully connected layer. */
struct LinearParams {
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
  bool has_bias = true;
};

/** Parameters of a (non-global) pooling window. */
struct PoolParams {
  std::int64_t kernel = 0;
  std::int64_t stride = 0;
  std::int64_t pad = 0;
};

/** Parameters of an embedding lookup. */
struct EmbeddingParams {
  std::int64_t vocab_size = 0;
  std::int64_t hidden_size = 0;
};

/**
 * Parameters of a generic batched matrix multiply (per image):
 * `batch` independent [m x k] * [k x n] products.
 */
struct MatMulParams {
  std::int64_t batch = 1;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
};

/** Parameters of a ShuffleNet channel shuffle. */
struct ChannelShuffleParams {
  std::int64_t groups = 1;
};

/** Empty parameter block for layers fully described by their shapes. */
struct NoParams {};

using LayerParams =
    std::variant<NoParams, ConvParams, LinearParams, PoolParams,
                 EmbeddingParams, MatMulParams, ChannelShuffleParams>;

/**
 * One layer instance inside a network.
 *
 * Shapes are per-image (batch-agnostic); `inputs` has one entry per
 * incoming tensor (two for Add, several for Concat).
 */
struct Layer {
  LayerKind kind = LayerKind::kRelu;
  std::string name;
  LayerParams params;
  std::vector<TensorShape> inputs;
  TensorShape output;

  /** Total per-image input elements across all incoming tensors. */
  std::int64_t InputElements() const;

  /** Typed parameter access; CHECKs the variant holds the right type. */
  const ConvParams& conv() const;
  const LinearParams& linear() const;
  const PoolParams& pool() const;
  const EmbeddingParams& embedding() const;
  const MatMulParams& matmul() const;
  const ChannelShuffleParams& shuffle() const;
};

/**
 * Compact textual signature of a layer's configuration, used as the key of
 * the learned layer-to-kernel mapping table (Section 5.4): two layers with
 * the same signature launch the same kernel list.
 */
std::string LayerSignature(const Layer& layer);

}  // namespace gpuperf::dnn

#endif  // GPUPERF_DNN_LAYER_H_
