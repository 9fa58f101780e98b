#include "dnn/layer.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace gpuperf::dnn {

std::string LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d: return "CONV";
    case LayerKind::kLinear: return "FC";
    case LayerKind::kBatchNorm: return "BN";
    case LayerKind::kLayerNorm: return "LN";
    case LayerKind::kRelu: return "ReLU";
    case LayerKind::kRelu6: return "ReLU6";
    case LayerKind::kGelu: return "GELU";
    case LayerKind::kSigmoid: return "Sigmoid";
    case LayerKind::kAdd: return "Add";
    case LayerKind::kConcat: return "Concat";
    case LayerKind::kMaxPool: return "MaxPool";
    case LayerKind::kAvgPool: return "AvgPool";
    case LayerKind::kGlobalAvgPool: return "GlobalAvgPool";
    case LayerKind::kSoftmax: return "Softmax";
    case LayerKind::kFlatten: return "Flatten";
    case LayerKind::kEmbedding: return "Embedding";
    case LayerKind::kMatMul: return "MatMul";
    case LayerKind::kChannelShuffle: return "ChannelShuffle";
    case LayerKind::kDropout: return "Dropout";
  }
  GP_CHECK(false) << "unhandled LayerKind";
  return "";
}

bool TryLayerKindFromName(const std::string& name, LayerKind* kind) {
  static const std::pair<const char*, LayerKind> kTable[] = {
      {"CONV", LayerKind::kConv2d},
      {"FC", LayerKind::kLinear},
      {"BN", LayerKind::kBatchNorm},
      {"LN", LayerKind::kLayerNorm},
      {"ReLU", LayerKind::kRelu},
      {"ReLU6", LayerKind::kRelu6},
      {"GELU", LayerKind::kGelu},
      {"Sigmoid", LayerKind::kSigmoid},
      {"Add", LayerKind::kAdd},
      {"Concat", LayerKind::kConcat},
      {"MaxPool", LayerKind::kMaxPool},
      {"AvgPool", LayerKind::kAvgPool},
      {"GlobalAvgPool", LayerKind::kGlobalAvgPool},
      {"Softmax", LayerKind::kSoftmax},
      {"Flatten", LayerKind::kFlatten},
      {"Embedding", LayerKind::kEmbedding},
      {"MatMul", LayerKind::kMatMul},
      {"ChannelShuffle", LayerKind::kChannelShuffle},
      {"Dropout", LayerKind::kDropout},
  };
  for (const auto& [text, table_kind] : kTable) {
    if (name == text) {
      *kind = table_kind;
      return true;
    }
  }
  return false;
}

std::int64_t Layer::InputElements() const {
  std::int64_t total = 0;
  for (const TensorShape& shape : inputs) total += shape.Elements();
  return total;
}

const ConvParams& Layer::conv() const {
  GP_CHECK(std::holds_alternative<ConvParams>(params)) << name;
  return std::get<ConvParams>(params);
}

const LinearParams& Layer::linear() const {
  GP_CHECK(std::holds_alternative<LinearParams>(params)) << name;
  return std::get<LinearParams>(params);
}

const PoolParams& Layer::pool() const {
  GP_CHECK(std::holds_alternative<PoolParams>(params)) << name;
  return std::get<PoolParams>(params);
}

const EmbeddingParams& Layer::embedding() const {
  GP_CHECK(std::holds_alternative<EmbeddingParams>(params)) << name;
  return std::get<EmbeddingParams>(params);
}

const MatMulParams& Layer::matmul() const {
  GP_CHECK(std::holds_alternative<MatMulParams>(params)) << name;
  return std::get<MatMulParams>(params);
}

const ChannelShuffleParams& Layer::shuffle() const {
  GP_CHECK(std::holds_alternative<ChannelShuffleParams>(params)) << name;
  return std::get<ChannelShuffleParams>(params);
}

namespace {

/** Appends `tag` then `value` in decimal (what "%ld" printed). */
void AppendTagged(std::string& out, const char* tag, std::int64_t value) {
  out += tag;
  AppendInt(out, value);
}

/** Appends `tag` then the shape as "CxHxW" (TensorShape::ToString). */
void AppendShape(std::string& out, const char* tag, const TensorShape& s) {
  AppendTagged(out, tag, s.c);
  AppendTagged(out, "x", s.h);
  AppendTagged(out, "x", s.w);
}

}  // namespace

std::string LayerSignature(const Layer& layer) {
  // Built for every layer of every network a model first sees, so the
  // digits are appended in place into one reserved buffer.
  std::string sig;
  sig.reserve(96 + 24 * layer.inputs.size());
  sig += LayerKindName(layer.kind);
  for (const TensorShape& in : layer.inputs) AppendShape(sig, "/i", in);
  AppendShape(sig, "/o", layer.output);
  switch (layer.kind) {
    case LayerKind::kConv2d: {
      const ConvParams& p = layer.conv();
      AppendTagged(sig, "/k", p.kernel_h);
      AppendTagged(sig, "x", p.kernel_w);
      AppendTagged(sig, "/s", p.stride_h);
      AppendTagged(sig, "x", p.stride_w);
      AppendTagged(sig, "/p", p.pad_h);
      AppendTagged(sig, "x", p.pad_w);
      AppendTagged(sig, "/g", p.groups);
      if (p.epilogue == ConvEpilogue::kBias) sig += "/ebias";
      if (p.epilogue == ConvEpilogue::kRelu) sig += "/erelu";
      if (p.epilogue == ConvEpilogue::kRelu6) sig += "/erelu6";
      break;
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: {
      const PoolParams& p = layer.pool();
      AppendTagged(sig, "/k", p.kernel);
      AppendTagged(sig, "/s", p.stride);
      AppendTagged(sig, "/p", p.pad);
      break;
    }
    case LayerKind::kMatMul: {
      const MatMulParams& p = layer.matmul();
      AppendTagged(sig, "/b", p.batch);
      AppendTagged(sig, "/m", p.m);
      AppendTagged(sig, "/n", p.n);
      AppendTagged(sig, "/k", p.k);
      break;
    }
    default:
      break;
  }
  return sig;
}

}  // namespace gpuperf::dnn
