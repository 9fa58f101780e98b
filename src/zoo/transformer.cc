#include "zoo/transformer.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "dnn/builder.h"

namespace gpuperf::zoo {

using dnn::Chw;
using dnn::Network;
using dnn::NetworkBuilder;

namespace {

/** One encoder layer: MHA + residual/LN, FFN + residual/LN. */
void EncoderLayer(NetworkBuilder& b, const TransformerConfig& config) {
  const std::int64_t h = config.hidden_size;
  const std::int64_t s = config.seq_len;
  const std::int64_t heads = config.num_heads;
  const std::int64_t head_dim = h / heads;

  int layer_in = b.Mark();
  // Fused QKV projection.
  b.Linear(3 * h);
  // Attention scores: per head [s x d] * [d x s].
  b.MatMul(heads, s, s, head_dim, Chw(heads, s, s));
  b.Softmax();
  // Context: per head [s x s] * [s x d].
  b.MatMul(heads, s, head_dim, s, Chw(h, s, 1));
  b.Linear(h);  // output projection
  b.AddFrom(layer_in);
  b.LayerNorm();
  int post_attention = b.Mark();
  b.Linear(config.intermediate_size);
  b.Gelu();
  b.Linear(h);
  b.AddFrom(post_attention);
  b.LayerNorm();
}

}  // namespace

Network BuildTransformer(const TransformerConfig& config) {
  GP_CHECK_EQ(config.hidden_size % config.num_heads, 0);
  NetworkBuilder b(config.name, "Transformer", Chw(1, config.seq_len, 1));
  b.Embedding(config.vocab_size, config.hidden_size, config.seq_len);
  b.LayerNorm();
  for (std::int64_t layer = 0; layer < config.num_layers; ++layer) {
    EncoderLayer(b, config);
  }
  // Pooler over [CLS] plus classification head.
  b.Linear(config.hidden_size);
  b.Sigmoid();
  b.Linear(config.num_classes);
  b.Softmax();
  return b.Build();
}

TransformerConfig StandardTransformerConfig(const std::string& preset,
                                            std::int64_t seq_len) {
  TransformerConfig config;
  config.seq_len = seq_len;
  config.name = seq_len == 128
                    ? preset
                    : preset + Format("-s%ld", static_cast<long>(seq_len));
  if (preset == "bert_tiny") {
    config.hidden_size = 128;
    config.num_layers = 2;
    config.num_heads = 2;
    config.intermediate_size = 512;
  } else if (preset == "bert_mini") {
    config.hidden_size = 256;
    config.num_layers = 4;
    config.num_heads = 4;
    config.intermediate_size = 1024;
  } else if (preset == "bert_small") {
    config.hidden_size = 512;
    config.num_layers = 4;
    config.num_heads = 8;
    config.intermediate_size = 2048;
  } else if (preset == "bert_medium") {
    config.hidden_size = 512;
    config.num_layers = 8;
    config.num_heads = 8;
    config.intermediate_size = 2048;
  } else if (preset == "bert_base") {
    // Defaults already describe bert_base.
  } else if (preset == "bert_large") {
    config.hidden_size = 1024;
    config.num_layers = 24;
    config.num_heads = 16;
    config.intermediate_size = 4096;
  } else if (preset == "distilbert") {
    config.num_layers = 6;
  } else {
    Fatal("unknown transformer preset: " + preset);
  }
  return config;
}

Network BuildStandardTransformer(const std::string& preset,
                                 std::int64_t seq_len) {
  return BuildTransformer(StandardTransformerConfig(preset, seq_len));
}

Network BuildGpt2(const std::string& preset, std::int64_t seq_len) {
  TransformerConfig config;
  config.vocab_size = 50257;
  config.seq_len = seq_len;
  config.num_classes = 50257;  // next-token head over the vocabulary
  if (preset == "gpt2") {
    config.hidden_size = 768;
    config.num_layers = 12;
    config.num_heads = 12;
    config.intermediate_size = 3072;
  } else if (preset == "gpt2_medium") {
    config.hidden_size = 1024;
    config.num_layers = 24;
    config.num_heads = 16;
    config.intermediate_size = 4096;
  } else if (preset == "gpt2_large") {
    config.hidden_size = 1280;
    config.num_layers = 36;
    config.num_heads = 20;
    config.intermediate_size = 5120;
  } else {
    Fatal("unknown GPT-2 preset: " + preset);
  }
  config.name = seq_len == 1024
                    ? preset
                    : preset + Format("-s%ld", static_cast<long>(seq_len));
  return BuildTransformer(config);
}

}  // namespace gpuperf::zoo
