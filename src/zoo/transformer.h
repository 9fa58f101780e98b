#ifndef GPUPERF_ZOO_TRANSFORMER_H_
#define GPUPERF_ZOO_TRANSFORMER_H_

/**
 * @file
 * BERT-style text-classification transformers — the "KW model extension for
 * Transformers" of Section 5.4 (HuggingFace text-classification group).
 *
 * Activations use the CHW struct as hidden x seq_len x 1; attention score
 * and context products are explicit batched MatMul layers.
 */

#include <cstdint>
#include <string>

#include "dnn/network.h"

namespace gpuperf::zoo {

/** Configuration of an encoder-only text classifier. */
struct TransformerConfig {
  std::string name = "bert_base";
  std::int64_t vocab_size = 30522;
  std::int64_t hidden_size = 768;
  std::int64_t num_layers = 12;
  std::int64_t num_heads = 12;
  std::int64_t intermediate_size = 3072;  // FFN width
  std::int64_t seq_len = 128;
  std::int64_t num_classes = 2;
};

/** Builds an encoder-only transformer text classifier. */
dnn::Network BuildTransformer(const TransformerConfig& config);

/**
 * Named presets: "bert_tiny|mini|small|medium|base|large", "distilbert".
 * BuildStandardTransformer is BuildTransformer of the preset's config.
 */
TransformerConfig StandardTransformerConfig(const std::string& preset,
                                            std::int64_t seq_len = 128);
dnn::Network BuildStandardTransformer(const std::string& preset,
                                      std::int64_t seq_len = 128);

/**
 * GPT-2-style decoder presets: "gpt2" (124M), "gpt2_medium" (355M),
 * "gpt2_large" (774M). Structurally an encoder stack with a
 * vocabulary-sized output projection; attention cost is identical for a
 * full-context forward pass.
 */
dnn::Network BuildGpt2(const std::string& preset,
                       std::int64_t seq_len = 1024);

}  // namespace gpuperf::zoo

#endif  // GPUPERF_ZOO_TRANSFORMER_H_
