#ifndef GPUPERF_ZOO_ZOO_H_
#define GPUPERF_ZOO_ZOO_H_

/**
 * @file
 * The model zoo.
 *
 * The paper collects 646 networks from TorchVision and HuggingFace; this
 * zoo reproduces that scale with deterministic parametric sweeps over
 * the implemented families plus a structurally diverse "mixnet" sampler
 * standing in for the long tail of community models. The zoo is one table
 * of named recipes, deduplicated by name, so every function below builds
 * only the networks it returns.
 */

#include <string>
#include <vector>

#include "common/status.h"
#include "dnn/network.h"

namespace gpuperf::zoo {

/** Number of image-classification networks in the full zoo (paper: 646). */
inline constexpr int kImageZooSize = 646;

/**
 * Builds a network by its canonical name.
 *
 * Supports the names used throughout the paper's figures: resnet{depth}
 * (standard depths and the non-standard 44/62/77 pattern), vgg{depth}_bn,
 * densenet{121,161,169,201}, mobilenet_v2, shufflenet_v1, alexnet,
 * googlenet, squeezenet1_{0,1}, and the transformer presets. Fatal() on an
 * unknown name.
 */
dnn::Network BuildByName(const std::string& name);

/**
 * As BuildByName, but an unknown or malformed name is a NotFound error
 * (naming the nearest valid spelling rule) instead of a Fatal — the form
 * user-facing tools must use, since the name typically comes from argv.
 * Any other zoo name (sweep variants such as "vgg-c18-w96", "mixnet-042"
 * or "bert_tiny-s64") builds that one entry of the zoo.
 */
[[nodiscard]] StatusOr<dnn::Network> TryBuildByName(const std::string& name);

/**
 * The full 646-network image-classification zoo, deduplicated by name.
 * Deterministic: the same list on every call.
 */
std::vector<dnn::Network> ImageClassificationZoo();

/** A smaller zoo (every `stride`-th network) for fast tests. */
std::vector<dnn::Network> SmallZoo(int stride = 16);

/** Text-classification transformer group (Section 5.4 extension). */
std::vector<dnn::Network> TransformerZoo();

}  // namespace gpuperf::zoo

#endif  // GPUPERF_ZOO_ZOO_H_
