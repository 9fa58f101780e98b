#ifndef GPUPERF_ZOO_DENSENET_H_
#define GPUPERF_ZOO_DENSENET_H_

/**
 * @file
 * DenseNet builders (Huang et al., CVPR'17). DenseNet-121/161/169/201 are
 * used by the paper's case studies 1-3.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.h"

namespace gpuperf::zoo {

/** Configuration of a DenseNet. */
struct DenseNetConfig {
  std::string name;
  std::vector<int> block_layers;     // dense layers per block (4 blocks)
  std::int64_t growth_rate = 32;
  std::int64_t init_features = 64;   // stem output channels
  std::int64_t input_resolution = 224;
  std::int64_t num_classes = 1000;
};

/** Builds a DenseNet from an explicit configuration. */
dnn::Network BuildDenseNet(const DenseNetConfig& config);

/** Standard torchvision variants: depth in {121, 161, 169, 201}. */
DenseNetConfig StandardDenseNetConfig(int depth);
dnn::Network BuildStandardDenseNet(int depth);

}  // namespace gpuperf::zoo

#endif  // GPUPERF_ZOO_DENSENET_H_
