#ifndef GPUPERF_ZOO_RESNET_H_
#define GPUPERF_ZOO_RESNET_H_

/**
 * @file
 * ResNet builders (He et al., CVPR'16), including the paper's non-standard
 * variants built by adding/removing blocks (Figure 4 and the ResNet-44/62/77
 * of case study 3: with bottleneck blocks, depth = 3 * total_blocks + 2).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.h"

namespace gpuperf::zoo {

/** Configuration of an ImageNet-style ResNet. */
struct ResNetConfig {
  std::string name;
  bool bottleneck = true;            // bottleneck (50+) vs basic (18/34) block
  std::vector<int> stage_blocks;     // blocks per stage (4 stages)
  std::int64_t base_width = 64;      // channels of the first stage
  std::int64_t groups = 1;           // cardinality (ResNeXt)
  double bottleneck_width_mult = 1.0;  // 3x3 width multiplier (ResNeXt/Wide)
  std::int64_t input_resolution = 224;
  std::int64_t num_classes = 1000;
};

/** Builds a ResNet from an explicit configuration. */
dnn::Network BuildResNet(const ResNetConfig& config);

// Each *Config below names its network before it is built; the Build*
// beside it is BuildResNet of that config.

/** Standard torchvision variants: depth in {18, 34, 50, 101, 152}. */
ResNetConfig StandardResNetConfig(int depth);
dnn::Network BuildStandardResNet(int depth);

/** ResNeXt-50 32x4d / ResNeXt-101 32x8d (Xie et al., CVPR'17). */
ResNetConfig ResNeXtConfig(int depth, std::int64_t groups = 32,
                           std::int64_t width_per_group = 4);
dnn::Network BuildResNeXt(int depth, std::int64_t groups = 32,
                          std::int64_t width_per_group = 4);

/** Wide ResNet-50-2 / -101-2 (Zagoruyko & Komodakis, BMVC'16). */
ResNetConfig WideResNetConfig(int depth, int width_factor = 2);
dnn::Network BuildWideResNet(int depth, int width_factor = 2);

/**
 * Non-standard bottleneck ResNet with `total_blocks` blocks distributed
 * across the four stages in the 3:4:6:3 standard proportion; its
 * conventional name is resnet{3*total_blocks+2} (e.g. 14 -> resnet44).
 */
ResNetConfig ResNetWithBlocksConfig(int total_blocks,
                                    std::int64_t base_width = 64,
                                    std::int64_t input_resolution = 224);
dnn::Network BuildResNetWithBlocks(int total_blocks,
                                   std::int64_t base_width = 64,
                                   std::int64_t input_resolution = 224);

}  // namespace gpuperf::zoo

#endif  // GPUPERF_ZOO_RESNET_H_
