#ifndef GPUPERF_ZOO_VGG_H_
#define GPUPERF_ZOO_VGG_H_

/**
 * @file
 * VGG builders (Simonyan & Zisserman, ICLR'15), including the paper's
 * non-standard variants with blocks added/removed (Figure 4).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.h"

namespace gpuperf::zoo {

/** Configuration of a VGG network. */
struct VggConfig {
  std::string name;
  std::vector<int> stage_convs;      // 3x3 convs per stage (5 stages)
  bool batch_norm = true;
  std::int64_t base_width = 64;
  std::int64_t input_resolution = 224;
  std::int64_t num_classes = 1000;
};

/** Builds a VGG from an explicit configuration. */
dnn::Network BuildVgg(const VggConfig& config);

// Each *Config below names its network before it is built; the Build*
// beside it is BuildVgg of that config.

/** Standard torchvision variants: depth in {11, 13, 16, 19}. */
VggConfig StandardVggConfig(int depth, bool batch_norm = true);
dnn::Network BuildStandardVgg(int depth, bool batch_norm = true);

/**
 * Non-standard VGG with `total_convs` 3x3 convolutions distributed evenly
 * across the five stages (deepest stages first, like VGG-19 vs VGG-16).
 */
VggConfig VggWithConvsConfig(int total_convs, std::int64_t base_width = 64,
                             std::int64_t input_resolution = 224);
dnn::Network BuildVggWithConvs(int total_convs, std::int64_t base_width = 64,
                               std::int64_t input_resolution = 224);

}  // namespace gpuperf::zoo

#endif  // GPUPERF_ZOO_VGG_H_
