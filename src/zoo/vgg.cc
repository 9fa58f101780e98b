#include "zoo/vgg.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "dnn/builder.h"

namespace gpuperf::zoo {

using dnn::Chw;
using dnn::Network;
using dnn::NetworkBuilder;

Network BuildVgg(const VggConfig& config) {
  GP_CHECK_EQ(config.stage_convs.size(), 5u);
  NetworkBuilder b(config.name, "VGG",
                   Chw(3, config.input_resolution, config.input_resolution));
  for (int stage = 0; stage < 5; ++stage) {
    std::int64_t width = std::min<std::int64_t>(config.base_width << stage,
                                                config.base_width * 8);
    for (int conv = 0; conv < config.stage_convs[stage]; ++conv) {
      b.Conv(width, 3, 1, 1, /*groups=*/1, /*bias=*/!config.batch_norm);
      if (config.batch_norm) b.BatchNorm();
      b.Relu();
    }
    b.MaxPool(2, 2, 0);
  }
  // Classifier head (4096-4096-classes as in torchvision).
  b.Flatten();
  b.Linear(4096).Relu().Dropout();
  b.Linear(4096).Relu().Dropout();
  b.Linear(config.num_classes);
  return b.Build();
}

VggConfig StandardVggConfig(int depth, bool batch_norm) {
  VggConfig config;
  config.name = Format("vgg%d%s", depth, batch_norm ? "_bn" : "");
  config.batch_norm = batch_norm;
  switch (depth) {
    case 11: config.stage_convs = {1, 1, 2, 2, 2}; break;
    case 13: config.stage_convs = {2, 2, 2, 2, 2}; break;
    case 16: config.stage_convs = {2, 2, 3, 3, 3}; break;
    case 19: config.stage_convs = {2, 2, 4, 4, 4}; break;
    default: Fatal(Format("no standard VGG of depth %d", depth));
  }
  return config;
}

Network BuildStandardVgg(int depth, bool batch_norm) {
  return BuildVgg(StandardVggConfig(depth, batch_norm));
}

VggConfig VggWithConvsConfig(int total_convs, std::int64_t base_width,
                             std::int64_t input_resolution) {
  GP_CHECK_GE(total_convs, 5);
  // Fill stages round-robin from the deepest (cheap) stages first, the same
  // direction VGG-16 -> VGG-19 grows.
  std::vector<int> stage_convs(5, 1);
  int assigned = 5;
  int stage = 4;
  while (assigned < total_convs) {
    ++stage_convs[stage];
    ++assigned;
    stage = (stage + 4) % 5;  // 4, 3, 2, 1, 0, 4, ...
  }
  VggConfig config;
  config.name = Format("vgg-c%d", total_convs);
  if (base_width != 64) {
    config.name += Format("-w%ld", static_cast<long>(base_width));
  }
  if (input_resolution != 224) {
    config.name += Format("-r%ld", static_cast<long>(input_resolution));
  }
  config.stage_convs = stage_convs;
  config.base_width = base_width;
  config.input_resolution = input_resolution;
  return config;
}

Network BuildVggWithConvs(int total_convs, std::int64_t base_width,
                          std::int64_t input_resolution) {
  return BuildVgg(
      VggWithConvsConfig(total_convs, base_width, input_resolution));
}

}  // namespace gpuperf::zoo
