#include "zoo/resnet.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "dnn/builder.h"

namespace gpuperf::zoo {

using dnn::Chw;
using dnn::Network;
using dnn::NetworkBuilder;

namespace {

/** Emits one basic block (two 3x3 convs) with optional downsample. */
void BasicBlock(NetworkBuilder& b, std::int64_t channels, std::int64_t stride) {
  int block_in = b.Mark();
  b.Conv(channels, 3, stride, 1).BatchNorm().Relu();
  b.Conv(channels, 3, 1, 1).BatchNorm();
  int main_out = b.Mark();
  if (stride != 1 || b.ShapeAt(block_in).c != channels) {
    b.Restore(block_in);
    b.Conv(channels, 1, stride, 0).BatchNorm();
  } else {
    b.Restore(block_in);
  }
  b.AddFrom(main_out).Relu();
}

/** Emits one bottleneck block (1x1 -> grouped 3x3 -> 1x1, 4x expansion). */
void BottleneckBlock(NetworkBuilder& b, std::int64_t width,
                     std::int64_t stride, std::int64_t groups = 1,
                     double width_mult = 1.0) {
  const std::int64_t out_channels = width * 4;
  std::int64_t mid = static_cast<std::int64_t>(width * width_mult);
  if (mid % groups != 0) mid += groups - mid % groups;
  int block_in = b.Mark();
  b.Conv(mid, 1, 1, 0).BatchNorm().Relu();
  b.Conv(mid, 3, stride, 1, groups).BatchNorm().Relu();
  b.Conv(out_channels, 1, 1, 0).BatchNorm();
  int main_out = b.Mark();
  if (stride != 1 || b.ShapeAt(block_in).c != out_channels) {
    b.Restore(block_in);
    b.Conv(out_channels, 1, stride, 0).BatchNorm();
  } else {
    b.Restore(block_in);
  }
  b.AddFrom(main_out).Relu();
}

}  // namespace

Network BuildResNet(const ResNetConfig& config) {
  GP_CHECK_EQ(config.stage_blocks.size(), 4u);
  NetworkBuilder b(config.name, "ResNet",
                   Chw(3, config.input_resolution, config.input_resolution));
  b.Conv(config.base_width, 7, 2, 3).BatchNorm().Relu();
  b.MaxPool(3, 2, 1);
  for (int stage = 0; stage < 4; ++stage) {
    std::int64_t width = config.base_width << stage;
    for (int block = 0; block < config.stage_blocks[stage]; ++block) {
      std::int64_t stride = (stage > 0 && block == 0) ? 2 : 1;
      if (config.bottleneck) {
        BottleneckBlock(b, width, stride, config.groups,
                        config.bottleneck_width_mult);
      } else {
        BasicBlock(b, width, stride);
      }
    }
  }
  b.GlobalAvgPool().Flatten().Linear(config.num_classes);
  return b.Build();
}

ResNetConfig StandardResNetConfig(int depth) {
  ResNetConfig config;
  config.name = Format("resnet%d", depth);
  switch (depth) {
    case 18: config.bottleneck = false; config.stage_blocks = {2, 2, 2, 2}; break;
    case 34: config.bottleneck = false; config.stage_blocks = {3, 4, 6, 3}; break;
    case 50: config.bottleneck = true;  config.stage_blocks = {3, 4, 6, 3}; break;
    case 101: config.bottleneck = true; config.stage_blocks = {3, 4, 23, 3}; break;
    case 152: config.bottleneck = true; config.stage_blocks = {3, 8, 36, 3}; break;
    default: Fatal(Format("no standard ResNet of depth %d", depth));
  }
  return config;
}

Network BuildStandardResNet(int depth) {
  return BuildResNet(StandardResNetConfig(depth));
}

ResNetConfig ResNeXtConfig(int depth, std::int64_t groups,
                           std::int64_t width_per_group) {
  GP_CHECK(depth == 50 || depth == 101);
  ResNetConfig config;
  config.name = Format("resnext%d_%ldx%ldd", depth,
                       static_cast<long>(groups),
                       static_cast<long>(width_per_group));
  config.bottleneck = true;
  config.stage_blocks = depth == 50 ? std::vector<int>{3, 4, 6, 3}
                                    : std::vector<int>{3, 4, 23, 3};
  config.groups = groups;
  // torchvision: mid width = width_per_group * groups / 64 * stage width.
  config.bottleneck_width_mult =
      static_cast<double>(width_per_group * groups) / 64.0;
  return config;
}

Network BuildResNeXt(int depth, std::int64_t groups,
                     std::int64_t width_per_group) {
  return BuildResNet(ResNeXtConfig(depth, groups, width_per_group));
}

ResNetConfig WideResNetConfig(int depth, int width_factor) {
  GP_CHECK(depth == 50 || depth == 101);
  ResNetConfig config;
  config.name = Format("wide_resnet%d_%d", depth, width_factor);
  config.bottleneck = true;
  config.stage_blocks = depth == 50 ? std::vector<int>{3, 4, 6, 3}
                                    : std::vector<int>{3, 4, 23, 3};
  config.bottleneck_width_mult = width_factor;
  return config;
}

Network BuildWideResNet(int depth, int width_factor) {
  return BuildResNet(WideResNetConfig(depth, width_factor));
}

ResNetConfig ResNetWithBlocksConfig(int total_blocks, std::int64_t base_width,
                                    std::int64_t input_resolution) {
  GP_CHECK_GE(total_blocks, 4);
  // Distribute blocks in the standard 3:4:6:3 proportion, at least 1 each.
  const double weights[4] = {3.0, 4.0, 6.0, 3.0};
  std::vector<int> stage_blocks(4, 1);
  int assigned = 4;
  while (assigned < total_blocks) {
    // Give the next block to the stage furthest below its target share.
    int best = 0;
    double best_deficit = -1e18;
    for (int s = 0; s < 4; ++s) {
      double target = weights[s] / 16.0 * total_blocks;
      double deficit = target - stage_blocks[s];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = s;
      }
    }
    ++stage_blocks[best];
    ++assigned;
  }
  ResNetConfig config;
  config.name = Format("resnet%d", 3 * total_blocks + 2);
  if (base_width != 64) {
    config.name += Format("-w%ld", static_cast<long>(base_width));
  }
  if (input_resolution != 224) {
    config.name += Format("-r%ld", static_cast<long>(input_resolution));
  }
  config.bottleneck = true;
  config.stage_blocks = stage_blocks;
  config.base_width = base_width;
  config.input_resolution = input_resolution;
  return config;
}

Network BuildResNetWithBlocks(int total_blocks, std::int64_t base_width,
                              std::int64_t input_resolution) {
  return BuildResNet(
      ResNetWithBlocksConfig(total_blocks, base_width, input_resolution));
}

}  // namespace gpuperf::zoo
