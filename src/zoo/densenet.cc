#include "zoo/densenet.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "dnn/builder.h"

namespace gpuperf::zoo {

using dnn::Chw;
using dnn::Network;
using dnn::NetworkBuilder;

namespace {

/** Dense layer: BN-ReLU-1x1(4g)-BN-ReLU-3x3(g), concatenated with input. */
void DenseLayer(NetworkBuilder& b, std::int64_t growth_rate) {
  int layer_in = b.Mark();
  b.BatchNorm().Relu();
  b.Conv(4 * growth_rate, 1, 1, 0);
  b.BatchNorm().Relu();
  b.Conv(growth_rate, 3, 1, 1);
  int layer_out = b.Mark();
  b.Concat({layer_in, layer_out});
}

/** Transition: BN-ReLU-1x1(C/2)-AvgPool2. */
void Transition(NetworkBuilder& b) {
  b.BatchNorm().Relu();
  b.Conv(b.CurrentShape().c / 2, 1, 1, 0);
  b.AvgPool(2, 2, 0);
}

}  // namespace

Network BuildDenseNet(const DenseNetConfig& config) {
  GP_CHECK_EQ(config.block_layers.size(), 4u);
  NetworkBuilder b(config.name, "DenseNet",
                   Chw(3, config.input_resolution, config.input_resolution));
  b.Conv(config.init_features, 7, 2, 3).BatchNorm().Relu();
  b.MaxPool(3, 2, 1);
  for (std::size_t block = 0; block < config.block_layers.size(); ++block) {
    for (int layer = 0; layer < config.block_layers[block]; ++layer) {
      DenseLayer(b, config.growth_rate);
    }
    if (block + 1 < config.block_layers.size()) Transition(b);
  }
  b.BatchNorm().Relu();
  b.GlobalAvgPool().Flatten().Linear(config.num_classes);
  return b.Build();
}

DenseNetConfig StandardDenseNetConfig(int depth) {
  DenseNetConfig config;
  config.name = Format("densenet%d", depth);
  switch (depth) {
    case 121: config.block_layers = {6, 12, 24, 16}; break;
    case 161:
      config.block_layers = {6, 12, 36, 24};
      config.growth_rate = 48;
      config.init_features = 96;
      break;
    case 169: config.block_layers = {6, 12, 32, 32}; break;
    case 201: config.block_layers = {6, 12, 48, 32}; break;
    default: Fatal(Format("no standard DenseNet of depth %d", depth));
  }
  return config;
}

Network BuildStandardDenseNet(int depth) {
  return BuildDenseNet(StandardDenseNetConfig(depth));
}

}  // namespace gpuperf::zoo
