#include "dnn/network.h"

#include "common/random.h"
#include "common/string_util.h"
#include "dnn/flops.h"

namespace gpuperf::dnn {

void Network::AppendLayer(Layer layer) {
  structure_hash_ =
      HashCombine(structure_hash_, static_cast<std::uint64_t>(layer.kind));
  structure_hash_ = HashCombine(
      structure_hash_, static_cast<std::uint64_t>(layer.InputElements()));
  structure_hash_ = HashCombine(
      structure_hash_, static_cast<std::uint64_t>(layer.output.Elements()));
  layers_.push_back(std::move(layer));
}

std::int64_t Network::ParameterCount() const {
  std::int64_t total = 0;
  for (const Layer& layer : layers_) total += LayerWeightCount(layer);
  return total;
}

std::string Network::Summary() const {
  std::string out = Format("%s (%s), input %s, %ld layers, %s params\n",
                           name_.c_str(), family_.c_str(),
                           input_.ToString().c_str(),
                           static_cast<long>(layers_.size()),
                           Engineering(static_cast<double>(ParameterCount()))
                               .c_str());
  for (const Layer& layer : layers_) {
    out += Format("  %-24s %-14s -> %-14s %10s FLOPs\n", layer.name.c_str(),
                  layer.inputs.empty() ? "-"
                                       : layer.inputs[0].ToString().c_str(),
                  layer.output.ToString().c_str(),
                  Engineering(static_cast<double>(LayerFlops(layer, 1)))
                      .c_str());
  }
  return out;
}

}  // namespace gpuperf::dnn
