#include "zoo/zoo.h"

#include <functional>
#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "dnn/builder.h"
#include "zoo/classic.h"
#include "zoo/densenet.h"
#include "zoo/mobilenet.h"
#include "zoo/resnet.h"
#include "zoo/shufflenet.h"
#include "zoo/transformer.h"
#include "zoo/vgg.h"

namespace gpuperf::zoo {

using dnn::Chw;
using dnn::Network;
using dnn::NetworkBuilder;

namespace {

/** Parses a positive integer suffix, e.g. ("resnet50", "resnet") -> 50. */
bool ParseIntSuffix(const std::string& name, const std::string& prefix,
                    int* value) {
  if (!StartsWith(name, prefix)) return false;
  const std::string digits = name.substr(prefix.size());
  if (digits.empty()) return false;
  int parsed = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + (c - '0');
  }
  *value = parsed;
  return true;
}

std::string MixNetName(int index) { return Format("mixnet-%03d", index); }

/**
 * Deterministically samples a structurally diverse plain/residual CNN,
 * standing in for the long tail of community models in the paper's zoo.
 */
Network BuildMixNet(int index) {
  Rng rng(HashCombine(0x6d69786eULL /* "mixn" */, index));
  const std::int64_t resolutions[] = {160, 192, 224, 256};
  std::int64_t resolution = resolutions[rng.NextBelow(4)];
  std::int64_t width = 32 + 8 * static_cast<std::int64_t>(rng.NextBelow(9));
  int num_stages = 3 + static_cast<int>(rng.NextBelow(3));
  int style = static_cast<int>(rng.NextBelow(4));

  NetworkBuilder b(MixNetName(index), "MixNet",
                   Chw(3, resolution, resolution));
  b.Conv(width, 3, 2, 1).BatchNorm().Relu();
  for (int stage = 0; stage < num_stages; ++stage) {
    int blocks = 1 + static_cast<int>(rng.NextBelow(5));
    for (int block = 0; block < blocks; ++block) {
      std::int64_t stride = (block == 0 && stage > 0) ? 2 : 1;
      switch (style) {
        case 0:  // plain VGG-ish stack
          b.Conv(width, 3, stride, 1).BatchNorm().Relu();
          break;
        case 1: {  // residual basic block
          int in = b.Mark();
          b.Conv(width, 3, stride, 1).BatchNorm().Relu();
          b.Conv(width, 3, 1, 1).BatchNorm();
          int out = b.Mark();
          if (stride != 1 || b.ShapeAt(in).c != width) {
            b.Restore(in).Conv(width, 1, stride, 0).BatchNorm();
          } else {
            b.Restore(in);
          }
          b.AddFrom(out).Relu();
          break;
        }
        case 2: {  // depthwise separable
          std::int64_t c = b.CurrentShape().c;
          b.Conv(c, 3, stride, 1, /*groups=*/c).BatchNorm().Relu6();
          b.Conv(width, 1, 1, 0).BatchNorm().Relu6();
          break;
        }
        default: {  // bottleneck
          int in = b.Mark();
          b.Conv(width / 2, 1, 1, 0).BatchNorm().Relu();
          b.Conv(width / 2, 3, stride, 1).BatchNorm().Relu();
          b.Conv(width, 1, 1, 0).BatchNorm();
          int out = b.Mark();
          if (stride != 1 || b.ShapeAt(in).c != width) {
            b.Restore(in).Conv(width, 1, stride, 0).BatchNorm();
          } else {
            b.Restore(in);
          }
          b.AddFrom(out).Relu();
          break;
        }
      }
    }
    width = std::min<std::int64_t>(width * 2, 1024);
  }
  b.GlobalAvgPool().Flatten().Linear(1000);
  return b.Build();
}

/** Basic-block ResNet with a custom block count (depth = 2*blocks + 2). */
ResNetConfig BasicResNetWithBlocksConfig(int total_blocks) {
  std::vector<int> stage_blocks(4, 1);
  int assigned = 4;
  int stage = 0;
  while (assigned < total_blocks) {
    ++stage_blocks[stage];
    ++assigned;
    stage = (stage + 1) % 4;
  }
  ResNetConfig config;
  config.name = Format("resnet%d-basic", 2 * total_blocks + 2);
  config.bottleneck = false;
  config.stage_blocks = stage_blocks;
  return config;
}

/**
 * One zoo entry: the name of its network, known before the network is
 * built, and how to build it.
 */
struct Recipe {
  std::string name;
  std::function<Network()> build;
};

/** The recipe of a family config, which carries the network's name. */
template <typename Config>
Recipe Named(Config config, Network (*build)(const Config&)) {
  std::string name = config.name;
  return {std::move(name), [config = std::move(config), build] {
            return build(config);
          }};
}

Network Build(const Recipe& recipe) {
  Network net = recipe.build();
  GP_CHECK_EQ(net.name(), recipe.name);
  return net;
}

/**
 * The 646 image-classification recipes in zoo order. Duplicates are
 * dropped by name before anything is built, so handing out a subset
 * builds only that subset.
 */
std::vector<Recipe> MakeImageRecipes() {
  std::vector<Recipe> recipes;
  std::set<std::string> seen;
  auto add = [&](Recipe recipe) {
    if (seen.insert(recipe.name).second) recipes.push_back(std::move(recipe));
  };

  // Standard torchvision models.
  for (int depth : {18, 34, 50, 101, 152}) {
    add(Named(StandardResNetConfig(depth), BuildResNet));
  }
  for (int depth : {11, 13, 16, 19}) {
    add(Named(StandardVggConfig(depth, true), BuildVgg));
    add(Named(StandardVggConfig(depth, false), BuildVgg));
  }
  for (int depth : {121, 161, 169, 201}) {
    add(Named(StandardDenseNetConfig(depth), BuildDenseNet));
  }
  add(Named(ResNeXtConfig(50), BuildResNet));
  add(Named(ResNeXtConfig(101, 32, 8), BuildResNet));
  add(Named(WideResNetConfig(50), BuildResNet));
  add(Named(WideResNetConfig(101), BuildResNet));
  add({"alexnet", [] { return BuildAlexNet(); }});
  add({"googlenet", [] { return BuildGoogLeNet(); }});
  add({"squeezenet1_0", [] { return BuildSqueezeNet(0); }});
  add({"squeezenet1_1", [] { return BuildSqueezeNet(1); }});
  add(Named(MobileNetV2Config{}, BuildMobileNetV2));
  add(Named(ShuffleNetV1Config{}, BuildShuffleNetV1));

  // Bottleneck ResNet depth x width sweep (Figure 4's "non-standard
  // ResNet" family).
  for (int blocks = 4; blocks <= 43; ++blocks) {
    for (std::int64_t width : {32, 48, 64, 96}) {
      add(Named(ResNetWithBlocksConfig(blocks, width), BuildResNet));
    }
  }
  // ResNet resolution variants.
  for (int blocks : {8, 16, 24, 32, 40}) {
    for (std::int64_t resolution : {160, 192, 256}) {
      add(Named(ResNetWithBlocksConfig(blocks, 64, resolution),
                BuildResNet));
    }
  }
  // Basic-block ResNets.
  for (int blocks = 4; blocks <= 25; ++blocks) {
    add(Named(BasicResNetWithBlocksConfig(blocks), BuildResNet));
  }
  // VGG conv-count x width sweep (Figure 4's "non-standard VGG" family).
  for (int convs = 6; convs <= 30; ++convs) {
    for (std::int64_t width : {48, 64, 96}) {
      add(Named(VggWithConvsConfig(convs, width), BuildVgg));
    }
  }
  for (int convs : {8, 11, 13, 16, 19, 24}) {
    for (std::int64_t resolution : {160, 192, 256}) {
      add(Named(VggWithConvsConfig(convs, 64, resolution), BuildVgg));
    }
  }
  // DenseNet growth x depth sweep.
  {
    const std::vector<std::vector<int>> block_configs = {
        {2, 4, 8, 6},   {3, 6, 12, 8},  {4, 8, 16, 12},
        {6, 12, 24, 16}, {6, 12, 32, 32}, {6, 12, 48, 32},
    };
    for (std::int64_t growth : {12, 16, 24, 32, 40, 48}) {
      for (std::size_t cfg = 0; cfg < block_configs.size(); ++cfg) {
        DenseNetConfig config;
        config.name = Format("densenet-g%ld-c%zu",
                             static_cast<long>(growth), cfg);
        config.block_layers = block_configs[cfg];
        config.growth_rate = growth;
        add(Named(std::move(config), BuildDenseNet));
      }
    }
  }
  // MobileNetV2 width x resolution sweep.
  for (double width : {0.5, 0.75, 1.0, 1.25, 1.4}) {
    for (std::int64_t resolution : {160, 192, 224, 256}) {
      MobileNetV2Config config;
      config.name = Format("mobilenet_v2-%03d-r%ld",
                           static_cast<int>(width * 100),
                           static_cast<long>(resolution));
      config.width_mult = width;
      config.input_resolution = resolution;
      add(Named(std::move(config), BuildMobileNetV2));
    }
  }
  // ShuffleNet v1 groups x scale sweep.
  for (std::int64_t groups : {1, 2, 3, 4, 8}) {
    for (double scale : {0.75, 1.0, 1.5, 2.0}) {
      ShuffleNetV1Config config;
      config.name = Format("shufflenet_v1-g%ld-s%03d",
                           static_cast<long>(groups),
                           static_cast<int>(scale * 100));
      config.groups = groups;
      config.scale = scale;
      add(Named(std::move(config), BuildShuffleNetV1));
    }
  }
  // Top up with deterministic mixnets to the paper's 646.
  for (int mix_index = 0;
       recipes.size() < static_cast<std::size_t>(kImageZooSize);
       ++mix_index) {
    add({MixNetName(mix_index),
         [mix_index] { return BuildMixNet(mix_index); }});
  }
  GP_CHECK_EQ(recipes.size(), static_cast<std::size_t>(kImageZooSize));
  return recipes;
}

/** The transformer recipes: every preset at five sequence lengths. */
std::vector<Recipe> MakeTransformerRecipes() {
  std::vector<Recipe> recipes;
  for (const char* preset :
       {"bert_tiny", "bert_mini", "bert_small", "bert_medium", "bert_base",
        "bert_large", "distilbert"}) {
    for (std::int64_t seq_len : {64, 96, 128, 192, 256}) {
      recipes.push_back(Named(StandardTransformerConfig(preset, seq_len),
                              BuildTransformer));
    }
  }
  return recipes;
}

const std::vector<Recipe>& ImageRecipes() {
  static const std::vector<Recipe>* const kRecipes =
      new std::vector<Recipe>(MakeImageRecipes());
  return *kRecipes;
}

const std::vector<Recipe>& TransformerRecipes() {
  static const std::vector<Recipe>* const kRecipes =
      new std::vector<Recipe>(MakeTransformerRecipes());
  return *kRecipes;
}

/** The recipe named `name` in the image table, then the transformer's. */
const Recipe* FindRecipe(const std::string& name) {
  for (const std::vector<Recipe>* table :
       {&ImageRecipes(), &TransformerRecipes()}) {
    for (const Recipe& recipe : *table) {
      if (recipe.name == name) return &recipe;
    }
  }
  return nullptr;
}

/** Builds every `stride`-th recipe of `recipes`. */
std::vector<Network> BuildEvery(const std::vector<Recipe>& recipes,
                                std::size_t stride) {
  std::vector<Network> networks;
  networks.reserve((recipes.size() + stride - 1) / stride);
  for (std::size_t i = 0; i < recipes.size(); i += stride) {
    networks.push_back(Build(recipes[i]));
  }
  return networks;
}

}  // namespace

StatusOr<Network> TryBuildByName(const std::string& name) {
  int depth = 0;
  if (name == "alexnet") return BuildAlexNet();
  if (name == "googlenet") return BuildGoogLeNet();
  if (name == "squeezenet1_0") return BuildSqueezeNet(0);
  if (name == "squeezenet1_1") return BuildSqueezeNet(1);
  if (name == "mobilenet_v2") return BuildMobileNetV2({});
  if (name == "shufflenet_v1") return BuildShuffleNetV1({});
  if (StartsWith(name, "bert_") || name == "distilbert") {
    // The transformer zoo holds every preset at each of its sequence
    // lengths ("bert_base", "bert_tiny-s64", ...).
    if (const Recipe* recipe = FindRecipe(name)) return Build(*recipe);
    return NotFoundError("unknown transformer preset '" + name +
                         "' (try bert_tiny/mini/small/medium/base/large "
                         "or distilbert)");
  }
  if (StartsWith(name, "gpt2")) {
    if (name != "gpt2" && name != "gpt2_medium" && name != "gpt2_large") {
      return NotFoundError("unknown GPT-2 preset '" + name +
                           "' (try gpt2, gpt2_medium, gpt2_large)");
    }
    return BuildGpt2(name);
  }
  if (name == "resnext50_32x4d") return BuildResNeXt(50);
  if (name == "resnext101_32x8d") return BuildResNeXt(101, 32, 8);
  if (name == "wide_resnet50_2") return BuildWideResNet(50);
  if (name == "wide_resnet101_2") return BuildWideResNet(101);
  if (ParseIntSuffix(name, "resnet", &depth)) {
    if (depth == 18 || depth == 34 || depth == 50 || depth == 101 ||
        depth == 152) {
      return BuildStandardResNet(depth);
    }
    if ((depth - 2) % 3 == 0 && depth >= 14) {
      return BuildResNetWithBlocks((depth - 2) / 3);
    }
    return NotFoundError("cannot construct " + name +
                         ": depth must be 3*blocks+2 (>= 14) or a standard "
                         "depth (18/34/50/101/152)");
  }
  if (ParseIntSuffix(name, "densenet", &depth)) {
    if (depth != 121 && depth != 161 && depth != 169 && depth != 201) {
      return NotFoundError(Format(
          "no standard DenseNet of depth %d (try 121/161/169/201)", depth));
    }
    return BuildStandardDenseNet(depth);
  }
  const auto vgg_depth_ok = [](int d) {
    return d == 11 || d == 13 || d == 16 || d == 19;
  };
  if (ParseIntSuffix(name, "vgg", &depth)) {
    if (!vgg_depth_ok(depth)) {
      return NotFoundError(
          Format("no standard VGG of depth %d (try 11/13/16/19)", depth));
    }
    return BuildStandardVgg(depth, /*batch_norm=*/false);
  }
  if (name.size() > 3 && name.substr(name.size() - 3) == "_bn") {
    if (ParseIntSuffix(name.substr(0, name.size() - 3), "vgg", &depth)) {
      if (!vgg_depth_ok(depth)) {
        return NotFoundError(
            Format("no standard VGG of depth %d (try 11/13/16/19)", depth));
      }
      return BuildStandardVgg(depth, /*batch_norm=*/true);
    }
  }
  // Fall back to the zoo's recipes for sweep-variant names such as
  // "vgg-c18-w96" or "mixnet-042".
  if (const Recipe* recipe = FindRecipe(name)) return Build(*recipe);
  return NotFoundError("unknown network name '" + name +
                       "' (run `gpuperf zoo` for the full list)");
}

Network BuildByName(const std::string& name) {
  StatusOr<Network> net = TryBuildByName(name);
  if (!net.ok()) Fatal(net.status().message());
  return std::move(net).value();
}

std::vector<Network> ImageClassificationZoo() {
  return BuildEvery(ImageRecipes(), 1);
}

std::vector<Network> SmallZoo(int stride) {
  GP_CHECK_GT(stride, 0);
  return BuildEvery(ImageRecipes(), static_cast<std::size_t>(stride));
}

std::vector<Network> TransformerZoo() {
  return BuildEvery(TransformerRecipes(), 1);
}

}  // namespace gpuperf::zoo
