#include "zoo/zoo.h"

#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "dnn/flops.h"
#include "zoo/resnet.h"
#include "zoo/transformer.h"
#include "zoo/vgg.h"

namespace gpuperf::zoo {
namespace {

TEST(ZooTest, FullZooHasPaperSize) {
  std::vector<dnn::Network> networks = ImageClassificationZoo();
  EXPECT_EQ(networks.size(), static_cast<std::size_t>(kImageZooSize));
}

TEST(ZooTest, NamesAreUnique) {
  std::vector<dnn::Network> networks = ImageClassificationZoo();
  std::set<std::string> names;
  for (const dnn::Network& network : networks) {
    EXPECT_TRUE(names.insert(network.name()).second)
        << "duplicate: " << network.name();
  }
}

TEST(ZooTest, DeterministicAcrossCalls) {
  std::vector<dnn::Network> a = ImageClassificationZoo();
  std::vector<dnn::Network> b = ImageClassificationZoo();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name(), b[i].name());
    EXPECT_EQ(a[i].layers().size(), b[i].layers().size());
    EXPECT_EQ(dnn::NetworkFlops(a[i], 1), dnn::NetworkFlops(b[i], 1));
  }
}

TEST(ZooTest, SmallZooStrides) {
  EXPECT_EQ(SmallZoo(16).size(), (kImageZooSize + 15) / 16);
}

/**
 * Folds what each network of a zoo is into one hash: its summary, name,
 * family, layer count, FLOPs, parameter count and every layer signature.
 */
std::uint64_t ZooDigest(const std::vector<dnn::Network>& networks) {
  std::uint64_t h = HashCombine(0, networks.size());
  for (const dnn::Network& net : networks) {
    h = HashCombine(h, StableHash(net.Summary()));
    h = HashCombine(h, StableHash(net.name()));
    h = HashCombine(h, StableHash(net.family()));
    h = HashCombine(h, net.layers().size());
    h = HashCombine(h, static_cast<std::uint64_t>(dnn::NetworkFlops(net, 1)));
    h = HashCombine(h, static_cast<std::uint64_t>(net.ParameterCount()));
    for (const dnn::Layer& layer : net.layers()) {
      h = HashCombine(h, StableHash(dnn::LayerSignature(layer)));
    }
  }
  return h;
}

TEST(ZooTest, MatchesParentGolden) {
  // Pinned from the zoo that built every network before deduplicating
  // by the built name: building from named recipes must hand out the
  // same networks in the same order.
  struct Golden {
    const char* label;
    int stride;  // 0: ImageClassificationZoo(), -1: TransformerZoo()
    std::uint64_t digest;
  };
  static constexpr Golden kGolden[] = {
      {"full", 0, 0xc7213e7118580bb1ULL},
      {"stride 1", 1, 0xc7213e7118580bb1ULL},
      {"stride 4", 4, 0x30b73439fd053ce3ULL},
      {"stride 7", 7, 0xc057e68a8c21972eULL},
      {"stride 8", 8, 0xf5abbaa786eec4dfULL},
      {"stride 16", 16, 0x6248c2ce192e9d18ULL},
      {"stride 64", 64, 0x27418241119d5b0dULL},
      {"transformers", -1, 0x9934567f8c8ed373ULL},
  };
  for (const Golden& golden : kGolden) {
    const std::vector<dnn::Network> networks =
        golden.stride == 0    ? ImageClassificationZoo()
        : golden.stride == -1 ? TransformerZoo()
                              : SmallZoo(golden.stride);
    const std::uint64_t got = ZooDigest(networks);
    EXPECT_EQ(got, golden.digest)
        << Format("{\"%s\", %d, 0x%llxULL},", golden.label, golden.stride,
                  static_cast<unsigned long long>(got));
  }
}

TEST(ZooTest, EveryZooNameBuildsByName) {
  std::vector<dnn::Network> networks = ImageClassificationZoo();
  for (dnn::Network& net : TransformerZoo()) networks.push_back(std::move(net));
  for (const dnn::Network& net : networks) {
    StatusOr<dnn::Network> built = TryBuildByName(net.name());
    ASSERT_TRUE(built.ok()) << net.name() << ": "
                            << built.status().message();
    EXPECT_EQ(built->Summary(), net.Summary()) << net.name();
  }
}

TEST(ZooTest, UnknownNamesKeepTheirMessages) {
  const struct {
    const char* name;
    const char* message;
  } kCases[] = {
      {"not_a_network",
       "unknown network name 'not_a_network' (run `gpuperf zoo` for the "
       "full list)"},
      {"mixnet-999",
       "unknown network name 'mixnet-999' (run `gpuperf zoo` for the full "
       "list)"},
      {"vgg-c99",
       "unknown network name 'vgg-c99' (run `gpuperf zoo` for the full "
       "list)"},
      {"bert_tiny-s999",
       "unknown transformer preset 'bert_tiny-s999' (try "
       "bert_tiny/mini/small/medium/base/large or distilbert)"},
  };
  for (const auto& c : kCases) {
    StatusOr<dnn::Network> built = TryBuildByName(c.name);
    ASSERT_FALSE(built.ok()) << c.name;
    EXPECT_EQ(built.status().code(), StatusCode::kNotFound) << c.name;
    EXPECT_EQ(built.status().message(), c.message);
  }
}

TEST(ZooTest, EveryNetworkHasPositiveFlopsAndLayers) {
  for (const dnn::Network& network : SmallZoo(8)) {
    EXPECT_GT(network.layers().size(), 3u) << network.name();
    EXPECT_GT(dnn::NetworkFlops(network, 1), 0) << network.name();
    EXPECT_GT(network.ParameterCount(), 0) << network.name();
  }
}

struct NameCase {
  const char* name;
  int min_layers;
};

class BuildByNameTest : public ::testing::TestWithParam<NameCase> {};

TEST_P(BuildByNameTest, BuildsAndIsNamedCorrectly) {
  const NameCase c = GetParam();
  dnn::Network network = BuildByName(c.name);
  EXPECT_EQ(network.name(), c.name);
  EXPECT_GE(static_cast<int>(network.layers().size()), c.min_layers);
}

INSTANTIATE_TEST_SUITE_P(
    Names, BuildByNameTest,
    ::testing::Values(NameCase{"resnet18", 40}, NameCase{"resnet50", 100},
                      NameCase{"resnet44", 90}, NameCase{"resnet62", 120},
                      NameCase{"resnet77", 150},
                      NameCase{"densenet121", 300},
                      NameCase{"densenet169", 400},
                      NameCase{"densenet201", 500},
                      NameCase{"vgg16_bn", 40}, NameCase{"vgg19", 25},
                      NameCase{"alexnet", 15}, NameCase{"googlenet", 100},
                      NameCase{"squeezenet1_0", 30},
                      NameCase{"mobilenet_v2", 100},
                      NameCase{"shufflenet_v1", 100},
                      NameCase{"bert_base", 100}));

TEST(BuildByNameDeathTest, UnknownNameIsFatal) {
  EXPECT_EXIT(BuildByName("not_a_network"), ::testing::ExitedWithCode(1),
              "unknown network");
}

TEST(BuildByNameDeathTest, InvalidResNetDepthIsFatal) {
  // 60 is not 3*blocks+2.
  EXPECT_EXIT(BuildByName("resnet60"), ::testing::ExitedWithCode(1),
              "3\\*blocks\\+2");
}

TEST(ResNetTest, Resnet77HasExpectedDepth) {
  // 3 * 25 + 2 = 77: 25 bottleneck blocks of 3 convs, stem, classifier.
  dnn::Network network = BuildByName("resnet77");
  int convs = 0, linears = 0;
  for (const dnn::Layer& layer : network.layers()) {
    // Count only the main-path convolutions (3x3 and first 1x1 and last
    // 1x1 of blocks + stem); downsample shortcuts add extras.
    if (layer.kind == dnn::LayerKind::kConv2d) ++convs;
    if (layer.kind == dnn::LayerKind::kLinear) ++linears;
  }
  EXPECT_GE(convs, 76);  // 25 * 3 + 1 stem = 76, plus 4 shortcuts
  EXPECT_EQ(linears, 1);
}

TEST(ResNetTest, StandardResnet50StructureMatchesTorchvision) {
  dnn::Network network = BuildStandardResNet(50);
  int convs = 0;
  for (const dnn::Layer& layer : network.layers()) {
    if (layer.kind == dnn::LayerKind::kConv2d) ++convs;
  }
  EXPECT_EQ(convs, 53);  // torchvision resnet50 has 53 convolutions
}

TEST(VggTest, Vgg16Has13Convs3Linears) {
  dnn::Network network = BuildStandardVgg(16, false);
  int convs = 0, linears = 0;
  for (const dnn::Layer& layer : network.layers()) {
    if (layer.kind == dnn::LayerKind::kConv2d) ++convs;
    if (layer.kind == dnn::LayerKind::kLinear) ++linears;
  }
  EXPECT_EQ(convs, 13);
  EXPECT_EQ(linears, 3);
}

TEST(ZooTest, CustomResnetFamilyMonotoneInBlocks) {
  // More blocks means more FLOPs (Figure 4's x axis).
  std::int64_t previous = 0;
  for (int blocks : {6, 10, 16, 24, 32}) {
    dnn::Network network = BuildResNetWithBlocks(blocks);
    const std::int64_t flops = dnn::NetworkFlops(network, 1);
    EXPECT_GT(flops, previous);
    previous = flops;
  }
}

TEST(TransformerTest, BertBaseParameterCount) {
  // BERT-base is ~110M parameters (23.8M of which are embeddings).
  dnn::Network network = BuildStandardTransformer("bert_base");
  const double millions =
      static_cast<double>(network.ParameterCount()) / 1e6;
  EXPECT_NEAR(millions, 109.0, 6.0);
}

TEST(TransformerTest, SequenceLengthInName) {
  EXPECT_EQ(BuildStandardTransformer("bert_tiny", 128).name(), "bert_tiny");
  EXPECT_EQ(BuildStandardTransformer("bert_tiny", 64).name(),
            "bert_tiny-s64");
}

TEST(TransformerZooTest, AllPresetsTimesSeqLens) {
  std::vector<dnn::Network> networks = TransformerZoo();
  EXPECT_EQ(networks.size(), 7u * 5u);
  std::set<std::string> names;
  for (const dnn::Network& network : networks) {
    EXPECT_TRUE(names.insert(network.name()).second);
    EXPECT_EQ(network.family(), "Transformer");
  }
}

TEST(ZooTest, FamiliesArePopulated) {
  std::set<std::string> families;
  for (const dnn::Network& network : SmallZoo(4)) {
    families.insert(network.family());
  }
  EXPECT_GE(families.size(), 5u);
  EXPECT_TRUE(families.count("ResNet"));
  EXPECT_TRUE(families.count("VGG"));
}

}  // namespace
}  // namespace gpuperf::zoo
