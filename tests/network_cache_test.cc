#include "models/network_cache.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dnn/builder.h"
#include "zoo/zoo.h"

namespace gpuperf::models {
namespace {

/** A small residual block: conv/bn/relu, a branch, and an Add. */
dnn::Network Block(const std::string& name) {
  dnn::NetworkBuilder b(name, "Test", dnn::Chw(3, 32, 32));
  b.ConvBnRelu(16, 3, 1, 1);
  const int skip = b.Mark();
  b.Conv(16, 3, 1, 1).BatchNorm();
  b.AddFrom(skip).Relu().GlobalAvgPool().Flatten().Linear(10);
  return b.Build();
}

/** `network` rebuilt layer by layer with `edit` applied to layer `index`. */
template <typename Edit>
dnn::Network Edited(const dnn::Network& network, std::size_t index,
                    Edit edit) {
  dnn::Network out(network.name(), network.family(), network.input());
  for (std::size_t i = 0; i < network.layers().size(); ++i) {
    dnn::Layer layer = network.layers()[i];
    if (i == index) edit(layer);
    out.AppendLayer(std::move(layer));
  }
  return out;
}

TEST(NetworkFingerprintTest, IdenticalBuildsAndCopiesShareFingerprint) {
  const dnn::Network a = Block("block");
  const dnn::Network b = Block("block");
  const dnn::Network copy = a;
  EXPECT_EQ(NetworkFingerprint(a), NetworkFingerprint(b));
  EXPECT_EQ(NetworkFingerprint(a), NetworkFingerprint(copy));
  EXPECT_EQ(NetworkFingerprint(zoo::BuildByName("resnet50")),
            NetworkFingerprint(zoo::BuildByName("resnet50")));
  // The name is the cache key, not part of the structure.
  EXPECT_EQ(NetworkFingerprint(a), NetworkFingerprint(Block("renamed")));
}

TEST(NetworkFingerprintTest, KindOrShapeChangeChangesFingerprint) {
  const dnn::Network base = Block("block");
  const std::uint64_t fingerprint = NetworkFingerprint(base);
  ASSERT_EQ(base.layers()[2].kind, dnn::LayerKind::kRelu);
  EXPECT_NE(NetworkFingerprint(Edited(base, 2,
                                      [](dnn::Layer& layer) {
                                        layer.kind = dnn::LayerKind::kRelu6;
                                      })),
            fingerprint);
  EXPECT_NE(NetworkFingerprint(Edited(base, 3,
                                      [](dnn::Layer& layer) {
                                        layer.inputs[0].h *= 2;
                                      })),
            fingerprint);
  EXPECT_NE(NetworkFingerprint(Edited(base, 3,
                                      [](dnn::Layer& layer) {
                                        layer.output.c += 1;
                                      })),
            fingerprint);
  // An unedited rebuild through AppendLayer hashes the same.
  EXPECT_EQ(NetworkFingerprint(Edited(base, 0, [](dnn::Layer&) {})),
            fingerprint);
}

TEST(NetworkFingerprintTest, StructureHashFoldsEveryLayerInOrder) {
  // AppendLayer is the only mutator, so the running hash must equal a
  // fresh fold over the finished layer list, for every zoo family.
  for (const dnn::Network& network : zoo::SmallZoo(/*stride=*/64)) {
    std::uint64_t hash = 0;
    for (const dnn::Layer& layer : network.layers()) {
      hash = HashCombine(hash, static_cast<std::uint64_t>(layer.kind));
      hash = HashCombine(hash,
                         static_cast<std::uint64_t>(layer.InputElements()));
      hash = HashCombine(hash,
                         static_cast<std::uint64_t>(layer.output.Elements()));
    }
    EXPECT_EQ(network.structure_hash(), hash) << network.name();
  }
}

TEST(NetworkSidCacheTest, ResolvesOncePerNetworkAndRetiresOnNameReuse) {
  NetworkSidCache cache;
  int resolves = 0;
  auto resolve = [&resolves](const dnn::Layer& layer) {
    ++resolves;
    return static_cast<int>(layer.output.Elements() % 1000);
  };
  const dnn::Network a = Block("shape-shifter");
  const std::vector<int>* first = cache.Get(a, resolve);
  EXPECT_EQ(resolves, static_cast<int>(a.layers().size()));
  EXPECT_EQ(cache.Get(a, resolve), first);
  EXPECT_EQ(resolves, static_cast<int>(a.layers().size()));

  // Same name, different architecture: fresh ids, and the old vector
  // stays readable for any predict still walking it.
  const std::vector<int> first_ids = *first;
  const dnn::Network b =
      Edited(a, 0, [](dnn::Layer& layer) { layer.output.c *= 2; });
  const std::vector<int>* second = cache.Get(b, resolve);
  EXPECT_EQ(resolves, static_cast<int>(2 * a.layers().size()));
  EXPECT_NE(second, first);
  EXPECT_EQ(*first, first_ids);
  EXPECT_NE((*second)[0], first_ids[0]);
}

}  // namespace
}  // namespace gpuperf::models
