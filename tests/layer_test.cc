#include "dnn/layer.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gpuperf::dnn {
namespace {

constexpr LayerKind kAllKinds[] = {
    LayerKind::kConv2d,   LayerKind::kLinear,       LayerKind::kBatchNorm,
    LayerKind::kLayerNorm, LayerKind::kRelu,        LayerKind::kRelu6,
    LayerKind::kGelu,     LayerKind::kSigmoid,      LayerKind::kAdd,
    LayerKind::kConcat,   LayerKind::kMaxPool,      LayerKind::kAvgPool,
    LayerKind::kGlobalAvgPool, LayerKind::kSoftmax, LayerKind::kFlatten,
    LayerKind::kEmbedding, LayerKind::kMatMul,
    LayerKind::kChannelShuffle, LayerKind::kDropout,
};

class LayerKindRoundTripTest : public ::testing::TestWithParam<LayerKind> {};

TEST_P(LayerKindRoundTripTest, NameRoundTrips) {
  const LayerKind kind = GetParam();
  LayerKind parsed = LayerKind::kDropout;
  ASSERT_TRUE(TryLayerKindFromName(LayerKindName(kind), &parsed));
  EXPECT_EQ(parsed, kind);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LayerKindRoundTripTest,
                         ::testing::ValuesIn(kAllKinds));

TEST(LayerKindTest, UnknownNameIsRejected) {
  LayerKind parsed = LayerKind::kDropout;
  EXPECT_FALSE(TryLayerKindFromName("Bogus", &parsed));
  EXPECT_EQ(parsed, LayerKind::kDropout);  // untouched on failure
}

TEST(LayerTest, InputElementsSumsAllInputs) {
  Layer layer;
  layer.kind = LayerKind::kAdd;
  layer.inputs = {Chw(4, 8, 8), Chw(4, 8, 8)};
  layer.output = Chw(4, 8, 8);
  EXPECT_EQ(layer.InputElements(), 2 * 4 * 8 * 8);
}

TEST(LayerTest, TypedParamAccessors) {
  Layer layer;
  layer.kind = LayerKind::kConv2d;
  ConvParams params;
  params.in_channels = 3;
  params.out_channels = 64;
  params.kernel_h = params.kernel_w = 7;
  layer.params = params;
  EXPECT_EQ(layer.conv().out_channels, 64);
}

TEST(LayerDeathTest, WrongParamAccessorAborts) {
  Layer layer;
  layer.kind = LayerKind::kRelu;
  layer.params = NoParams{};
  EXPECT_DEATH(layer.conv(), "check failed");
}

TEST(ConvParamsTest, DepthwiseDetection) {
  ConvParams params;
  params.in_channels = params.out_channels = params.groups = 32;
  EXPECT_TRUE(params.IsDepthwise());
  params.groups = 4;
  EXPECT_FALSE(params.IsDepthwise());
}

TEST(LayerSignatureTest, EncodesShapesAndConvParams) {
  Layer layer;
  layer.kind = LayerKind::kConv2d;
  ConvParams params;
  params.in_channels = 3;
  params.out_channels = 64;
  params.kernel_h = params.kernel_w = 7;
  params.stride_h = params.stride_w = 2;
  params.pad_h = params.pad_w = 3;
  layer.params = params;
  layer.inputs = {Chw(3, 224, 224)};
  layer.output = Chw(64, 112, 112);
  const std::string signature = LayerSignature(layer);
  EXPECT_NE(signature.find("CONV"), std::string::npos);
  EXPECT_NE(signature.find("i3x224x224"), std::string::npos);
  EXPECT_NE(signature.find("o64x112x112"), std::string::npos);
  EXPECT_NE(signature.find("k7x7"), std::string::npos);
  EXPECT_NE(signature.find("s2x2"), std::string::npos);
  EXPECT_NE(signature.find("g1"), std::string::npos);
}

TEST(LayerSignatureTest, DistinguishesConfigurations) {
  Layer a;
  a.kind = LayerKind::kRelu;
  a.inputs = {Chw(64, 56, 56)};
  a.output = Chw(64, 56, 56);
  Layer b = a;
  b.inputs = {Chw(64, 28, 28)};
  b.output = Chw(64, 28, 28);
  EXPECT_NE(LayerSignature(a), LayerSignature(b));
  Layer c = a;
  EXPECT_EQ(LayerSignature(a), LayerSignature(c));
}

// The exact bytes of every LayerSignature branch. Signatures are the
// mapping-table keys of saved bundles (and the lowering-table and
// dataset keys), so bundles written by earlier builds load only while
// these strings stay byte-for-byte the same.

/** A layer of `kind` with the given shapes and parameters. */
Layer MakeLayer(LayerKind kind, std::vector<TensorShape> inputs,
                TensorShape output, LayerParams params = NoParams{}) {
  Layer layer;
  layer.kind = kind;
  layer.name = "l";
  layer.params = params;
  layer.inputs = std::move(inputs);
  layer.output = output;
  return layer;
}

TEST(LayerSignatureTest, PinsConvBytesForEveryEpilogue) {
  ConvParams params;
  params.in_channels = 3;
  params.out_channels = 64;
  params.kernel_h = params.kernel_w = 7;
  params.stride_h = params.stride_w = 2;
  params.pad_h = params.pad_w = 3;
  const std::pair<ConvEpilogue, std::string> kCases[] = {
      {ConvEpilogue::kNone, ""},
      {ConvEpilogue::kBias, "/ebias"},
      {ConvEpilogue::kRelu, "/erelu"},
      {ConvEpilogue::kRelu6, "/erelu6"},
  };
  for (const auto& [epilogue, suffix] : kCases) {
    params.epilogue = epilogue;
    EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kConv2d,
                                       {Chw(3, 224, 224)},
                                       Chw(64, 112, 112), params)),
              "CONV/i3x224x224/o64x112x112/k7x7/s2x2/p3x3/g1" + suffix);
  }
}

TEST(LayerSignatureTest, PinsDepthwiseAndNonSquareConvBytes) {
  ConvParams depthwise;
  depthwise.in_channels = depthwise.out_channels = depthwise.groups = 32;
  depthwise.kernel_h = depthwise.kernel_w = 3;
  depthwise.pad_h = depthwise.pad_w = 1;
  depthwise.epilogue = ConvEpilogue::kRelu6;
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kConv2d, {Chw(32, 56, 56)},
                                     Chw(32, 56, 56), depthwise)),
            "CONV/i32x56x56/o32x56x56/k3x3/s1x1/p1x1/g32/erelu6");

  // Height before width in every pair (an Inception 1x7 factorization).
  ConvParams tall;
  tall.in_channels = 768;
  tall.out_channels = 192;
  tall.kernel_h = 1;
  tall.kernel_w = 7;
  tall.pad_w = 3;
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kConv2d, {Chw(768, 17, 17)},
                                     Chw(192, 17, 17), tall)),
            "CONV/i768x17x17/o192x17x17/k1x7/s1x1/p0x3/g1");
}

TEST(LayerSignatureTest, PinsPoolBytes) {
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kMaxPool,
                                     {Chw(64, 112, 112)}, Chw(64, 56, 56),
                                     PoolParams{3, 2, 1})),
            "MaxPool/i64x112x112/o64x56x56/k3/s2/p1");
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kAvgPool, {Chw(256, 56, 56)},
                                     Chw(256, 28, 28), PoolParams{2, 2, 0})),
            "AvgPool/i256x56x56/o256x28x28/k2/s2/p0");
}

TEST(LayerSignatureTest, PinsMatMulBytes) {
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kMatMul,
                                     {Chw(768, 128, 1), Chw(768, 128, 1)},
                                     Chw(12, 128, 128),
                                     MatMulParams{12, 128, 128, 64})),
            "MatMul/i768x128x1/i768x128x1/o12x128x128/b12/m128/n128/k64");
}

TEST(LayerSignatureTest, PinsFcBytes) {
  // FC parameters are implied by the shapes; only the shapes are keyed.
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kLinear, {Chw(2048, 1, 1)},
                                     Chw(1000, 1, 1),
                                     LinearParams{2048, 1000, true})),
            "FC/i2048x1x1/o1000x1x1");
}

TEST(LayerSignatureTest, PinsMultiInputBytes) {
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kAdd,
                                     {Chw(256, 56, 56), Chw(256, 56, 56)},
                                     Chw(256, 56, 56))),
            "Add/i256x56x56/i256x56x56/o256x56x56");
  EXPECT_EQ(
      LayerSignature(MakeLayer(
          LayerKind::kConcat,
          {Chw(64, 28, 28), Chw(32, 28, 28), Chw(32, 28, 28)},
          Chw(128, 28, 28))),
      "Concat/i64x28x28/i32x28x28/i32x28x28/o128x28x28");
}

TEST(LayerSignatureTest, PinsZeroParamBytes) {
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kRelu, {Chw(64, 56, 56)},
                                     Chw(64, 56, 56))),
            "ReLU/i64x56x56/o64x56x56");
  // Transformer activations are hidden x seq_len x 1.
  EXPECT_EQ(LayerSignature(MakeLayer(LayerKind::kGelu, {Chw(3072, 512, 1)},
                                     Chw(3072, 512, 1))),
            "GELU/i3072x512x1/o3072x512x1");
}

}  // namespace
}  // namespace gpuperf::dnn
