#include "common/string_util.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include <gtest/gtest.h>

namespace gpuperf {
namespace {

TEST(SplitTest, BasicSplitting) {
  EXPECT_EQ(Split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyParts) {
  EXPECT_EQ(Split("/a/", '/'), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("resnet50", "resnet"));
  EXPECT_FALSE(StartsWith("res", "resnet"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(FormatTest, PrintfSemantics) {
  EXPECT_EQ(Format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(Format("no args"), "no args");
}

TEST(FormatTest, LongOutputNotTruncated) {
  std::string long_text(500, 'a');
  EXPECT_EQ(Format("%s", long_text.c_str()).size(), 500u);
}

TEST(PrettyTest, SignificantDigits) {
  EXPECT_EQ(Pretty(3.14159, 3), "3.14");
  EXPECT_EQ(Pretty(1000.0, 4), "1000");
}

TEST(EngineeringTest, PicksSuffix) {
  EXPECT_EQ(Engineering(1500.0), "1.5k");
  EXPECT_EQ(Engineering(2.5e9), "2.5G");
  EXPECT_EQ(Engineering(42.0), "42");
  EXPECT_EQ(Engineering(3.2e12), "3.2T");
}

// The appenders promise printf's exact bytes; pin that against Format
// itself. Each check appends to a non-empty string, so it also pins
// that the helpers append rather than overwrite.

std::string WithInt(long long value) {
  std::string out = "x";
  AppendInt(out, value);
  return out;
}

std::string WithUint(unsigned long long value) {
  std::string out = "x";
  AppendUint(out, value);
  return out;
}

std::string WithGeneral(double value) {
  std::string out = "x";
  AppendGeneral(out, value);
  return out;
}

std::string WithFixed3(double value) {
  std::string out = "x";
  AppendFixed3(out, value);
  return out;
}

TEST(AppendTest, IntegersMatchPrintf) {
  for (long long value : {0LL, 1LL, -1LL, 9LL, 10LL, -40000LL,
                          std::numeric_limits<long long>::min(),
                          std::numeric_limits<long long>::max()}) {
    EXPECT_EQ(WithInt(value), Format("x%lld", value));
  }
  for (unsigned long long value :
       {0ULL, 1ULL, 10ULL, 40000ULL,
        static_cast<unsigned long long>(std::numeric_limits<long long>::max()),
        std::numeric_limits<unsigned long long>::max()}) {
    EXPECT_EQ(WithUint(value), Format("x%llu", value));
  }
  EXPECT_EQ(WithInt(-7), "x-7");
  EXPECT_EQ(WithUint(18446744073709551615ULL), "x18446744073709551615");
}

TEST(AppendTest, DoubleEdgeCasesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double edges[] = {
      0.0, -0.0, kInf, -kInf, kNaN, -kNaN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX, -DBL_MAX,
      static_cast<double>(std::numeric_limits<std::int64_t>::min()),
      static_cast<double>(std::numeric_limits<std::int64_t>::max()),
      static_cast<double>(std::numeric_limits<std::uint64_t>::max()),
      1e-5, 1e-4, 99999.95, 999999.5, 0.99, 40000.0, 0.5, 1.0, 100000.0,
      1e6, -1e6, 999999.0, -999999.0, 1000001.0, 999999.75, -7.0,
      123456.5, 0.0005, 0.0015, 2.5e-3, -1.25e15, 1.0 / 3.0};
  for (double value : edges) {
    EXPECT_EQ(WithGeneral(value), Format("x%g", value)) << value;
    EXPECT_EQ(WithFixed3(value), Format("x%.3f", value)) << value;
  }
  // Spot checks in the serialized forms the exporters rely on.
  EXPECT_EQ(WithGeneral(40000.0), "x40000");
  EXPECT_EQ(WithGeneral(0.99), "x0.99");
  EXPECT_EQ(WithGeneral(999999.5), "x1e+06");
  EXPECT_EQ(WithGeneral(999999.0), "x999999");
  EXPECT_EQ(WithGeneral(1e6), "x1e+06");
  EXPECT_EQ(WithGeneral(-0.0), "x-0");
  EXPECT_EQ(WithFixed3(20.25), "x20.250");
  EXPECT_EQ(WithFixed3(-DBL_MAX).size(), 1 + 314u);  // "x" + 314 bytes
}

TEST(AppendTest, RandomDoublesMatchPrintf) {
  std::mt19937_64 rng(20240611);
  for (int i = 0; i < 100000; ++i) {
    // Raw bit patterns: every exponent, denormals, infinities, NaNs.
    const double raw = std::bit_cast<double>(rng());
    ASSERT_EQ(WithGeneral(raw), Format("x%g", raw)) << i;
    ASSERT_EQ(WithFixed3(raw), Format("x%.3f", raw)) << i;
    // 2^-20 fixed-point values, as the recorder's sketch sums.
    const double scaled =
        static_cast<double>(static_cast<std::int64_t>(rng() >> 20) -
                            (std::int64_t{1} << 43)) /
        1048576.0;
    ASSERT_EQ(WithGeneral(scaled), Format("x%g", scaled)) << i;
    ASSERT_EQ(WithFixed3(scaled), Format("x%.3f", scaled)) << i;
    // Whole numbers on both sides of %g's 1e6 switch to exponent form.
    const double whole =
        static_cast<double>(static_cast<std::int64_t>(rng() % 2400001) -
                            1200000);
    ASSERT_EQ(WithGeneral(whole), Format("x%g", whole)) << i;
    // Near-whole numbers next to AppendGeneral's whole-number path: a
    // few ulps off, 1e-8 off, and the same for the negation.
    const double near = static_cast<double>(rng() % 1000001);
    const double off[] = {
        std::nextafter(near, 0.0), std::nextafter(near, 2e6),
        std::nextafter(std::nextafter(near, 2e6), 2e6),
        std::nextafter(std::nextafter(near, 0.0), 0.0), near + 1e-8,
        near - 1e-8};
    for (double v : off) {
      ASSERT_EQ(WithGeneral(v), Format("x%g", v)) << i << " " << v;
      ASSERT_EQ(WithGeneral(-v), Format("x%g", -v)) << i << " " << -v;
    }
  }
  // Fixed near-whole edges, both signs.
  for (double v : {0.99999999, 1.00000001, 999999.5, 999999.4999999,
                   std::nextafter(1e6, 0.0), std::nextafter(999999.0, 1e6),
                   std::nextafter(1.0, 0.0), std::nextafter(0.0, 1.0),
                   9.2233720368547758e18, 0.5, 1e-300}) {
    EXPECT_EQ(WithGeneral(v), Format("x%g", v)) << v;
    EXPECT_EQ(WithGeneral(-v), Format("x%g", -v)) << -v;
  }
}

}  // namespace
}  // namespace gpuperf
